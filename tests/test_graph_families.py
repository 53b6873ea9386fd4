"""Tests for the graph-family generators (repro.graph.families)."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import networkx as nx

from repro.graph import families
from tests.data import capture_kron, capture_rgg
from tests.oracles.radius_pairs import radius_pairs_reference

_DATA = Path(capture_rgg.__file__).parent
_PINNED = json.loads((_DATA / "rgg_pr28.json").read_text())
_PINNED_KRON = json.loads((_DATA / "kron.json").read_text())


class TestRing:
    def test_edges(self):
        tg = families.ring(5)
        assert tg.comm_phase("ring").pairs() == [(i, (i + 1) % 5) for i in range(5)]

    def test_family_tag(self):
        assert families.ring(5).family == ("ring", (5,))

    @given(st.integers(min_value=1, max_value=40))
    def test_every_node_degree_one_out(self, n):
        tg = families.ring(n)
        fn = tg.comm_function("ring")
        assert fn is not None and len(fn) == n

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            families.ring(0)


class TestNbody:
    def test_paper_15_body(self):
        tg = families.nbody(15)
        chord = dict(tg.comm_phase("chordal").pairs())
        # Fig 6: task 0 sends to task 8, task 1 to task 9, ...
        assert chord[0] == 8
        assert chord[1] == 9
        assert chord[14] == 7

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            families.nbody(8)

    def test_phase_expression_structure(self):
        tg = families.nbody(7, sweeps=2)
        steps = tg.phase_expr.linearize()
        # (ring;compute1)^4 then chordal;compute2, twice.
        assert len(steps) == 2 * (2 * 4 + 2)
        tg.validate()

    def test_volumes(self):
        tg = families.nbody(7, volume=3.0)
        assert tg.comm_phase("ring").total_volume == 21.0


class TestMeshTorus:
    def test_mesh_interior_degree(self):
        tg = families.mesh(3, 3)
        g = tg.static_graph()
        assert g.degree(4) == 4  # centre cell
        assert g.degree(0) == 2  # corner

    def test_mesh_edge_count(self):
        tg = families.mesh(4, 5)
        g = tg.static_graph()
        assert g.number_of_edges() == 4 * 4 + 3 * 5

    def test_torus_uniform_degree(self):
        tg = families.torus(3, 4)
        g = tg.static_graph()
        assert all(d == 4 for _, d in g.degree())

    def test_torus_phases_are_bijections(self):
        tg = families.torus(3, 3)
        for name in tg.comm_phases:
            fn = tg.comm_function(name)
            assert fn is not None
            assert sorted(fn.values()) == list(range(9))

    def test_mesh_validates(self):
        families.mesh(2, 2).validate()


class TestHypercube:
    def test_counts(self):
        tg = families.hypercube(3)
        assert tg.n_tasks == 8
        assert len(tg.comm_phases) == 3
        assert tg.n_edges == 24

    def test_static_is_hypercube(self):
        tg = families.hypercube(3)
        assert nx.is_isomorphic(tg.static_graph(), nx.hypercube_graph(3))

    def test_dim_zero(self):
        tg = families.hypercube(0)
        assert tg.n_tasks == 1 and tg.n_edges == 0

    def test_phases_are_involutions(self):
        tg = families.hypercube(4)
        for name in tg.comm_phases:
            fn = tg.comm_function(name)
            assert all(fn[fn[i]] == i for i in fn)


class TestTrees:
    def test_full_binary_tree_sizes(self):
        for depth in range(5):
            tg = families.full_binary_tree(depth)
            assert tg.n_tasks == 2 ** (depth + 1) - 1
            g = tg.static_graph()
            assert nx.is_tree(g)

    def test_binomial_tree_is_tree(self):
        for k in range(7):
            tg = families.binomial_tree(k)
            assert tg.n_tasks == 2**k
            g = tg.static_graph()
            assert nx.is_tree(g)

    def test_binomial_root_degree(self):
        # The root of B_k has k children.
        tg = families.binomial_tree(5)
        divide = tg.phase_digraph("divide")
        assert divide.out_degree(0) == 5

    def test_binomial_edges_flip_one_bit(self):
        tg = families.binomial_tree(6)
        for u, v in tg.comm_phase("divide").pairs():
            assert bin(u ^ v).count("1") == 1

    def test_binomial_children_rule(self):
        # Children of x are x | 2^j for j below x's lowest set bit.
        tg = families.binomial_tree(4)
        divide = tg.phase_digraph("divide")
        assert sorted(divide.successors(4)) == [5, 6]
        assert sorted(divide.successors(8)) == [9, 10, 12]
        assert list(divide.successors(1)) == []


class TestOthers:
    def test_fft_butterfly_stage_count(self):
        tg = families.fft_butterfly(16)
        assert len(tg.comm_phases) == 4
        tg.validate()

    def test_fft_butterfly_requires_power_of_two(self):
        with pytest.raises(ValueError):
            families.fft_butterfly(12)

    def test_complete_edge_count(self):
        tg = families.complete(6)
        assert tg.n_edges == 30

    def test_star_structure(self):
        tg = families.star(5)
        assert tg.comm_phase("broadcast").pairs() == [(0, i) for i in range(1, 5)]
        assert tg.comm_phase("gather").pairs() == [(i, 0) for i in range(1, 5)]

    def test_linear_chain(self):
        tg = families.linear(4)
        g = tg.static_graph()
        assert nx.is_tree(g) and g.degree(0) == 1 and g.degree(1) == 2

    def test_all_families_validate(self):
        graphs = [
            families.ring(6),
            families.nbody(7),
            families.linear(5),
            families.mesh(3, 4),
            families.torus(3, 3),
            families.hypercube(3),
            families.full_binary_tree(3),
            families.binomial_tree(4),
            families.fft_butterfly(8),
            families.complete(4),
            families.star(5),
        ]
        for tg in graphs:
            tg.validate()
            assert tg.family is not None


class TestRandomGeometric:
    def test_deterministic_for_seed(self):
        a = families.random_geometric(120, seed=5)
        b = families.random_geometric(120, seed=5)
        assert a.family == b.family == ("random_geometric", (120, a.family[1][1], 5))
        assert a.comm_phase("exchange").pairs() == b.comm_phase("exchange").pairs()

    def test_seed_changes_edges(self):
        a = families.random_geometric(120, seed=1)
        b = families.random_geometric(120, seed=2)
        assert a.comm_phase("exchange").pairs() != b.comm_phase("exchange").pairs()

    def test_structure_and_validation(self):
        tg = families.random_geometric(200, seed=0)
        tg.validate()
        assert tg.n_tasks == 200
        assert set(tg.comm_phases) == {"exchange"}
        # default radius targets expected degree ~8; allow wide slack
        mean_deg = 2 * tg.n_edges / tg.n_tasks
        assert 3.0 < mean_deg < 16.0

    def test_explicit_radius_and_volume(self):
        tg = families.random_geometric(50, 0.3, seed=4, volume=2.5)
        assert tg.family == ("random_geometric", (50, 0.3, 4))
        assert all(e.volume == 2.5 for e in tg.comm_phase("exchange").edges)

    def test_edges_sorted_and_unique(self):
        tg = families.random_geometric(150, seed=9)
        pairs = tg.comm_phase("exchange").pairs()
        assert all(u < v for u, v in pairs)
        assert pairs == sorted(pairs)
        assert len(set(pairs)) == len(pairs)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            families.random_geometric(0)

    @pytest.mark.parametrize("radius", [0.0, -0.1, float("nan"), float("-inf")])
    def test_invalid_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            families.random_geometric(10, radius)

    @pytest.mark.parametrize("radius", [float("inf"), 2**0.5, 1.5, 3.0])
    def test_wide_radius_gives_every_pair(self, radius):
        n = 25
        pairs = families.random_geometric(n, radius, seed=3).comm_phase("exchange").pairs()
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]

    def test_tiny_radius_gives_no_pair(self):
        tg = families.random_geometric(500, 1e-300, seed=1)
        assert tg.n_edges == 0 and tg.family == ("random_geometric", (500, 1e-300, 1))
        points = np.random.default_rng(0).random((400, 2))
        points[1] = points[0]  # a duplicate is at distance 0 <= any radius
        for radius in (1e-300, 5e-324):
            got = families._radius_pairs(points, radius)
            assert got.tolist() == [[0, 1]] and got.dtype == np.intp

    @pytest.mark.parametrize("label", sorted(_PINNED))
    def test_same_graphs_as_the_kd_tree_query(self, label):
        """``tests/data/rgg_pr28.json`` was captured by
        ``tests/data/capture_rgg.py`` before the grid replaced cKDTree."""
        assert capture_rgg.capture_instance(label) == _PINNED[label]


def _radius_cases():
    for n in (1, 2, 3, 60, 150, 2000, 10_000):
        default = float(np.sqrt(8.0 / (np.pi * n)))
        for seed in (0, 1, 7):
            for radius in (default, 0.05, 0.3, 1.5):
                if n * n * radius * radius <= 4e5:  # keep the pair lists small
                    yield n, seed, radius


class TestRadiusPairs:
    """``_radius_pairs`` against the cKDTree query it replaced."""

    @staticmethod
    def check(points, radius):
        got = families._radius_pairs(points, radius)
        want = radius_pairs_reference(points, radius)
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("n, seed, radius", list(_radius_cases()))
    def test_uniform_points(self, n, seed, radius):
        self.check(np.random.default_rng(seed).random((n, 2)), radius)

    @pytest.mark.parametrize("radius", [0.05, 0.1, 0.125, 0.2, 0.25, 1 / 3])
    def test_lattice_points_on_the_radius(self, radius):
        """Neighbours *radius* apart in exact arithmetic, so the rounded
        distance test alone decides them; then each point doubled."""
        k = round(1 / radius)
        lattice = np.array([
            (i * radius, j * radius) for i in range(k) for j in range(k)
            if i * radius < 1 and j * radius < 1
        ])
        assert len(self.check(lattice, radius)) > 0
        self.check(np.concatenate((lattice, lattice + 1e-17)), radius)

    def test_duplicate_points(self):
        points = np.random.default_rng(5).random((300, 2))
        points = np.concatenate((points, points[:100], points[:10]))
        got = self.check(points, 0.05)
        assert {(0, 300), (0, 400), (300, 400)} <= set(map(tuple, got.tolist()))


class TestKron:
    def test_deterministic_for_seed(self):
        a = families.kron(7, seed=3)
        b = families.kron(7, seed=3)
        assert a.comm_phase("exchange").pairs() == b.comm_phase("exchange").pairs()
        assert a.family == ("kron", (7, 16, 3))

    def test_shape(self):
        tg = families.kron(8, edge_factor=8, seed=0)
        tg.validate()
        assert tg.n_tasks == 256
        # duplicates fold, self-loops drop: fewer pairs than raw samples
        assert 0 < tg.n_edges <= 8 * 256

    def test_duplicate_samples_fold_into_volume(self):
        tg = families.kron(5, edge_factor=32, seed=1, volume=1.0)
        vols = [e.volume for e in tg.comm_phase("exchange").edges]
        assert any(v > 1.0 for v in vols)  # R-MAT repeats hub edges
        assert all(float(v).is_integer() for v in vols)

    def test_no_self_loops(self):
        tg = families.kron(6, seed=2)
        assert all(u != v for u, v in tg.comm_phase("exchange").pairs())

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            families.kron(-1)
        with pytest.raises(ValueError):
            families.kron(4, edge_factor=0)

    @pytest.mark.parametrize("label", sorted(_PINNED_KRON))
    def test_same_graphs_as_numpy_generator(self, label):
        """``tests/data/kron.json`` was captured by
        ``tests/data/capture_kron.py`` while kron still drew from
        ``numpy.random.default_rng``."""
        assert capture_kron.capture_instance(label) == _PINNED_KRON[label]


@pytest.mark.parametrize("seed", [None, -1, 1.0, 2.5, True, False], ids=repr)
@pytest.mark.parametrize("build", [
    lambda seed: families.random_geometric(50, seed=seed),
    lambda seed: families.random_geometric(50, 0.3, seed=seed),
    lambda seed: families.kron(4, seed=seed),
    lambda seed: families.kron(0, seed=seed),
], ids=["random_geometric", "rgg/radius", "kron", "kron0"])
def test_seed_must_be_a_non_negative_int(build, seed):
    """``seed=None`` once built a different graph per call under one family
    tag; a float or a bool would tag the graph with a non-int seed."""
    with pytest.raises((ValueError, TypeError), match="seed"):
        build(seed)


@pytest.mark.parametrize("build", [
    lambda: families.random_geometric(2000, seed=1),
    lambda: families.kron(10, seed=0),
], ids=["random_geometric", "kron"])
def test_edges_hold_the_node_label_objects(build):
    """Every edge endpoint is the task graph's own label object, not a
    fresh int per edge (ints above 256 are separate objects per call)."""
    tg = build()
    labels = {id(t) for t in tg.nodes}
    edges = tg.comm_phase("exchange").edges
    assert max(tg.nodes) > 256 and edges
    assert all(id(e.src) in labels and id(e.dst) in labels for e in edges)
