"""Tests for the network constructors (repro.arch.networks, cayley_networks)."""

import math

import networkx as nx
import pytest

from repro.arch import networks
from repro.arch.cayley_networks import pancake, transposition_star
from repro.groups import Permutation, PermutationGroup
from repro.arch.cayley_networks import cayley_topology


class TestBasicFamilies:
    def test_ring_sizes(self):
        for n in (1, 2, 3, 8):
            t = networks.ring(n)
            assert t.n_processors == n
            assert t.n_links == (0 if n == 1 else (1 if n == 2 else n))

    def test_linear(self):
        t = networks.linear(5)
        assert t.n_links == 4
        assert t.diameter == 4

    def test_mesh_structure(self):
        t = networks.mesh(3, 4)
        assert t.n_processors == 12
        assert t.n_links == 3 * 3 + 2 * 4
        assert nx.is_isomorphic(t.graph, nx.grid_2d_graph(3, 4))

    def test_torus_degree(self):
        t = networks.torus(3, 3)
        assert all(t.degree(p) == 4 for p in t.processors)

    def test_torus_degenerate_rows(self):
        # A 1 x n torus degenerates to a ring without duplicate links.
        t = networks.torus(1, 5)
        assert t.n_links == 5

    def test_hypercube_matches_networkx(self):
        t = networks.hypercube(4)
        assert nx.is_isomorphic(t.graph, nx.hypercube_graph(4))

    def test_complete(self):
        t = networks.complete(6)
        assert t.n_links == 15

    def test_star(self):
        t = networks.star(7)
        assert t.degree(0) == 6
        assert t.diameter == 2

    def test_tree(self):
        t = networks.full_binary_tree(3)
        assert t.n_processors == 15
        assert nx.is_tree(t.graph)

    def test_family_tags(self):
        assert networks.mesh(2, 2).family == ("mesh", (2, 2))
        assert networks.hypercube(3).family == ("hypercube", (3,))


class TestSpecGrammar:
    SPECS = [
        "ring:1", "ring:6", "linear:5", "mesh:3x4", "torus:2,5", "torus:1x1",
        "hypercube:0", "hypercube:5", "complete:4", "star:7", "tree:0",
        "tree:3", "ccc:1", "ccc:3", "butterfly:1", "butterfly:3",
        "fat_tree:4", "fat_tree:2x3x2", "dragonfly:3x4", "dragonfly:5x1",
        "node_core_tree:2x4", "node_core_tree:1x3",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_spec_processors_is_what_parse_topology_builds(self, spec):
        built = networks.parse_topology(spec)
        assert networks.spec_processors(spec) == built.n_processors

    def test_every_family_is_covered(self):
        families = {spec.partition(":")[0] for spec in self.SPECS}
        assert families == set(networks._TOPOLOGY_BUILDERS)

    def test_counting_builds_nothing_and_saturates(self):
        assert networks.spec_processors("hypercube:30") == 2 ** 30
        assert networks.spec_processors("mesh:100000x100000") == 10 ** 10
        assert networks.spec_processors("hypercube:1000000000") == 2 ** 62

    def test_count_and_build_refuse_the_same_specs(self):
        # a wrong number of sizes too: mesh:4x4x9 once built mesh4x4
        for spec, needle in [("blob:3", "unknown topology"),
                             ("mesh:4", "bad topology spec"),
                             ("ring:x", "bad topology spec"),
                             ("mesh:4x4x9", "bad topology spec"),
                             ("hypercube:3x100", "bad topology spec"),
                             ("ring:8x3", "bad topology spec"),
                             ("dragonfly:3", "bad topology spec"),
                             ("node_core_tree:2x4x8", "bad topology spec"),
                             ("fat_tree:", "bad topology spec")]:
            for fn in (networks.parse_topology, networks.spec_processors):
                with pytest.raises(ValueError, match=needle):
                    fn(spec)


class TestCCCButterfly:
    def test_ccc_size_and_degree(self):
        t = networks.cube_connected_cycles(3)
        assert t.n_processors == 3 * 8
        assert all(t.degree(p) == 3 for p in t.processors)

    def test_ccc_dim_one(self):
        t = networks.cube_connected_cycles(1)
        assert t.n_processors == 2 and t.n_links == 1

    def test_butterfly_size(self):
        t = networks.butterfly(3)
        assert t.n_processors == 4 * 8
        # Interior levels have degree 4, boundary levels degree 2.
        degs = sorted(t.degree(p) for p in t.processors)
        assert degs[0] == 2 and degs[-1] == 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            networks.cube_connected_cycles(0)
        with pytest.raises(ValueError):
            networks.butterfly(0)
        with pytest.raises(ValueError):
            networks.hypercube(-1)


class TestDeBruijnShuffleExchange:
    def test_de_bruijn_size_and_diameter(self):
        for dim in (2, 3, 4):
            t = networks.de_bruijn(dim)
            assert t.n_processors == 1 << dim
            # Any label reachable in dim shift steps.
            assert t.diameter <= dim

    def test_de_bruijn_degree_bounded(self):
        t = networks.de_bruijn(4)
        assert all(t.degree(p) <= 4 for p in t.processors)

    def test_shuffle_exchange_structure(self):
        t = networks.shuffle_exchange(3)
        assert t.n_processors == 8
        # Exchange edges pair even/odd labels.
        assert t.has_link(0, 1) and t.has_link(6, 7)
        # Shuffle edge: 3 = 011 -> 110 = 6.
        assert t.has_link(3, 6)

    def test_shuffle_exchange_degree_bounded(self):
        t = networks.shuffle_exchange(4)
        assert all(t.degree(p) <= 3 for p in t.processors)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            networks.de_bruijn(0)
        with pytest.raises(ValueError):
            networks.shuffle_exchange(0)

    def test_usable_as_mapping_targets(self):
        from repro.graph import families
        from repro.mapper import map_computation

        for topo in (networks.de_bruijn(3), networks.shuffle_exchange(3)):
            m = map_computation(families.ring(16), topo, strategy="mwm")
            m.validate(require_routes=True)


class TestCayleyNetworks:
    def test_star_graph_s3_is_ring6(self):
        # ST_3 is a 6-cycle.
        t = transposition_star(3)
        assert t.n_processors == 6
        assert nx.is_isomorphic(t.graph, nx.cycle_graph(6))

    def test_star_graph_degree(self):
        t = transposition_star(4)
        assert t.n_processors == 24
        assert all(t.degree(p) == 3 for p in t.processors)

    def test_star_graph_diameter(self):
        # Known: diameter of ST_n is floor(3(n-1)/2).
        assert transposition_star(4).diameter == math.floor(3 * 3 / 2)

    def test_pancake_degree(self):
        t = pancake(4)
        assert t.n_processors == 24
        assert all(t.degree(p) == 3 for p in t.processors)

    def test_pancake_p3_is_ring6(self):
        assert nx.is_isomorphic(pancake(3).graph, nx.cycle_graph(6))

    def test_generic_cayley_requires_inverse_closure(self):
        g = PermutationGroup.cyclic(5)
        gen = Permutation([(i + 1) % 5 for i in range(5)])
        with pytest.raises(ValueError):
            cayley_topology(g, [gen])  # inverse missing
        t = cayley_topology(g, [gen, gen.inverse()], name="c5")
        assert nx.is_isomorphic(t.graph, nx.cycle_graph(5))

    def test_identity_generator_rejected(self):
        g = PermutationGroup.cyclic(4)
        with pytest.raises(ValueError):
            cayley_topology(g, [g.identity()])

    def test_too_small(self):
        with pytest.raises(ValueError):
            transposition_star(1)
        with pytest.raises(ValueError):
            pancake(1)
