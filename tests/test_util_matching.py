"""Tests for the matching substrate (repro.util.matching)."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from tests.data.capture_matching_corpus import CONTRACTIONS, nx_matching

from repro.mapper.contraction import mwm_contract
from repro.util.matching import blossom_matching
from tests.oracles.matching import (
    exact_max_weight_matching,
    greedy_maximal_matching,
    is_matching,
    is_maximal_matching,
    matching_weight,
    max_weight_matching,
)


def small_weighted_graphs():
    """Hypothesis strategy: random weighted graphs with <= 8 nodes, <= 14 edges."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=8))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(
            st.lists(st.sampled_from(possible), min_size=1, max_size=min(14, len(possible)), unique=True)
        )
        weights = draw(
            st.lists(
                st.integers(min_value=0, max_value=50),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
        return {e: float(w) for e, w in zip(edges, weights)}

    return build()


class TestGreedyMaximalMatching:
    def test_path_graph(self):
        m = greedy_maximal_matching([(0, 1), (1, 2), (2, 3)])
        assert is_matching(m)
        assert is_maximal_matching(m, [(0, 1), (1, 2), (2, 3)])

    def test_priority_prefers_heavy_edges(self):
        edges = [(0, 1), (1, 2)]
        m = greedy_maximal_matching(edges, priority={(1, 2): 10.0, (0, 1): 1.0})
        assert m == {(1, 2)}

    def test_self_loops_skipped(self):
        assert greedy_maximal_matching([(0, 0), (0, 1)]) == {(0, 1)}

    def test_empty(self):
        assert greedy_maximal_matching([]) == set()

    @given(small_weighted_graphs())
    def test_always_maximal(self, weights):
        edges = list(weights)
        m = greedy_maximal_matching(edges, priority=weights)
        assert is_matching(m)
        assert is_maximal_matching(m, edges)


class TestMaxWeightMatching:
    def test_triangle_takes_heaviest_edge(self):
        weights = {(0, 1): 5.0, (1, 2): 3.0, (0, 2): 4.0}
        m = max_weight_matching(weights)
        assert m == {(0, 1)}

    def test_square_takes_opposite_pair(self):
        weights = {(0, 1): 10.0, (1, 2): 1.0, (2, 3): 10.0, (3, 0): 1.0}
        m = max_weight_matching(weights)
        assert m == {(0, 1), (2, 3)}

    def test_maxcardinality_forces_pairing(self):
        # Without maxcardinality, the heavy edge alone wins; with it, two
        # edges must be chosen.
        weights = {(0, 1): 100.0, (1, 2): 1.0, (0, 3): 1.0, (2, 3): 0.0}
        m = max_weight_matching(weights, maxcardinality=True)
        assert len(m) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            max_weight_matching({(0, 0): 1.0})

    @settings(max_examples=60, deadline=None)
    @given(small_weighted_graphs())
    def test_agrees_with_exhaustive_search(self, weights):
        m = max_weight_matching(weights)
        exact = exact_max_weight_matching(weights)
        assert is_matching(m)
        assert matching_weight(m, weights) == pytest.approx(
            matching_weight(exact, weights)
        )


def nx_max_weight_matching(edges, *, maxcardinality=False):
    """The oracle: :func:`max_weight_matching` as it was when it deferred to
    networkx (float weights, solver pairs re-added in their *edges*
    orientation)."""
    mate = nx_matching(
        ((u, v, w) for (u, v), w in edges.items()), maxcardinality=maxcardinality
    )
    result = set()
    for u, v in mate:
        result.add((u, v) if (u, v) in edges else (v, u))
    return result


#: How the differential graphs draw their weights.
WEIGHTS = {
    "zero": lambda rng: 0.0 if rng.random() < 0.9 else float(rng.randint(1, 3)),
    "ties": lambda rng: rng.randint(0, 2),
    "heavy_ties": lambda rng: rng.choice([5, 5, 5, 7]),
    "int": lambda rng: rng.randint(0, 50),
    "float": lambda rng: rng.uniform(0.0, 10.0),
}
#: Vertex labels: ints, strings, tuples (any hashable must do).
LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i // 5, i % 5),
}


def random_edges(rng, n, density, weight, label=LABELS["int"]):
    """A seeded graph on up to *n* vertices as an ``edges`` dict, pairs in
    shuffled order and random orientation."""
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if rng.random() < density
    ]
    rng.shuffle(pairs)
    return {
        ((label(v), label(u)) if rng.random() < 0.3 else (label(u), label(v))):
            weight(rng)
        for u, v in pairs
    }


class TestKernelAgainstNetworkx:
    """The in-tree kernel returns networkx's matching, pair for pair, in a
    set that iterates in networkx's order (MWM-Contract merges in it)."""

    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("maxcardinality", [False, True])
    def test_random_graphs(self, weights, maxcardinality):
        rng = random.Random(f"{weights}/{maxcardinality}")
        for trial in range(60):
            n = rng.randint(2, 45)  # odd and even vertex counts
            density = rng.choice([0.05, 0.15, 0.4, 1.0])  # 0.05: disconnected
            label = LABELS[sorted(LABELS)[trial % 3]]
            edges = random_edges(rng, n, density, WEIGHTS[weights], label)
            got = max_weight_matching(edges, maxcardinality=maxcardinality)
            want = nx_max_weight_matching(edges, maxcardinality=maxcardinality)
            assert got == want
            assert list(got) == list(want)

    def test_dense_zero_weight_pair_set(self):
        """The shape MWM-Contract's shrinking rounds feed the matcher: every
        pair a candidate, almost all of weight zero, maximum cardinality."""
        rng = random.Random(2)
        for n in (9, 24, 61):
            edges = random_edges(rng, n, 1.0, WEIGHTS["zero"])
            got = max_weight_matching(edges, maxcardinality=True)
            assert len(got) == n // 2
            assert list(got) == list(nx_max_weight_matching(edges, maxcardinality=True))

    def test_both_orientations_later_weight_wins(self):
        edges = {(0, 1): 1.0, (1, 2): 5.0, (2, 3): 1.0, (2, 1): 0.5, (0, 3): 1.0}
        got = max_weight_matching(edges)
        assert list(got) == list(nx_max_weight_matching(edges))
        assert matching_weight(got, {(0, 1): 1.0, (2, 3): 1.0}) == 2.0

    def test_empty(self):
        assert max_weight_matching({}) == set()
        assert blossom_matching([], maxcardinality=True) == set()

    @pytest.mark.parametrize("maxcardinality", [False, True])
    def test_weight_optimal(self, maxcardinality):
        """Independent of networkx: the exhaustive matcher agrees on weight
        (among maximum-cardinality matchings when that is asked for)."""
        rng = random.Random(5)
        for _ in range(150):
            edges = random_edges(
                rng, rng.randint(2, 9), rng.choice([0.4, 0.8]),
                WEIGHTS[rng.choice(["ties", "int", "float"])],
            )
            edges = dict(list(edges.items())[:24])
            if not edges:
                continue
            got = max_weight_matching(edges, maxcardinality=maxcardinality)
            assert is_matching(got)
            if maxcardinality:
                # Lift every weight by more than the total: the heaviest
                # matching is then a largest one, heaviest among those.
                lift = sum(edges.values()) + 1.0
                exact = exact_max_weight_matching(
                    {e: w + lift for e, w in edges.items()}
                )
                assert len(got) == len(exact)
            else:
                exact = exact_max_weight_matching(edges)
            assert matching_weight(got, edges) == pytest.approx(
                matching_weight(exact, edges)
            )


CORPUS = json.loads(
    (Path(__file__).parent / "data" / "matching_corpus.json").read_text()
)


class TestRecordedCorpus:
    """The tie-breaking pinned without consulting the installed networkx:
    ``tests/data/matching_corpus.json`` holds what networkx returned, in
    iteration order, when ``capture_matching_corpus.py`` was run."""

    @pytest.mark.parametrize(
        "instance", CORPUS["instances"], ids=lambda inst: inst["name"]
    )
    def test_kernel_reproduces_recorded_matching(self, instance):
        got = blossom_matching(
            instance["edges"], maxcardinality=instance["maxcardinality"]
        )
        assert [list(e) for e in got] == instance["matched"]

    @pytest.mark.parametrize(
        "recorded", CORPUS["contractions"], ids=lambda rec: rec["name"]
    )
    def test_mwm_contract_returns_recorded_clusters(self, recorded):
        build = {name: build for name, build, _, _ in CONTRACTIONS}[recorded["name"]]
        clusters = mwm_contract(
            build(), recorded["n_procs"], load_bound=recorded["load_bound"]
        )
        assert json.loads(json.dumps(clusters)) == recorded["clusters"]


class TestExactMatcher:
    def test_refuses_large_inputs(self):
        weights = {(0, i): 1.0 for i in range(1, 26)}
        with pytest.raises(ValueError):
            exact_max_weight_matching(weights)

    def test_simple(self):
        assert exact_max_weight_matching({(0, 1): 2.0}) == {(0, 1)}


class TestPredicates:
    def test_is_matching_rejects_shared_vertex(self):
        assert not is_matching([(0, 1), (1, 2)])

    def test_is_matching_rejects_self_loop(self):
        assert not is_matching([(0, 0)])

    def test_matching_weight_orientation_free(self):
        weights = {(0, 1): 3.0}
        assert matching_weight([(1, 0)], weights) == 3.0

    def test_matching_weight_unknown_edge(self):
        with pytest.raises(KeyError):
            matching_weight([(0, 2)], {(0, 1): 3.0})

    def test_is_maximal_rejects_non_matching(self):
        assert not is_maximal_matching([(0, 1), (1, 2)], [(0, 1), (1, 2)])

    def test_is_maximal_detects_augmentable(self):
        assert not is_maximal_matching([(0, 1)], [(0, 1), (2, 3)])
