"""Tests for the contraction algorithms (MWM-Contract, group, baselines)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import TaskGraph, families
from repro.graph.paper_examples import (
    FIG5_LOAD_BOUND,
    FIG5_OPTIMAL_IPC,
    FIG5_PROCESSORS,
    fig5_task_graph,
)
from repro.larcs import stdlib
from repro.mapper.contraction import (
    bfs_contract,
    group_contract,
    mwm_contract,
    random_contract,
    total_ipc,
)
from repro.mapper.mapping import NotApplicableError
from repro.util import perf


def check_contraction(tg, clusters, n_procs, bound):
    """Structural invariants every contraction must satisfy."""
    assert len(clusters) <= n_procs
    flat = [t for c in clusters for t in c]
    assert sorted(flat, key=repr) == sorted(tg.nodes, key=repr)
    assert all(1 <= len(c) <= bound for c in clusters)


def random_task_graphs():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=14))
        tg = TaskGraph("rand")
        tg.add_nodes(range(n))
        ph = tg.add_comm_phase("c")
        n_edges = draw(st.integers(min_value=0, max_value=2 * n))
        for _ in range(n_edges):
            u = draw(st.integers(0, n - 1))
            v = draw(st.integers(0, n - 1))
            if u != v:
                ph.add(u, v, float(draw(st.integers(1, 9))))
        p = draw(st.integers(min_value=1, max_value=n))
        return tg, p

    return build()


class TestMwmContractFig5:
    def test_reproduces_optimal_ipc_6(self):
        tg = fig5_task_graph()
        clusters = mwm_contract(tg, FIG5_PROCESSORS, load_bound=FIG5_LOAD_BOUND)
        check_contraction(tg, clusters, FIG5_PROCESSORS, FIG5_LOAD_BOUND)
        assert total_ipc(tg, clusters) == FIG5_OPTIMAL_IPC

    def test_recovers_intended_clusters(self):
        clusters = mwm_contract(fig5_task_graph(), 3, load_bound=4)
        got = sorted(sorted(c) for c in clusters)
        assert got == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]

    def test_weight15_edge_crosses_no_cluster(self):
        # The contraction internalises the rejected edge at the matching
        # stage: 1 and 2 end up together even though the greedy stage
        # refused the merge.
        clusters = mwm_contract(fig5_task_graph(), 3, load_bound=4)
        owner = {t: i for i, c in enumerate(clusters) for t in c}
        assert owner[1] == owner[2]


class TestMwmContractGeneral:
    def test_n_leq_p_keeps_singletons(self):
        tg = families.ring(4)
        clusters = mwm_contract(tg, 8)
        assert sorted(map(tuple, clusters)) == [(0,), (1,), (2,), (3,)]

    def test_two_tasks_one_proc(self):
        tg = families.ring(2)
        clusters = mwm_contract(tg, 1)
        assert clusters == [[0, 1]]

    def test_ring_contraction_is_contiguous_quality(self):
        # MWM on a uniform ring should never be worse than cutting n edges
        # and always cuts at least P edges.
        tg = families.ring(16)
        clusters = mwm_contract(tg, 4)
        ipc = total_ipc(tg, clusters)
        assert 4 <= ipc <= 16

    def test_respects_explicit_bound(self):
        tg = families.complete(8)
        clusters = mwm_contract(tg, 4, load_bound=2)
        check_contraction(tg, clusters, 4, 2)

    def test_infeasible_bound_rejected(self):
        with pytest.raises(ValueError):
            mwm_contract(families.ring(8), 2, load_bound=3)

    def test_invalid_procs(self):
        with pytest.raises(ValueError):
            mwm_contract(families.ring(4), 0)

    def test_empty_graph(self):
        assert mwm_contract(TaskGraph(), 3) == []

    def test_disconnected_graph(self):
        tg = TaskGraph()
        tg.add_nodes(range(8))
        ph = tg.add_comm_phase("c")
        ph.add(0, 1, 5.0)
        ph.add(2, 3, 5.0)  # 4 isolated tasks besides
        clusters = mwm_contract(tg, 2)
        check_contraction(tg, clusters, 2, 4)

    def test_beats_or_matches_random_on_structure(self):
        tg = stdlib.load("jacobi", rows=6, cols=6)
        p = 4
        mwm_ipc = total_ipc(tg, mwm_contract(tg, p))
        rand_ipc = total_ipc(tg, random_contract(tg, p, seed=1))
        assert mwm_ipc <= rand_ipc

    @settings(max_examples=40, deadline=None)
    @given(random_task_graphs())
    def test_invariants_on_random_graphs(self, case):
        tg, p = case
        bound = math.ceil(tg.n_tasks / p)
        clusters = mwm_contract(tg, p)
        check_contraction(tg, clusters, p, bound)

    @settings(max_examples=25, deadline=None)
    @given(random_task_graphs())
    def test_never_worse_than_random_baseline(self, case):
        tg, p = case
        mwm_ipc = total_ipc(tg, mwm_contract(tg, p))
        base = min(
            total_ipc(tg, random_contract(tg, p, seed=s)) for s in range(3)
        )
        # Heuristic: with near-full load bounds a lucky random draw can win
        # by an edge or two, but MWM must never lose badly.
        assert mwm_ipc <= base + max(2.0, tg.total_volume() * 0.5)


class TestMwmMatchingIsVisible:
    """Stage 2 reports itself: a ``mapper.mwm.match`` span per round and
    counters for rounds, dense rounds and candidate pairs."""

    @staticmethod
    def mwm_counters():
        return {
            name.removeprefix("mapper.mwm."): value
            for name, value in perf.counters().items()
            if name.startswith("mapper.mwm.")
        }

    def test_dense_round(self):
        # 16 tasks pre-merge to 2P = 8 pairs; all C(8, 2) pairings compete.
        perf.reset()
        mwm_contract(families.ring(16), 4)
        assert self.mwm_counters() == {
            "rounds": 1, "dense_rounds": 1, "candidate_pairs": 28,
        }
        spans = perf.stats()
        assert spans["mapper.mwm.match"].calls == 1
        assert (
            spans["mapper.mwm.match"].total <= spans["mapper.mwm_contract"].total
        )

    def test_adjacent_round(self):
        # n <= P: only the ring's 16 adjacent pairs are candidates.
        perf.reset()
        mwm_contract(families.ring(16), 16, load_bound=2)
        assert self.mwm_counters() == {
            "rounds": 1, "dense_rounds": 0, "candidate_pairs": 16,
        }

    def test_portfolio_pays_for_the_contraction_twice(self):
        """``mwm`` and ``mwm+refine`` each run the same contraction (shown
        here so that sharing it can be measured when it is done)."""
        from repro.arch import networks
        from repro.mapper import map_computation, run_portfolio

        tg = families.random_geometric(60, seed=3)
        perf.reset()
        map_computation(tg, networks.hypercube(3), strategy="mwm")
        once = self.mwm_counters()
        perf.reset()
        run_portfolio(tg, networks.hypercube(3))
        assert self.mwm_counters() == {k: 2 * v for k, v in once.items()}


class TestGroupContract:
    def test_fig4_example(self):
        tg = stdlib.load("voting", m=3)
        gc = group_contract(tg, 4)
        assert sorted(map(sorted, gc.clusters)) == [[0, 4], [1, 5], [2, 6], [3, 7]]
        assert gc.normal
        assert gc.internalized == {"hop[0]": 0, "hop[1]": 0, "hop[2]": 2}

    def test_fig4_subgroup_is_e0_e4(self):
        tg = stdlib.load("voting", m=3)
        gc = group_contract(tg, 4)
        assert sorted(str(g) for g in gc.subgroup) == [
            "(0)(1)(2)(3)(4)(5)(6)(7)",
            "(04)(15)(26)(37)",
        ]

    def test_perfect_balance_always(self):
        tg = stdlib.load("voting", m=4)  # 16 tasks
        for p in (2, 4, 8):
            gc = group_contract(tg, p)
            assert len(gc.clusters) == p
            assert all(len(c) == 16 // p for c in gc.clusters)

    def test_ring_contraction_is_striped(self):
        # Z_12 has a unique subgroup of order 3, <g^4>, whose cosets are the
        # "striped" clusters {x, x+4, x+8}: perfectly balanced, and the
        # quotient is a 4-ring of clusters, but no ring edge is internal
        # (an edge a -> a*g is internal iff g is in H, and g is not).
        tg = families.ring(12)
        gc = group_contract(tg, 4)
        assert len(gc.clusters) == 4
        assert all(len(c) == 3 for c in gc.clusters)
        assert sorted(map(sorted, gc.clusters)) == [
            [0, 4, 8],
            [1, 5, 9],
            [2, 6, 10],
            [3, 7, 11],
        ]
        assert gc.internalized["ring"] == 0
        # The quotient graph is a directed 4-cycle.
        assert len(gc.quotient_edges["ring"]) == 4

    def test_nbody_is_applicable(self):
        tg = families.nbody(15)
        gc = group_contract(tg, 5)
        assert len(gc.clusters) == 5 and all(len(c) == 3 for c in gc.clusters)

    def test_hypercube_phases(self):
        tg = families.hypercube(3)
        gc = group_contract(tg, 4)
        assert len(gc.clusters) == 4
        # Exactly one dimension becomes internal in each cluster.
        assert sum(v for v in gc.internalized.values()) == 2

    def test_non_divisor_rejected(self):
        with pytest.raises(NotApplicableError):
            group_contract(families.ring(8), 3)

    def test_non_bijection_rejected(self):
        with pytest.raises(NotApplicableError):
            group_contract(families.star(8), 2)

    def test_non_cayley_rejected(self):
        with pytest.raises(NotApplicableError):
            group_contract(families.full_binary_tree(2), 1)

    def test_trivial_contraction(self):
        tg = families.ring(6)
        gc = group_contract(tg, 6)
        assert all(len(c) == 1 for c in gc.clusters)

    def test_require_normal(self):
        tg = stdlib.load("voting", m=3)
        gc = group_contract(tg, 2, require_normal=True)
        assert gc.normal and len(gc.clusters) == 2

    def test_quotient_edges_consistent(self):
        tg = stdlib.load("voting", m=3)
        gc = group_contract(tg, 4)
        for name, edges in gc.quotient_edges.items():
            for i, j in edges:
                assert 0 <= i < 4 and 0 <= j < 4 and i != j


class TestBaselines:
    def test_random_respects_bound(self):
        tg = families.ring(10)
        clusters = random_contract(tg, 3, seed=7)
        check_contraction(tg, clusters, 3, 4)

    def test_random_deterministic_per_seed(self):
        tg = families.ring(10)
        assert random_contract(tg, 3, seed=5) == random_contract(tg, 3, seed=5)

    def test_bfs_blocks_are_local_on_chain(self):
        tg = families.linear(12)
        clusters = bfs_contract(tg, 3)
        # BFS order on a chain is the chain itself: contiguous blocks.
        assert sorted(map(sorted, clusters)) == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9, 10, 11],
        ]

    def test_bfs_handles_disconnected(self):
        tg = TaskGraph()
        tg.add_nodes(range(6))
        tg.add_comm_phase("c").add(0, 1)
        clusters = bfs_contract(tg, 2)
        check_contraction(tg, clusters, 2, 3)

    def test_infeasible_bounds_rejected(self):
        with pytest.raises(ValueError):
            random_contract(families.ring(8), 2, load_bound=3)
        with pytest.raises(ValueError):
            bfs_contract(families.ring(8), 0)
