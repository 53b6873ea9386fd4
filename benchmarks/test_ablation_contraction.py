"""Ablation: the design choices inside Algorithm MWM-Contract.

DESIGN.md calls out three load-bearing choices in the contraction pipeline:

1. the greedy pre-merge caps clusters at **B/2** (not B) so the matching
   stage can always pair any two clusters;
2. the matching stage uses **maximum weight** matching (not greedy pairing);
3. the matching is **max-cardinality** when the cluster count must shrink.

Each variant is disabled here in turn and the IPC damage measured on the
Fig-5-style community workloads and random graphs.
"""

import random

import pytest

from repro.arch.capacity import CapacityContext
from repro.graph.taskgraph import TaskGraph
from repro.mapper.contraction import mwm_contract, total_ipc
from repro.mapper.contraction.mwm import (
    _ClusterState,
    _greedy_premerge_state,
    _pair_stream,
)
from tests.oracles.matching import greedy_maximal_matching, max_weight_matching


def random_weighted_graph(n, density, seed):
    rng = random.Random(seed)
    tg = TaskGraph(f"rand{n}")
    tg.add_nodes(range(n))
    ph = tg.add_comm_phase("c")
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                ph.add(u, v, float(rng.randint(1, 20)))
    return tg


def contract_variant(tg, n_procs, bound, *, cap_full_b, greedy_pairing):
    """MWM-Contract with ablation switches.

    cap_full_b: greedy stage caps clusters at B instead of B/2.
    greedy_pairing: the matching stage uses greedy maximal matching by
    descending weight instead of maximum weight matching.
    """
    state = _ClusterState(_pair_stream(tg.csr()), [{t} for t in tg.nodes])
    cap = bound if cap_full_b else bound / 2
    if len(state.clusters) > 2 * n_procs:
        fits = CapacityContext(None, tg).cluster_fits
        _greedy_premerge_state(state, 2 * n_procs, cap, fits)
    while len(state.clusters) > n_procs:
        clusters = state.clusters
        weights = state.weights()
        candidate = {}
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if len(clusters[i]) + len(clusters[j]) <= bound:
                    candidate[(i, j)] = weights.get((i, j), 0.0)
        if not candidate:
            break
        if greedy_pairing:
            mate = greedy_maximal_matching(list(candidate), priority=candidate)
        else:
            mate = max_weight_matching(candidate, maxcardinality=True)
        if not mate:
            break
        for i, j in mate:
            state.merge(i, j)
        state.compact()
    return [sorted(c) for c in state.clusters]


def community_graph(p):
    """The Fig-5 community pattern scaled to p communities of 4."""
    n = 4 * p
    tg = TaskGraph(f"communities{n}")
    tg.add_nodes(range(n))
    ph = tg.add_comm_phase("comm")
    for c in range(p):
        base = 4 * c
        ph.add(base, base + 1, 20.0)
        ph.add(base + 2, base + 3, 18.0)
        ph.add(base + 1, base + 2, 15.0)
        ph.add((base + 3) % n, (base + 4) % n, 2.0)
    return tg


@pytest.mark.parametrize("p", [6, 12])
def test_full_algorithm_baseline(benchmark, p):
    tg = community_graph(p)
    clusters = benchmark(lambda: mwm_contract(tg, p, load_bound=4))
    assert total_ipc(tg, clusters) == 2.0 * p


@pytest.mark.parametrize("p", [6, 12])
def test_ablation_cap_and_pairing(benchmark, p):
    """Disable each choice; none may beat the full algorithm."""
    tg = community_graph(p)

    def run_all():
        full = total_ipc(tg, mwm_contract(tg, p, load_bound=4))
        cap_b = total_ipc(
            tg, contract_variant(tg, p, 4, cap_full_b=True, greedy_pairing=False)
        )
        greedy = total_ipc(
            tg, contract_variant(tg, p, 4, cap_full_b=False, greedy_pairing=True)
        )
        return full, cap_b, greedy

    full, cap_b, greedy = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print(f"p={p}: IPC full {full:g}, cap=B {cap_b:g}, greedy pairing {greedy:g}")
    assert full <= cap_b
    assert full <= greedy


def test_ablation_on_random_graphs(benchmark):
    graphs = [random_weighted_graph(32, 0.2, s) for s in range(6)]
    p = 4

    def run():
        rows = []
        for tg in graphs:
            full = total_ipc(tg, mwm_contract(tg, p))
            bound = -(-tg.n_tasks // p)
            greedy = total_ipc(
                tg,
                contract_variant(tg, p, bound, cap_full_b=False, greedy_pairing=True),
            )
            rows.append((full, greedy))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    wins = sum(1 for full, greedy in rows if full <= greedy)
    avg_full = sum(f for f, _ in rows) / len(rows)
    avg_greedy = sum(g for _, g in rows) / len(rows)
    print(f"random graphs: MWM pairing <= greedy pairing on {wins}/{len(rows)}; "
          f"avg IPC {avg_full:.1f} vs {avg_greedy:.1f}")
    assert avg_full <= avg_greedy * 1.02
