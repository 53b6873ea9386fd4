"""E3 (Fig 5): Algorithm MWM-Contract on the 12-task / 3-processor example.

Regenerates the contraction example of Section 4.3: 12 tasks onto 3
processors under load bound B = 4.  The greedy stage works at cluster cap
B/2 = 2 and must reject the weight-15 edge; the matching stage then pairs
the six 2-task clusters into three 4-task clusters with **total IPC = 6**,
which the paper notes "happens to be optimal in this case".

Optimality is verified here by exhaustive search over all balanced
3-way partitions.
"""

from itertools import combinations

import pytest

from repro.graph.paper_examples import (
    FIG5_LOAD_BOUND,
    FIG5_OPTIMAL_IPC,
    FIG5_PROCESSORS,
    fig5_task_graph,
)
from repro.mapper.contraction import mwm_contract, total_ipc


def brute_force_optimal_ipc(tg, n_procs, bound):
    """Exhaustive minimum IPC over partitions into <= bound-sized clusters."""
    tasks = tg.nodes
    best = float("inf")

    def partitions(remaining):
        if not remaining:
            yield []
            return
        first = remaining[0]
        rest = remaining[1:]
        for k in range(0, bound):
            for extra in combinations(rest, k):
                cluster = [first, *extra]
                left = [t for t in rest if t not in extra]
                for others in partitions(left):
                    if len(others) + 1 <= n_procs:
                        yield [cluster, *others]

    for clusters in partitions(tasks):
        best = min(best, total_ipc(tg, clusters))
    return best


def test_fig5_contraction(benchmark):
    tg = fig5_task_graph()
    clusters = benchmark(
        lambda: mwm_contract(tg, FIG5_PROCESSORS, load_bound=FIG5_LOAD_BOUND)
    )
    ipc = total_ipc(tg, clusters)

    assert len(clusters) == 3
    assert all(len(c) == 4 for c in clusters)
    assert ipc == FIG5_OPTIMAL_IPC

    print("Fig 5 reproduction:")
    print(f"  12 tasks -> {FIG5_PROCESSORS} processors, B = {FIG5_LOAD_BOUND}")
    print(f"  clusters: {sorted(map(sorted, clusters))}")
    print(f"  total IPC = {ipc:g}  (paper: 6, optimal)")


def test_fig5_ipc_is_globally_optimal(benchmark):
    """Exhaustive check that IPC = 6 is the optimum, as the paper states."""
    tg = fig5_task_graph()
    best = benchmark.pedantic(
        brute_force_optimal_ipc,
        args=(tg, FIG5_PROCESSORS, FIG5_LOAD_BOUND),
        rounds=1,
        iterations=1,
    )
    assert best == FIG5_OPTIMAL_IPC


def test_fig5_greedy_rejects_weight15_edge(benchmark):
    """The greedy stage's size test: at cap B/2 = 2 the weight-15 edge
    (1, 2) cannot merge because both endpoint clusters hold 2 tasks."""
    from repro.arch.capacity import CapacityContext
    from repro.mapper.contraction.mwm import (
        _ClusterState,
        _greedy_premerge_state,
        _pair_stream,
    )

    tg = fig5_task_graph()
    fits = CapacityContext(None, tg).cluster_fits

    def greedy():
        state = _ClusterState(_pair_stream(tg.csr()), [{t} for t in tg.nodes])
        _greedy_premerge_state(
            state, 2 * FIG5_PROCESSORS, FIG5_LOAD_BOUND / 2, fits
        )
        return state.clusters

    clusters = benchmark(greedy)
    assert len(clusters) == 6
    assert all(len(c) <= 2 for c in clusters)
    owner = {t: i for i, c in enumerate(clusters) for t in c}
    # Tasks 1 and 2 (the weight-15 edge) are still in different clusters.
    assert owner[1] != owner[2]
    # ... but the heaviest edges merged: (0,1), (2,3), (4,5), (6,7), (8,9).
    for u, v in [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]:
        assert owner[u] == owner[v]


@pytest.mark.parametrize("n,p", [(24, 6), (48, 12), (96, 24)])
def test_fig5_pattern_scaled(benchmark, n, p):
    """The same cluster-of-triangles pattern scaled up: MWM stays optimal.

    Build p 'communities' of 4 tasks (heavy internal edges) connected in a
    light ring; the optimal contraction is one community per processor.
    """
    from repro.graph.taskgraph import TaskGraph

    tg = TaskGraph(f"communities{n}")
    tg.add_nodes(range(n))
    ph = tg.add_comm_phase("comm")
    for c in range(p):
        base = 4 * c
        ph.add(base, base + 1, 20.0)
        ph.add(base + 2, base + 3, 18.0)
        ph.add(base + 1, base + 2, 15.0)
        ph.add((base + 3) % n, (base + 4) % n, 2.0)  # light ring between
    clusters = benchmark(lambda: mwm_contract(tg, p, load_bound=4))
    ipc = total_ipc(tg, clusters)
    assert ipc == 2.0 * p  # only the light ring crosses
    benchmark.extra_info["ipc"] = ipc
