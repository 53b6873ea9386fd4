"""Direct per-pair NN-Embed (moved from ``repro.mapper.embedding.nn_embed``).

Shares no code with the kernel it specifies: cluster weights are a dict
fold over the edge stream and feasibility is read straight off
``topology.capacities``, in plain Python.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import NotApplicableError

Task = Hashable
Proc = Hashable


def cluster_weights_reference(
    tg: TaskGraph, clusters: Sequence[Sequence[Task]]
) -> dict[tuple[int, int], float]:
    """Undirected inter-cluster volume, keyed ``(low, high)``: per-pair sums
    in edge-declaration order, keys in first-occurrence order."""
    owner = {t: ci for ci, cluster in enumerate(clusters) for t in cluster}
    weights: dict[tuple[int, int], float] = {}
    for _phase, edge in tg.all_edges():
        a, b = owner[edge.src], owner[edge.dst]
        if a != b:
            key = (min(a, b), max(a, b))
            weights[key] = weights.get(key, 0.0) + edge.volume
    return weights


def fits_reference(tg: TaskGraph, cluster, topology: Topology, proc) -> bool:
    """Whether *cluster*'s summed demand fits *proc*'s capacity vector."""
    capacities = topology.capacities
    if capacities is None:
        return True
    for rule, cap in zip(capacities.rules, capacities.cap_for(proc)):
        need = sum(1.0 if rule == "unit" else tg.node_weight(t) for t in cluster)
        if need > cap + 1e-9:
            return False
    return True


def nn_embed_reference(
    tg: TaskGraph,
    clusters: Sequence[Sequence[Task]],
    topology: Topology,
) -> dict[int, Proc]:
    """Direct per-pair implementation (the executable specification)."""
    n_clusters = len(clusters)
    weights = cluster_weights_reference(tg, clusters)
    total: list[float] = [0.0] * n_clusters
    for (i, j), w in weights.items():
        total[i] += w
        total[j] += w

    procs = topology.processors
    proc_order = {p: k for k, p in enumerate(procs)}
    free: set[Proc] = set(procs)
    placement: dict[int, Proc] = {}

    def candidates(cluster: int) -> list[Proc]:
        out = [
            p for p in free
            if fits_reference(tg, clusters[cluster], topology, p)
        ]
        if not out:
            raise NotApplicableError(
                f"cluster {cluster} ({len(clusters[cluster])} tasks) fits "
                f"on no free processor of {topology.name!r} under its "
                f"capacity vectors"
            )
        return out

    # Seed: heaviest cluster on a max-degree (capacity-feasible) processor.
    seed_cluster = max(range(n_clusters), key=lambda c: (total[c], -c))
    seed_proc = max(
        candidates(seed_cluster),
        key=lambda p: (topology.degree(p), -proc_order[p]),
    )
    placement[seed_cluster] = seed_proc
    free.discard(seed_proc)

    def weight(a: int, b: int) -> float:
        return weights.get((min(a, b), max(a, b)), 0.0)

    unplaced = set(range(n_clusters)) - {seed_cluster}
    while unplaced:
        # Pick the unplaced cluster most attached to the placed set.
        cluster = max(
            unplaced,
            key=lambda c: (sum(weight(c, q) for q in placement), total[c], -c),
        )
        # Put it on the free processor minimising distance-weighted traffic.
        def cost(p: Proc) -> tuple[float, int]:
            s = sum(
                weight(cluster, q) * topology.distance(p, placement[q])
                for q in placement
            )
            return (s, proc_order[p])

        best = min(candidates(cluster), key=cost)
        placement[cluster] = best
        free.discard(best)
        unplaced.discard(cluster)
    return placement
