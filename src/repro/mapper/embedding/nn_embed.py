"""Algorithm NN-Embed: greedy nearest-neighbour embedding (Section 4.3).

"After contraction, embedding is achieved by Algorithm NN-Embed which uses
a greedy approach to place highly communicating clusters on adjacent
neighbors in the network graph."

Concretely: seed with the most communication-heavy cluster on a
highest-degree processor, then repeatedly take the unplaced cluster with
the most communication to already-placed clusters and put it on the free
processor minimising distance-weighted communication to its placed
neighbours.

The implementation is an integer-indexed numpy kernel over the topology's
cached distance matrix.  The attachment of every unplaced cluster to the
placed set is maintained incrementally (one column add per placement), and
the candidate-processor cost is one column of an incrementally updated
``(processor, cluster)`` cost matrix instead of an O(placed) Python loop
per free processor.  The direct per-pair implementation lives in
``tests/oracles/`` as the executable specification: both accumulate the
same floating-point terms in the same order (placement order), break every
tie by cluster / processor index, and are pinned bit-identical by
``tests/test_vectorized_kernels.py``.

Capacity awareness: the candidate processors for each cluster are those
whose capacity vectors (``topology.capacities``) hold the cluster's
summed demand; the greedy order and all tie-breaks are otherwise
unchanged, so a machine whose capacities never bind (R = 0 among them)
places bit-identically.  A cluster with no feasible free processor raises
:class:`~repro.mapper.mapping.NotApplicableError`.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.arch.capacity import CapacityContext
from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import NotApplicableError
from repro.util import perf

__all__ = ["nn_embed", "assignment_from_clusters", "cluster_weights"]

Task = Hashable
Proc = Hashable


def cluster_weights(
    tg: TaskGraph, clusters: Sequence[Sequence[Task]]
) -> dict[tuple[int, int], float]:
    """Aggregate communication volume between cluster pairs (undirected).

    Vectorized over the CSR directed stream.  The result is bit-identical
    to the reference dict fold it replaced: per-pair volumes accumulate in
    edge-declaration order (``np.add.at`` applies updates in input order)
    and keys appear in first-occurrence order -- NN-Embed and its oracle
    treat the dict's iteration order as part of the contract.
    """
    csr = tg.csr()
    index = csr.index
    owner = np.full(csr.n, -1, dtype=np.intp)
    for ci, cluster in enumerate(clusters):
        for t in cluster:
            owner[index[t]] = ci
    if not csr.src.size:
        return {}
    ou = owner[csr.src]
    ov = owner[csr.dst]
    cross = ou != ov
    lo = np.minimum(ou, ov)[cross]
    hi = np.maximum(ou, ov)[cross]
    vols = csr.vol[cross]
    if not lo.size:
        return {}
    key = lo * np.intp(max(len(clusters), 1)) + hi
    uniq, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    sums = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(sums, inverse, vols)
    order = np.argsort(first, kind="stable")
    los = lo[first[order]].tolist()
    his = hi[first[order]].tolist()
    vals = sums[order].tolist()
    return {
        (int(i), int(j)): v for i, j, v in zip(los, his, vals)
    }


def nn_embed(
    tg: TaskGraph,
    clusters: Sequence[Sequence[Task]],
    topology: Topology,
) -> dict[int, Proc]:
    """Place each cluster on a distinct processor, greedily by communication.

    Returns cluster-index -> processor.  Deterministic: ties break on
    cluster index then processor order.  A cluster's candidates are the
    processors whose capacity vectors hold its demand (module docstring).
    """
    return _nn_embed(tg, clusters, CapacityContext.of(tg, topology))


def _nn_embed(tg: TaskGraph, clusters, capacity: CapacityContext) -> dict[int, Proc]:
    """:func:`nn_embed` on the machine *capacity* is bound to."""
    n_clusters = len(clusters)
    if n_clusters > capacity.topology.n_processors:
        raise NotApplicableError(
            f"{n_clusters} clusters cannot embed into "
            f"{capacity.topology.n_processors} processors"
        )
    if n_clusters == 0:
        return {}
    with perf.span("mapper.nn_embed"):
        return _nn_kernel(tg, clusters, capacity)


def _nn_kernel(tg: TaskGraph, clusters, capacity: CapacityContext) -> dict[int, Proc]:
    """Integer-indexed numpy kernel of NN-Embed."""
    topology = capacity.topology
    feas = capacity.cluster_masks(clusters)
    n_clusters = len(clusters)
    weights = cluster_weights(tg, clusters)
    # Totals accumulate in dict order, exactly like the oracle.
    total = [0.0] * n_clusters
    W = np.zeros((n_clusters, n_clusters))
    for (i, j), w in weights.items():
        total[i] += w
        total[j] += w
        W[i, j] = W[j, i] = w
    total_arr = np.array(total)

    D = topology.distance_matrix().astype(np.float64, copy=False)
    n_procs = topology.n_processors
    free = np.ones(n_procs, dtype=bool)
    placement: dict[int, Proc] = {}
    # S[p, c] = distance-weighted traffic of cluster c on processor p over
    # the placed set so far.  Each placement folds in one outer-product
    # rank-1 update, so S accumulates the same terms in the same
    # (placement) order as the oracle's per-pair sums.
    S = np.zeros((n_procs, n_clusters))
    # attach[c] accumulates W[c, q] as each q is placed -- again the
    # left-to-right sum over the placed set the oracle computes fresh.
    attach = np.zeros(n_clusters)
    unplaced = np.ones(n_clusters, dtype=bool)

    def place(cluster: int, proc_idx: int) -> None:
        placement[cluster] = topology.proc_by_index(proc_idx)
        free[proc_idx] = False
        unplaced[cluster] = False
        S[:, :] += D[:, proc_idx, None] * W[None, cluster, :]
        attach[:] += W[:, cluster]

    def allowed(cluster: int) -> np.ndarray:
        idx = np.flatnonzero(free & feas[cluster])
        if not idx.size:
            raise NotApplicableError(
                f"cluster {cluster} ({len(clusters[cluster])} tasks) fits "
                f"on no free processor of {topology.name!r} under its "
                f"capacity vectors"
            )
        return idx

    # Seed: heaviest cluster on the lowest-index max-degree processor
    # (of the capacity-feasible ones).
    seed_cluster = int(np.flatnonzero(total_arr == total_arr.max()).min())
    degrees = topology.degree_array()
    seed_idx = allowed(seed_cluster)
    d = degrees[seed_idx]
    place(seed_cluster, int(seed_idx[d == d.max()].min()))

    for _ in range(n_clusters - 1):
        # Pick the unplaced cluster most attached to the placed set;
        # ties break on total weight, then lowest cluster index.
        cand = np.flatnonzero(unplaced)
        a = attach[cand]
        cand = cand[a == a.max()]
        if len(cand) > 1:
            t = total_arr[cand]
            cand = cand[t == t.max()]
        cluster = int(cand.min())

        # Cost of every feasible free processor: one column of S.
        free_idx = allowed(cluster)
        c = S[free_idx, cluster]
        best = int(free_idx[c == c.min()].min())
        place(cluster, best)
    return placement


def assignment_from_clusters(
    clusters: Sequence[Sequence[Task]],
    placement: dict[int, Proc],
) -> dict[Task, Proc]:
    """Flatten a (clusters, placement) pair into a task -> processor map."""
    out: dict[Task, Proc] = {}
    for ci, cluster in enumerate(clusters):
        for t in cluster:
            out[t] = placement[ci]
    return out
