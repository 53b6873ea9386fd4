"""Algorithm MWM-Contract: symmetric contraction of arbitrary task graphs.

Section 4.3 / [Lo88].  Contract the tasks of a weighted task graph into at
most ``P`` clusters so that total interprocessor communication (IPC) is
minimised subject to the load-balancing constraint that no cluster holds
more than ``B`` tasks.

Two-stage structure, exactly as the paper describes:

1. **Greedy pre-merge.**  While there are more than ``2P`` clusters, scan
   inter-cluster edges in non-increasing weight order and merge the two
   endpoint clusters whenever the merged cluster would hold at most ``B/2``
   tasks (Fig 5b's weight-15 edge is rejected by exactly this size test).
   Merged edges accumulate their weights.

2. **Maximum-weight matching.**  On the resulting cluster graph (now at
   most ``2P`` nodes, each of size at most ``B/2``), find a maximum weight
   matching and merge every matched pair.  The matched weight is
   internalised, so the matching that maximises internal weight minimises
   the remaining IPC.  When the cluster count still exceeds ``P``, the
   matching is constrained to maximum cardinality (zero-weight pairs
   allowed), which brings the count to ``ceil(c/2) <= P``.

When the task count is at most ``2P`` stage 1 is skipped and the result is
an *optimal* symmetric contraction ([Lo88]'s theorem); beyond that the
result is heuristic (Fig 5's example happens to reach the optimum IPC 6).

Implementation note: the cluster graph is maintained *incrementally* by
:class:`_ClusterState` -- the task-level structure (the CSR bundle's folded
pair stream, see :meth:`TaskGraph.csr`) is scanned once, and every merge
folds the absorbed cluster's neighbour-weight map into the survivor's --
so each greedy pass and matching round costs O(cluster edges) instead of
re-aggregating all O(E) task edges.  Stage 2 candidates are likewise
restricted to *adjacent* cluster pairs, falling back to the dense
zero-weight pair set only when adjacency alone cannot pair the clusters
down to the processor count.  Either way a round lists its candidates once,
as ``(i, j, weight)`` triples with ``i < j`` in ascending order straight off
the neighbour maps, and hands them to the blossom kernel
(:func:`repro.util.matching.blossom_matching`), which indexes them into its
flat lists; each round runs under the ``mapper.mwm.match`` perf span and
counts itself in ``mapper.mwm.rounds`` / ``dense_rounds`` /
``candidate_pairs``.  The CSR pair stream lists pairs in exactly the order
``static_graph().edges`` iterates and carries the same declaration-order
accumulated weights, and the kernel returns the same matching in the same
set order as the networkx matcher it replaced, so contractions are
bit-identical to the original nx-based scan (pinned by the equivalence
goldens and ``tests/data/matching_corpus.json``).

Capacity awareness: every merge also passes an *exists-fit* test -- the
merged cluster's summed demand vector must fit on at least one processor
(:meth:`repro.arch.capacity.CapacityContext.cluster_fits`); a cluster no
processor could hold can never be embedded, whatever NN-Embed later
chooses.  On a capacity-free machine (R = 0) the test answers ``True``
at once, which is the scalar-bound algorithm bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable

import numpy as np

from repro.arch.capacity import CapacityContext
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import NotApplicableError
from repro.util import perf
from repro.util.matching import blossom_matching

__all__ = ["mwm_contract", "total_ipc"]

Task = Hashable
Cluster = frozenset


def _owner_map(clusters) -> dict[Task, int]:
    """Task -> cluster-index lookup for a list of task collections."""
    owner: dict[Task, int] = {}
    for ci, cluster in enumerate(clusters):
        for t in cluster:
            owner[t] = ci
    return owner


def total_ipc(tg: TaskGraph, clusters: list[list[Task]]) -> float:
    """Total inter-cluster communication volume under a contraction.

    Vectorized over the CSR directed stream; the cut volumes accumulate
    left-to-right in declaration order (``np.add.accumulate``), matching
    the reference Python fold bit for bit.
    """
    csr = tg.csr()
    owner_by_task = _owner_map(clusters)
    owner = np.array(
        [owner_by_task[t] for t in csr.tasks], dtype=np.intp
    ) if csr.n else np.empty(0, dtype=np.intp)
    cut = (csr.src != csr.dst) & (owner[csr.src] != owner[csr.dst])
    vols = csr.vol[cut]
    if not vols.size:
        return 0.0
    return float(np.add.accumulate(vols)[-1])


def _pair_stream(
    csr, owner: list[int] | None = None
) -> Iterable[tuple[int, int, float]]:
    """The folded pair stream as cluster-index triples ``(ci, cj, w)``.

    Without *owner* the clusters are the singleton tasks (cluster index ==
    task index); with it, each task index maps through ``owner``.  Order
    and weights are exactly the nx static graph's edge iteration.
    """
    if owner is None:
        yield from zip(
            csr.edge_u.tolist(), csr.edge_v.tolist(), csr.edge_w.tolist()
        )
    else:
        for u, v, w in zip(
            csr.edge_u.tolist(), csr.edge_v.tolist(), csr.edge_w.tolist()
        ):
            yield owner[u], owner[v], w


class _ClusterState:
    """Clusters plus an incrementally maintained inter-cluster weight map.

    ``clusters[i]`` is a (possibly emptied) task set and ``nbr[i]`` its
    symmetric neighbour map ``{j: weight}`` over *live* cluster indices,
    folded from a ``(ci, cj, weight)`` pair stream (see
    :func:`_pair_stream`).  :meth:`merge` folds one cluster into another
    in O(degree) and :meth:`compact` re-indexes after a round of merges,
    so no operation ever re-scans the task-level graph.
    """

    def __init__(
        self,
        pairs: Iterable[tuple[int, int, float]],
        clusters: list[set[Task]],
    ):
        self.clusters = clusters
        self.nbr: list[dict[int, float]] = [{} for _ in clusters]
        for cu, cv, w in pairs:
            if cu == cv:
                continue
            self.nbr[cu][cv] = self.nbr[cu].get(cv, 0.0) + w
            self.nbr[cv][cu] = self.nbr[cv].get(cu, 0.0) + w

    def weights(self) -> dict[tuple[int, int], float]:
        """Snapshot of inter-cluster weights keyed ``(i, j)`` with i < j."""
        return {
            (i, j): w
            for i, adjacency in enumerate(self.nbr)
            for j, w in adjacency.items()
            if i < j
        }

    def merge(self, i: int, j: int) -> None:
        """Fold cluster *j* into cluster *i*, internalising their edge."""
        self.clusters[i] |= self.clusters[j]
        self.clusters[j] = set()
        nbr_i, nbr_j = self.nbr[i], self.nbr[j]
        nbr_i.pop(j, None)
        for k, w in nbr_j.items():
            if k == i:
                continue  # the internalised edge, already dropped above
            del self.nbr[k][j]
            total = nbr_i.get(k, 0.0) + w
            nbr_i[k] = total
            self.nbr[k][i] = total
        nbr_j.clear()

    def compact(self) -> None:
        """Drop emptied clusters and remap indices, preserving order."""
        remap: dict[int, int] = {}
        for old, cluster in enumerate(self.clusters):
            if cluster:
                remap[old] = len(remap)
        if len(remap) == len(self.clusters):
            return
        self.clusters = [c for c in self.clusters if c]
        self.nbr = [
            {remap[k]: w for k, w in self.nbr[old].items()}
            for old in remap
        ]

    def reorder(self, perm: list[int]) -> None:
        """Reorder clusters so new index ``i`` holds old index ``perm[i]``."""
        inverse = [0] * len(perm)
        for new, old in enumerate(perm):
            inverse[old] = new
        self.clusters = [self.clusters[old] for old in perm]
        self.nbr = [
            {inverse[k]: w for k, w in self.nbr[old].items()} for old in perm
        ]


def _greedy_premerge_state(
    state: _ClusterState, target: int, size_cap: float, cap_ok
) -> None:
    """Stage 1: merge along heavy edges until at most *target* clusters.

    Runs repeated passes (each pass snapshots the incrementally maintained
    cluster weights) until the target is met or no merge is possible under
    the size cap and the *cap_ok* exists-fit test;
    a final fallback merges the smallest clusters pairwise regardless of
    adjacency, still respecting the cap -- needed for disconnected task
    graphs.
    """
    clusters = state.clusters
    while len(clusters) > target:
        order = sorted(state.weights().items(), key=lambda kv: (-kv[1], kv[0]))
        merged_into: dict[int, int] = {}  # old index -> surviving index

        def find(i: int) -> int:
            while i in merged_into:
                i = merged_into[i]
            return i

        n_clusters = len(clusters)
        merged_any = False
        for (i, j), _w in order:
            if n_clusters <= target:
                break
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if (len(clusters[ri]) + len(clusters[rj]) <= size_cap
                    and cap_ok(clusters[ri], clusters[rj])):
                state.merge(ri, rj)
                merged_into[rj] = ri
                n_clusters -= 1
                merged_any = True
        state.compact()
        clusters = state.clusters
        if not merged_any:
            break

    # Disconnected graphs: force zero-weight merges, smallest pair first.
    # (If even the two smallest clusters exceed the cap together, no pair
    # fits and we stop; the caller's matching stage may still succeed.)
    while len(state.clusters) > target:
        state.reorder(
            sorted(range(len(state.clusters)), key=lambda i: len(state.clusters[i]))
        )
        if (len(state.clusters[0]) + len(state.clusters[1]) > size_cap
                or not cap_ok(state.clusters[0], state.clusters[1])):
            break
        state.merge(0, 1)
        state.compact()


def _match_round(
    state: _ClusterState, n_procs: int, bound: int, cap_ok
) -> set[tuple[int, int]] | None:
    """One stage-2 matching round; returns the pairs to merge (or None to stop).

    When the cluster count already fits the processor count, candidates are
    only the *adjacent* feasible pairs (zero-weight merges would be filtered
    out anyway, so the restriction is exact).  Only when the count must
    still shrink does the dense zero-weight pair set come into play: the
    maximum-cardinality matching may then pair non-adjacent clusters, both
    to reach ``ceil(c/2)`` and to free heavier adjacent pairs for each other
    (required for [Lo88] optimality at ``n <= 2P``).
    """
    clusters, nbr = state.clusters, state.nbr
    sizes = [len(c) for c in clusters]
    dense = len(clusters) > n_procs

    def feasible(i: int, j: int) -> bool:
        return sizes[i] + sizes[j] <= bound and cap_ok(clusters[i], clusters[j])

    with perf.span("mapper.mwm.match"):
        if dense:
            candidate = [
                (i, j, nbr[i].get(j, 0.0))
                for i in range(len(clusters))
                for j in range(i + 1, len(clusters))
                if feasible(i, j)
            ]
        else:
            candidate = [
                (i, j, w)
                for i, adjacency in enumerate(nbr)
                for j, w in adjacency.items()
                if i < j and feasible(i, j)
            ]
        if not candidate:
            return None
        perf.count("mapper.mwm.rounds")
        perf.count("mapper.mwm.dense_rounds", int(dense))
        perf.count("mapper.mwm.candidate_pairs", len(candidate))
        # The merge loop iterates the returned set, and merge order decides
        # neighbour-map order and float summation order downstream; so the
        # set is built the one way the goldens were recorded with: the
        # kernel's pairs re-added as (low, high), then filtered.
        mate: set[tuple[int, int]] = set()
        for i, j in blossom_matching(candidate, maxcardinality=dense):
            mate.add((i, j) if i < j else (j, i))
    if not dense:
        # Only merge pairs that actually internalise communication.
        mate = {(i, j) for i, j in mate if nbr[i][j] > 0.0}
    return mate or None


def mwm_contract(
    tg: TaskGraph,
    n_procs: int,
    *,
    load_bound: int | None = None,
    capacity: CapacityContext | None = None,
) -> list[list[Task]]:
    """Contract *tg* into at most *n_procs* clusters of at most *load_bound* tasks.

    Parameters
    ----------
    tg:
        The task graph (volumes aggregate over all phases).
    n_procs:
        Number of processors ``P``.
    load_bound:
        The balance constraint ``B``; defaults to ``ceil(n / P)`` (perfect
        balance).  Must satisfy ``B * P >= n``.
    capacity:
        The machine's :class:`repro.arch.capacity.CapacityContext` (none
        given: the processors declare no capacities); every merge also
        requires the merged cluster's demand vector to fit on at least
        one processor.  Raises
        :class:`~repro.mapper.mapping.NotApplicableError` when even a
        single task fits nowhere, or when the clusters cannot be packed
        down to ``P`` under the capacity vectors.

    Returns
    -------
    List of clusters (each a sorted list of task labels), at most *n_procs*
    of them, none exceeding *load_bound* tasks.
    """
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    tasks = tg.nodes
    n = len(tasks)
    if n == 0:
        return []
    bound = load_bound if load_bound is not None else math.ceil(n / n_procs)
    if bound < 1 or bound * n_procs < n:
        raise ValueError(
            f"load bound B={bound} cannot hold {n} tasks on {n_procs} processors"
        )
    capacity = capacity or CapacityContext(None, tg)
    cap_ok = capacity.cluster_fits
    homeless = capacity.unplaceable()
    if homeless:
        t = tasks[homeless[0]]
        raise NotApplicableError(
            f"task {t!r} (demand {capacity.demand_of(t).tolist()}) fits on "
            f"no processor of the capacity-constrained machine"
        )

    with perf.span("mapper.mwm_contract"):
        csr = tg.csr()
        state = _ClusterState(_pair_stream(csr), [{t} for t in tasks])

        # Stage 1: greedy pre-merge down to 2P clusters of size <= B/2.
        if len(state.clusters) > 2 * n_procs:
            _greedy_premerge_state(state, 2 * n_procs, bound / 2, cap_ok)

        # Stage 2: maximum weight matching pairs clusters, internalising the
        # matched communication.  One matching round at most halves the
        # cluster count, so the round repeats until the processor count is
        # reached (a single round suffices for the paper's n <= 2P setting).
        while True:
            mate = _match_round(state, n_procs, bound, cap_ok)
            if not mate:
                break
            for i, j in mate:
                state.merge(i, j)
            state.compact()
            if len(state.clusters) <= n_procs:
                break

        # Rebalancing fallback for shapes pairwise merging cannot reach
        # (e.g. three size-2 clusters under B=3): break up one cluster and
        # spread its tasks into clusters with spare capacity, maximising
        # attachment.  The victim is the cluster whose *internal* weight is
        # lowest (ties to the smallest) -- dispersing a cluster cuts every
        # edge the earlier stages internalised in it, so the cheapest one
        # to break is the one holding the least communication.  Feasible
        # whenever B * P >= n, which was checked above.
        index = csr.index
        wmap = csr.pair_weight_map()

        def pair_weight(a: Task, b: Task) -> float | None:
            ia, ib = index[a], index[b]
            return wmap.get((ia, ib) if ia < ib else (ib, ia))

        internal_weights: dict[frozenset, float] = {}

        def internal_weight(cluster: set) -> float:
            # Each iteration below changes at most two clusters; the rest
            # keep their O(|c|^2) sum from the iteration before.
            key = frozenset(cluster)
            weight = internal_weights.get(key)
            if weight is None:
                members = sorted(cluster, key=repr)
                weight = internal_weights[key] = sum(
                    w
                    for k, a in enumerate(members)
                    for b in members[k + 1:]
                    if (w := pair_weight(a, b)) is not None
                )
            return weight

        while len(state.clusters) > n_procs:
            state.reorder(
                sorted(
                    range(len(state.clusters)),
                    key=lambda i: (
                        internal_weight(state.clusters[i]),
                        len(state.clusters[i]),
                    ),
                )
            )
            clusters = state.clusters
            smallest = clusters[0]
            attach = state.nbr[0]
            merged = False
            for j in sorted(range(1, len(clusters)), key=lambda j: -attach.get(j, 0.0)):
                if (len(clusters[j]) + len(smallest) <= bound
                        and cap_ok(clusters[j], smallest)):
                    state.merge(j, 0)
                    state.compact()
                    merged = True
                    break
            if not merged:
                rest = [set(c) for c in clusters[1:]]
                # First-fit-decreasing: placing the demand-heaviest tasks
                # while clusters still have headroom succeeds on instances
                # the label order would dead-end on (a stable sort: at
                # R = 0 every key is zero).
                disperse_order = sorted(
                    sorted(smallest, key=repr),
                    key=lambda t: -float(capacity.demand_of(t).sum()),
                )
                for t in disperse_order:
                    feasible = [
                        j for j in range(len(rest))
                        if len(rest[j]) < bound and cap_ok(rest[j], {t})
                    ]
                    if not feasible:
                        raise NotApplicableError(
                            f"MWM-Contract cannot disperse task {t!r} into "
                            f"any cluster under the machine's capacity "
                            f"vectors"
                        )
                    target = max(
                        feasible,
                        key=lambda j: sum(
                            w
                            for u in rest[j]
                            if (w := pair_weight(t, u)) is not None
                        ),
                    )
                    rest[target].add(t)
                owner = [0] * csr.n
                for cj, members in enumerate(rest):
                    for t in members:
                        owner[index[t]] = cj
                state = _ClusterState(_pair_stream(csr, owner), rest)
        return [sorted(c, key=repr) for c in state.clusters]
