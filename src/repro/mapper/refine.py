"""Local refinement passes for contraction and embedding.

Section 4's closing note -- "we plan to replace and augment the algorithms
in the MAPPER library" -- invites improvement passes on top of the
polynomial heuristics.  Two classic Kernighan-Lin-style refinements:

* :func:`refine_contraction` -- move single tasks between clusters when
  the move reduces total IPC and respects the load bound (a simplified
  Fiduccia-Mattheyses pass, repeated until a sweep makes no improvement).
* :func:`refine_embedding` -- swap the processors of cluster pairs when
  the swap reduces total distance-weighted communication (2-opt on the
  placement).

Both are optional post-passes: ``map_computation(.., refine=True)`` runs
them after the standard pipeline and re-routes.

For large graphs there is a third, array-native pass in the style of
VieM's sparse quadratic-assignment local search:

* :func:`refine` -- ``refine(mapping, method="delta_gain")`` minimises the
  aggregate communication cost ``sum(volume * distance)`` directly on a
  finished mapping.  Delta-gain vectors for every single-task move are
  computed as batched numpy products of the attachment matrix with the
  topology's cached distance matrix, pairwise swap gains ride along per
  CSR entry, and candidates apply greedily with deterministic
  ``(gain, task index)`` tie-breaks.  Each applied move revalidates its
  gain against the current assignment, so the aggregate cost never
  increases.  It composes after *any* embed (the multilevel strategy runs
  the same kernel at every uncoarsening level).

All three keep the machine's capacity vectors -- through its
:class:`~repro.arch.capacity.CapacityContext`, and through an index-space
:class:`~repro.arch.capacity.Headroom` in the array kernel -- with no
separate path for a capacity-free machine (R = 0).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence

import numpy as np

from repro.arch.capacity import CapacityContext, Headroom
from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import Mapping
from repro.util import perf

__all__ = ["refine", "refine_contraction", "refine_embedding"]

Task = Hashable
Proc = Hashable

_REFINE_METHODS = ("delta_gain",)

#: Gains smaller than this are noise, not improvements.
_GAIN_TOL = 1e-9

#: Element budget of one block of the batched move-gain product: a block
#: spans ``_BLOCK_ELEMS // processors`` rows, so its dense (rows x
#: processors) float64 cost matrix stays at 4 MB on any machine, and one
#: block is live at a time (16 blocks on 1,024 processors peak at 5.4 MB).
_BLOCK_ELEMS = 1 << 19

#: The all-pairs swap scan expands ``8 * _BLOCK`` (65,536) node pairs per
#: chunk.
_BLOCK = 8192

#: Up to this node count the swap pass considers *all* pairs instead of
#: only adjacent ones (:func:`_swap_candidates`: one (node x processor)
#: matrix plus chunk temporaries, 6.7 MB peak at the limit on 256
#: processors from a mapped start; never an n x n array).  Coarse
#: multilevel levels sit under it, which is where non-adjacent exchanges
#: matter: with every processor at the load cap, single moves are all
#: infeasible and adjacent swaps alone leave placement-level optima
#: unreachable.
_FULL_SWAP_N = 2048


def _swap_candidates(
    rows: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    proc: np.ndarray,
    Df: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every improving swap ``(v, u, gain)``, ``v < u``, row-major order.

    The gain of exchanging ``v`` and ``u`` is ``delta_move(v -> proc[u]) +
    delta_move(u -> proc[v])``, plus ``2 w(v, u) D[pv, pu]`` when they
    share an edge (it keeps its endpoints' processors, so its
    double-subtracted contribution comes back).  The move deltas of every
    (node, processor) pair are one attachment-times-distance product
    ``G``; a pair can improve only if ``G[v, q]`` plus the *least* delta
    any node on ``q`` has towards ``proc[v]`` is already negative --
    rounded addition is monotone and the shared-edge term is never
    negative (weights and distances are not), so the test drops no pair
    the exhaustive scan would keep.  Only the surviving (node, processor)
    pairs are expanded to node pairs, a bounded chunk at a time, and each
    gain is the same sum in the same order as in the dense n x n scan kept
    in ``tests/oracles/refine_reference.py``: the result is bit-identical.
    CSR columns must ascend strictly within each row.
    """
    from scipy.sparse import coo_matrix

    n, n_procs = int(proc.size), int(Df.shape[0])
    attach = coo_matrix(
        (weights, (rows, proc[indices])), shape=(n, n_procs)
    ).tocsr()
    G = np.asarray(attach @ Df)  # C, the cost of every (node, processor)
    G -= G[np.arange(n), proc][:, None]
    # Nodes grouped by processor (ascending within one), and per (q, p) the
    # least G[u, p] over the nodes u on q; empty processors stay at inf.  A
    # minimum is exact in any order, so no grouped copy of G is needed.
    by_proc = np.argsort(proc, kind="stable")
    counts = np.bincount(proc, minlength=n_procs)
    starts = np.cumsum(counts) - counts
    least = np.full((n_procs, n_procs), np.inf)
    for q in np.flatnonzero(counts).tolist():
        np.min(G[by_proc[starts[q]:starts[q] + counts[q]]], axis=0, out=least[q])
    # The viable (v, q) pairs, row-major, tested a row chunk at a time.
    none = np.empty(0, dtype=np.intp)
    viable = [(none, none)]
    step = max(1, 8 * _BLOCK // n_procs)
    for r in range(0, n, step):
        test = least.T[proc[r:r + step]]
        test += G[r:r + step]
        v, q = np.nonzero(test < -_GAIN_TOL)
        viable.append((v + r, q))
        del test
    vv, qq = (np.concatenate(part) for part in zip(*viable))
    del viable

    # rows is intp, so this key and every one below is (u * n + v in the
    # CSR's int32 would wrap past 46,340 nodes).
    edge_key = rows * n + indices  # ascending: rows do, columns within do
    size = counts[qq]  # node pairs each viable (v, q) expands to
    ends = np.cumsum(size)
    found = [(none, none, np.empty(0, dtype=np.float64))]
    a = 0
    while a < vv.size:
        # One chunk: viable pairs a..b, whole rows of v, about 8 * _BLOCK
        # node pairs (a row alone expands to fewer than n).
        base = int(ends[a] - size[a])
        last = min(int(np.searchsorted(ends, base + 8 * _BLOCK)), vv.size - 1)
        b = int(np.searchsorted(vv, vv[last], "right"))
        # Slot k of the chunk is member k - first of its pair's processor.
        # Each chunk-length array is built in place or dropped before the
        # next (v and u are read back from key): at most five are live.
        reps = size[a:b]
        u = np.repeat(starts[qq[a:b]] - (ends[a:b] - reps - base), reps)
        u += np.arange(u.size)
        u = by_proc[u]
        v = np.repeat(vv[a:b], reps)
        later = u > v
        v = v[later]
        u = u[later]
        del later
        gain = G[v, proc[u]]
        gain += G[u, proc[v]]
        key = v * n
        key += u
        del v, u
        # A viable pair means G is not all zero: there is an edge to clip to.
        j = np.searchsorted(edge_key, key)
        np.minimum(j, edge_key.size - 1, out=j)
        hit = np.flatnonzero(edge_key[j] == key)
        hv, hu = np.divmod(key[hit], n)
        gain[hit] += 2.0 * weights[j[hit]] * Df[proc[hv], proc[hu]]
        del j
        keep = np.flatnonzero(gain < -_GAIN_TOL)
        keep = keep[np.argsort(key[keep])]  # row-major, as the rows are
        found.append((*np.divmod(key[keep], n), gain[keep]))
        a = b
    av, bv, gains = (np.concatenate(part) for part in zip(*found))
    perf.count("mapper.refine.swap_scans")
    perf.count("mapper.refine.swap_viable", int(vv.size))
    perf.count("mapper.refine.swap_candidates", int(av.size))
    return av, bv, gains


def _delta_gain_arrays(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sizes: np.ndarray,
    proc: np.ndarray,
    D: np.ndarray,
    cap: int,
    room: Headroom,
    *,
    max_passes: int = 4,
    swaps: bool = True,
) -> tuple[int, float]:
    """One delta-gain refinement run over flat arrays; mutates ``proc``.

    ``proc[v]`` is the processor index of node ``v`` of a symmetric CSR
    graph; ``sizes[v]`` its load (original-task count) and ``cap`` the
    per-processor load bound.  Returns ``(applied moves, total gain)``.

    *room* is the index-space :class:`~repro.arch.capacity.Headroom` of the
    nodes' demand vectors at ``proc``: moves and swaps also require the
    target processors to hold them, and *room* follows every one applied.
    Candidate *generation* is unchanged -- the vector test only gates
    application, exactly like the scalar bound -- so capacities that never
    bind (R = 0 among them) refine bit-identically to the scalar run.

    Per pass: the cost of every (node, target) pair is the sparse
    attachment matrix times the distance matrix, evaluated in row blocks;
    the best strictly-improving move per node and the swap gain of every
    pair (:func:`_swap_candidates`; of adjacent pairs only above
    ``_FULL_SWAP_N`` nodes) become candidate lists, applied greedily in
    ``(gain desc, node index)`` order.  A candidate's gain is recomputed
    against the *current* assignment just before it applies (earlier
    candidates may have moved its neighbours), so every applied change
    strictly lowers the aggregate cost -- the pass is monotone by
    construction, not by hope.
    """
    n = int(proc.size)
    n_procs = int(D.shape[0])
    if n == 0 or indices.size == 0:
        return 0, 0.0
    Df = D.astype(np.float64, copy=False)
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(n, dtype=np.intp), deg)
    load = np.zeros(n_procs, dtype=np.int64)
    np.add.at(load, proc, sizes)

    def move_delta(v: int, q: int) -> float:
        s, e = indptr[v], indptr[v + 1]
        nb = indices[s:e]
        return float(
            np.dot(weights[s:e], Df[q, proc[nb]] - Df[proc[v], proc[nb]])
        )

    def pair_w(v: int, u: int) -> float:
        s, e = int(indptr[v]), int(indptr[v + 1])
        j = int(np.searchsorted(indices[s:e], u)) + s
        if j < e and indices[j] == u:
            return float(weights[j])
        return 0.0

    total_moves = 0
    total_gain = 0.0
    from scipy.sparse import coo_matrix

    # Small levels afford the all-pairs swap scan, which subsumes the
    # adjacent-only pass (and makes its per-entry deltas unneeded).
    full_swaps = swaps and n <= _FULL_SWAP_N and n_procs > 1
    adj_swaps = swaps and not full_swaps
    block = max(1, _BLOCK_ELEMS // n_procs)
    # One pass's arrays, refilled in place by every pass.
    colp = np.empty(indices.size, dtype=np.intp)
    best_q = np.empty(n, dtype=np.intp)
    best_delta = np.empty(n, dtype=np.float64)
    edge_delta = np.empty(indices.size, dtype=np.float64) if adj_swaps else None
    mate = None  # CSR entry (v, u) -> entry (u, v), from the first swap pass

    for _ in range(max_passes):
        np.take(proc, indices, out=colp)
        for start in range(0, n, block):
            stop = min(n, start + block)
            lo, hi = int(indptr[start]), int(indptr[stop])
            bs = stop - start
            if lo == hi:
                best_q[start:stop] = proc[start:stop]
                best_delta[start:stop] = 0.0
                continue
            r = (rows[lo:hi] - start).astype(np.intp)
            attach = coo_matrix(
                (weights[lo:hi], (r, colp[lo:hi])), shape=(bs, n_procs)
            ).tocsr()
            newcost = np.asarray(attach @ Df)
            own = proc[start:stop]
            cur = newcost[np.arange(bs), own]
            if adj_swaps:
                edge_delta[lo:hi] = newcost[r, colp[lo:hi]] - cur[r]
            newcost[np.arange(bs), own] = np.inf
            q = np.argmin(newcost, axis=1)  # first minimum: lowest index
            best_q[start:stop] = q
            best_delta[start:stop] = newcost[np.arange(bs), q] - cur
            del attach, newcost  # before the next block's product

        improved = False
        cand = np.flatnonzero(best_delta < -_GAIN_TOL)
        if cand.size:
            order = np.lexsort((cand, best_delta[cand]))
            for v in cand[order].tolist():
                p, q = int(proc[v]), int(best_q[v])
                if q == p or load[q] + sizes[v] > cap or not room.fits_move(v, q):
                    continue
                d = move_delta(v, q)
                if d < -_GAIN_TOL:
                    proc[v] = q
                    load[p] -= sizes[v]
                    load[q] += sizes[v]
                    room.move(v, p, q)
                    total_gain -= d
                    total_moves += 1
                    improved = True

        if full_swaps:
            av, bv, gains = _swap_candidates(rows, indices, weights, proc, Df)
            moves_before = total_moves
            if av.size:
                order = np.lexsort((bv, av, gains))
                for k in order.tolist():
                    v, u = int(av[k]), int(bv[k])
                    p, q = int(proc[v]), int(proc[u])
                    if p == q:
                        continue
                    if (
                        load[p] - sizes[v] + sizes[u] > cap
                        or load[q] - sizes[u] + sizes[v] > cap
                        or not room.fits_swap(v, u, p, q)
                    ):
                        continue
                    d = (
                        move_delta(v, q)
                        + move_delta(u, p)
                        + 2.0 * pair_w(v, u) * float(Df[p, q])
                    )
                    if d < -_GAIN_TOL:
                        proc[v], proc[u] = q, p
                        load[p] += sizes[u] - sizes[v]
                        load[q] += sizes[v] - sizes[u]
                        room.swap(v, u, p, q)
                        total_gain -= d
                        total_moves += 1
                        improved = True
            perf.count("mapper.refine.swap_applied", total_moves - moves_before)

        if adj_swaps:
            # Swap gain per CSR entry (v, u), v < u, via the reciprocal
            # entry: delta(v<->u) = delta_move(v->proc[u]) +
            # delta_move(u->proc[v]) + 2 w(v,u) D[pv, pu] (the shared edge
            # keeps its endpoints' processors, so its double-subtracted
            # contribution is added back).  The sum is built in place in
            # edge_delta, and every array of it is dropped before the next
            # pass's product.
            if mate is None:  # distinct keys: a (col, row) lexsort's order
                mate = np.argsort(indices.astype(np.intp) * n + rows, kind="stable")
            pv = proc[rows]
            pu = np.take(proc, indices, out=colp)
            edge_delta += edge_delta[mate]
            shared = 2.0 * weights
            shared *= Df[pv, pu]
            edge_delta += shared
            del shared
            sel = np.flatnonzero(
                (rows < indices) & (pv != pu) & (edge_delta < -_GAIN_TOL)
            )
            del pv, pu
            sel = sel[np.lexsort((indices[sel], rows[sel], edge_delta[sel]))]
            for e in sel.tolist():
                v, u = int(rows[e]), int(indices[e])
                p, q = int(proc[v]), int(proc[u])
                if p == q:
                    continue
                if (
                    load[p] - sizes[v] + sizes[u] > cap
                    or load[q] - sizes[u] + sizes[v] > cap
                    or not room.fits_swap(v, u, p, q)
                ):
                    continue
                d = (
                    move_delta(v, q)
                    + move_delta(u, p)
                    + 2.0 * float(weights[e]) * float(Df[p, q])
                )
                if d < -_GAIN_TOL:
                    proc[v], proc[u] = q, p
                    load[p] += sizes[u] - sizes[v]
                    load[q] += sizes[v] - sizes[u]
                    room.swap(v, u, p, q)
                    total_gain -= d
                    total_moves += 1
                    improved = True
            del sel

        if not improved:
            break
    return total_moves, total_gain


def refine(
    mapping: Mapping,
    method: str = "delta_gain",
    *,
    load_bound: int | None = None,
    max_passes: int = 4,
    swaps: bool = True,
) -> Mapping:
    """Vectorized delta-gain refinement of a finished mapping.

    Returns a new :class:`Mapping` whose aggregate communication cost
    (:func:`repro.metrics.comm_cost`) is never higher than the input's;
    the input is not mutated.  Routes are *not* carried over (moving tasks
    invalidates them) -- in the pipeline the ``route`` stage runs after
    ``refine``, standalone callers re-route with MM-Route if they need
    routes.

    Parameters
    ----------
    load_bound:
        Per-processor task cap during refinement.  Defaults to
        ``max(ceil(n / P), heaviest current processor)`` so an already
        unbalanced input is refined in place rather than rejected, and
        balance never deteriorates.
    max_passes:
        Upper bound on move/swap sweeps; each sweep stops early when no
        candidate survives revalidation.
    swaps:
        Also consider pairwise swaps (needed to escape move-blocked states
        where every processor is at the bound): of any two tasks up to
        ``_FULL_SWAP_N`` (2048) tasks, of adjacent tasks above.

    On a machine with capacity vectors (``mapping.topology.capacities``)
    the refinement is automatically capacity-safe: no applied move or
    swap pushes any processor past any resource budget (and a processor
    already over budget only sheds demand).
    """
    if method not in _REFINE_METHODS:
        raise ValueError(
            f"unknown refinement method {method!r}; choose from {_REFINE_METHODS}"
        )
    tg, topology = mapping.task_graph, mapping.topology
    csr = tg.csr()
    out = mapping.copy()
    out.provenance = mapping.provenance + "+delta_gain"
    out.routes = {}
    stats = dict(mapping.map_stats or {})
    if csr.n == 0:
        out.map_stats = stats
        return out
    with perf.span("mapper.refine.delta_gain"):
        pidx = topology.proc_indices
        proc = np.fromiter(
            (pidx[mapping.assignment[t]] for t in csr.tasks),
            dtype=np.intp,
            count=csr.n,
        )
        sizes = np.ones(csr.n, dtype=np.int64)
        current_max = int(np.bincount(proc, minlength=topology.n_processors).max())
        default = math.ceil(csr.n / topology.n_processors)
        cap = load_bound if load_bound is not None else max(default, current_max)
        capacity = CapacityContext.of(tg, topology)
        moves, gain = _delta_gain_arrays(
            csr.indptr, csr.indices, csr.weights, sizes, proc,
            topology.distance_matrix(), cap,
            Headroom.of_nodes(capacity.cap, capacity.dem, proc),
            max_passes=max_passes, swaps=swaps,
        )
    perf.count("map.refine_moves", moves)
    perf.count("map.refine_gain", gain)
    stats["map.refine_moves"] = stats.get("map.refine_moves", 0) + moves
    stats["map.refine_gain"] = stats.get("map.refine_gain", 0.0) + gain
    out.map_stats = stats
    out.assignment = {
        t: topology.proc_by_index(p) for t, p in zip(csr.tasks, proc.tolist())
    }
    return out


def refine_contraction(
    tg: TaskGraph,
    clusters: Sequence[Sequence[Task]],
    *,
    load_bound: int,
    max_passes: int = 8,
    capacity: CapacityContext | None = None,
) -> list[list[Task]]:
    """Greedy single-task moves reducing total IPC under the load bound.

    Each pass scans every task; a task moves to the cluster it communicates
    with most (counting both directions) when the move strictly reduces the
    cut weight and the target has spare capacity.  Passes repeat until a
    full sweep makes no move or *max_passes* is reached.  The result never
    has higher IPC than the input.  A changed cluster must also keep an
    exists-fit under *capacity*, the machine's
    :class:`~repro.arch.capacity.CapacityContext` (none given: the
    processors declare no capacities).
    """
    capacity = capacity or CapacityContext(None, tg)
    owner: dict[Task, int] = {}
    sets: list[set[Task]] = [set(c) for c in clusters]
    for ci, cluster in enumerate(sets):
        for t in cluster:
            owner[t] = ci
    cap_ok = capacity.cluster_fits

    # Adjacency with volumes, both directions folded.
    adj: dict[Task, dict[Task, float]] = {t: {} for t in tg.nodes}
    for _, e in tg.all_edges():
        if e.src == e.dst:
            continue
        adj[e.src][e.dst] = adj[e.src].get(e.dst, 0.0) + e.volume
        adj[e.dst][e.src] = adj[e.dst].get(e.src, 0.0) + e.volume

    def attachments(t: Task) -> dict[int, float]:
        attach: dict[int, float] = {}
        for nb, w in adj[t].items():
            attach[owner[nb]] = attach.get(owner[nb], 0.0) + w
        return attach

    for _ in range(max_passes):
        moved = False
        # Phase 1: single-task moves into clusters with spare capacity.
        for t in tg.nodes:
            home = owner[t]
            if len(sets[home]) <= 1:
                continue  # emptying a cluster would change the count
            attach = attachments(t)
            home_attach = attach.get(home, 0.0)
            best_gain = 0.0
            best_target = None
            for target, w in attach.items():
                if target == home or len(sets[target]) >= load_bound:
                    continue
                gain = w - home_attach
                if gain > best_gain + 1e-12 and cap_ok(sets[target] | {t}):
                    best_gain = gain
                    best_target = target
            if best_target is not None:
                sets[home].discard(t)
                sets[best_target].add(t)
                owner[t] = best_target
                moved = True
        # Phase 2: KL pair swaps (work even when every cluster is full).
        # gain(t <-> u) = D_t + D_u - 2 w(t,u), D_x the external-minus-
        # internal attachment toward the partner's cluster.
        for t in tg.nodes:
            home = owner[t]
            attach = attachments(t)
            targets = sorted(
                (c for c in attach if c != home),
                key=lambda c: -attach[c],
            )[:2]
            for target in targets:
                d_t = attach[target] - attach.get(home, 0.0)
                best = None
                for u in sorted(sets[target], key=repr):
                    au = attachments(u)
                    d_u = au.get(home, 0.0) - au.get(target, 0.0)
                    gain = d_t + d_u - 2.0 * adj[t].get(u, 0.0)
                    if gain > 1e-12 and (best is None or gain > best[0]):
                        if not (
                            cap_ok((sets[home] - {t}) | {u})
                            and cap_ok((sets[target] - {u}) | {t})
                        ):
                            continue
                        best = (gain, u)
                if best is not None:
                    _, u = best
                    sets[home].discard(t)
                    sets[target].discard(u)
                    sets[home].add(u)
                    sets[target].add(t)
                    owner[t], owner[u] = target, home
                    moved = True
                    break
        if not moved:
            break
    return [sorted(c, key=repr) for c in sets if c]


def refine_embedding(
    tg: TaskGraph,
    clusters: Sequence[Sequence[Task]],
    placement: dict[int, Proc],
    topology: Topology,
    *,
    max_passes: int = 8,
) -> dict[int, Proc]:
    """2-opt swaps of cluster placements reducing weighted distance.

    Considers every pair of clusters (and every cluster with every free
    processor) and applies the best-improvement swap per pass until no
    swap helps.  Never increases total distance-weighted communication.
    A move or swap is only considered when every cluster still fits its
    (new) processor's capacity vectors (``topology.capacities``), so a
    feasible input placement stays feasible.
    """
    capacity = CapacityContext.of(tg, topology)
    return _refine_embedding(tg, clusters, placement, capacity, max_passes)


def _refine_embedding(tg, clusters, placement, capacity: CapacityContext, max_passes=8):
    """:func:`refine_embedding` on the machine *capacity* is bound to."""
    from repro.mapper.embedding.nn_embed import cluster_weights

    topology = capacity.topology
    feas = capacity.cluster_masks(clusters).tolist()
    proc_order = topology.proc_indices
    # Rows of Python ints: the loops below read millions of distances, and
    # a list index costs a third of a ``topology.distance`` call.
    hops = topology.distance_matrix().tolist()

    def fits(c: int, proc: Proc) -> bool:
        return feas[c][proc_order[proc]]

    weights = cluster_weights(tg, clusters)
    placement = dict(placement)
    n = len(clusters)
    neighbours: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for (i, j), w in weights.items():
        neighbours[i].append((j, w))
        neighbours[j].append((i, w))

    def cost_of(c: int, proc: Proc) -> float:
        row = hops[proc_order[proc]]
        return sum(
            w * row[proc_order[placement[o]]]
            for o, w in neighbours[c]
            if o != c
        )

    free = [p for p in topology.processors if p not in set(placement.values())]

    for _ in range(max_passes):
        best_delta = 0.0
        best_action = None
        for a in range(n):
            pa = placement[a]
            # Move to a free processor.
            for p in free:
                if not fits(a, p):
                    continue
                delta = cost_of(a, p) - cost_of(a, pa)
                if delta < best_delta - 1e-12:
                    best_delta = delta
                    best_action = ("move", a, p)
            # Swap with another cluster.
            for b in range(a + 1, n):
                pb = placement[b]
                if not (fits(a, pb) and fits(b, pa)):
                    continue
                before = cost_of(a, pa) + cost_of(b, pb)
                placement[a], placement[b] = pb, pa
                after = cost_of(a, pb) + cost_of(b, pa)
                placement[a], placement[b] = pa, pb
                # Shared edge counted twice on both sides: deltas cancel.
                delta = after - before
                if delta < best_delta - 1e-12:
                    best_delta = delta
                    best_action = ("swap", a, b)
        if best_action is None:
            break
        if best_action[0] == "move":
            _, a, p = best_action
            free.remove(p)
            free.append(placement[a])
            placement[a] = p
        else:
            _, a, b = best_action
            placement[a], placement[b] = placement[b], placement[a]
    return placement
