"""Multilevel contraction + placement for very large task graphs.

MWM-Contract's blossom matchings are exact but super-linear; at
10^5..10^6 tasks the mapping problem needs the classic multilevel scheme
(Hendrickson-Leland / METIS / VieM): coarsen the task graph level by
level with heavy-edge matching until at most ``P`` clusters remain, place
the coarsest graph with NN-Embed, then walk back up the hierarchy
projecting the placement and running the vectorized delta-gain refiner
(:func:`repro.mapper.refine._delta_gain_arrays`) at every level.

Everything operates on the :class:`~repro.graph.csr.CSRGraph` flat
arrays -- no per-task Python objects are created until the final
assignment dict.  All orderings are deterministic numpy lexsorts with
task-index tie-breaks, so results are independent of PYTHONHASHSEED.

Entry point: :func:`multilevel_assignment`, tabled as the
``"multilevel"`` strategy (last in rank, opt-in -- it never runs under
``strategy="auto"`` and is excluded from the default portfolio so the
small-graph golden results stay untouched).

Capacity awareness: the machine's per-task demand matrix
(:class:`~repro.arch.capacity.CapacityContext`) is folded up the
hierarchy alongside the node sizes, so matching, packing, rebalance, and
the per-level delta-gain refiner all see exact coarse demand vectors
through an index-space :class:`~repro.arch.capacity.Headroom`.  Matching
only merges pairs whose combined demand still fits on at least one
processor; packing and rebalance keep every group/processor within its
capacity vector.  On a capacity-free machine (R = 0) every one of those
tests answers "fits" without arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Hashable

import numpy as np

from repro.arch.capacity import CapacityContext, Headroom
from repro.arch.topology import Topology
from repro.graph.csr import adjacency as csr_adjacency
from repro.graph.taskgraph import TaskGraph
from repro.util import perf

__all__ = ["multilevel_assignment"]

Task = Hashable
Proc = Hashable


# ----------------------------------------------------------------------
# one level of the hierarchy, as flat arrays
# ----------------------------------------------------------------------

class _Level:
    """CSR adjacency + folded pairs + node sizes of one hierarchy level.

    *adjacency* is ``(indptr, indices, weights)`` when the caller already
    holds them for these pairs -- level 0 takes the task graph's CSR
    bundle, which :func:`~repro.graph.csr.build_csr` sorted the same way.
    """

    __slots__ = ("n", "pu", "pv", "pw", "indptr", "indices", "weights", "sizes")

    def __init__(
        self,
        n: int,
        pu: np.ndarray,
        pv: np.ndarray,
        pw: np.ndarray,
        sizes: np.ndarray,
        adjacency: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        self.n = n
        self.pu, self.pv, self.pw = pu, pv, pw
        self.sizes = sizes
        self.indptr, self.indices, self.weights = (
            adjacency if adjacency is not None else csr_adjacency(n, pu, pv, pw)
        )


def _match(
    level: _Level, bound: int, dem: np.ndarray, cap: np.ndarray
) -> np.ndarray:
    """Greedy heavy-edge matching; returns the partner per node.

    Folded pairs are visited in ``(weight desc, u, v)`` order; a pair
    matches when both endpoints are still free and the merged size stays
    within *bound*.  Unmatched nodes partner with themselves.  (Mutual
    lowest-index proposals look tempting to vectorize but chain on
    uniform weights -- on a path graph they match exactly one pair per
    round -- so the sequential sweep, which halves a path in one round,
    wins outright.)  Only pairs whose merged demand (*dem*, ``(n, R)``)
    fits on at least one processor (*cap*, ``(P, R)``) are visited, so
    coarse nodes never outgrow the machine.
    """
    n = level.n
    partner = np.arange(n, dtype=np.intp)
    if not level.pu.size:
        return partner
    order = np.lexsort((level.pv, level.pu, -level.pw))
    pu, pv = level.pu[order], level.pv[order]
    fit = Headroom.of_nodes(cap, dem).pairs_fit(pu, pv)
    us, vs = pu[fit].tolist(), pv[fit].tolist()
    sizes = level.sizes.tolist()
    matched = bytearray(n)
    out = partner.tolist()
    for u, v in zip(us, vs):
        if matched[u] or matched[v] or sizes[u] + sizes[v] > bound:
            continue
        matched[u] = matched[v] = 1
        out[u] = v
        out[v] = u
    return np.asarray(out, dtype=np.intp)


def _coarsen(level: _Level, partner: np.ndarray) -> tuple[_Level, np.ndarray]:
    """Contract matched pairs; returns the coarse level and parent array."""
    leader = np.minimum(np.arange(level.n, dtype=np.intp), partner)
    is_leader = leader == np.arange(level.n, dtype=np.intp)
    new_id = np.cumsum(is_leader, dtype=np.intp) - 1
    parent = new_id[leader]
    n_c = int(is_leader.sum())
    sizes = np.bincount(parent, weights=level.sizes, minlength=n_c).astype(
        np.int64
    )
    cu = parent[level.pu]
    cv = parent[level.pv]
    cross = cu != cv
    lo = np.minimum(cu, cv)[cross]
    hi = np.maximum(cu, cv)[cross]
    w = level.pw[cross]
    if lo.size:
        key = lo * np.intp(n_c) + hi
        uniq, inverse = np.unique(key, return_inverse=True)
        sums = np.bincount(inverse, weights=w, minlength=uniq.size)
        pu = (uniq // np.intp(n_c)).astype(np.intp)
        pv = (uniq % np.intp(n_c)).astype(np.intp)
        pw = sums
    else:
        pu = np.empty(0, dtype=np.intp)
        pv = np.empty(0, dtype=np.intp)
        pw = np.empty(0, dtype=np.float64)
    return _Level(n_c, pu, pv, pw, sizes), parent


def _pack(
    level: _Level,
    n_procs: int,
    bound: int,
    dem: np.ndarray,
    cap: np.ndarray,
) -> np.ndarray:
    """Group a stalled level into at most *n_procs* groups, aiming at
    size <= bound.

    Greedy attachment first-fit: nodes in (size desc, index) order each
    join the feasible existing group they communicate most with (ties:
    lowest group id), opening a new group when every attached group is
    full or unattached.  When nothing fits, the node overflows to the
    least-loaded group rather than failing: with uniform coarse sizes the
    bin packing is often infeasible outright (even-size items cannot
    reach an odd bound, so capacity quantises below the task count), and
    the uncoarsening rebalance repairs the small overflow at finer
    granularity -- guaranteed at level 0, where sizes are all 1.

    Joining an existing group also requires the grown group's demand
    vector (rows of *dem*) to keep an exists-fit on *cap*; the scalar
    overflow fallback stays best-effort (rebalance repairs it
    placement-aware).
    """
    n = level.n
    group = np.full(n, -1, dtype=np.intp)
    load = np.zeros(n_procs, dtype=np.int64)
    room = Headroom.of_nodes(cap, dem)  # rows are groups
    n_groups = 0
    order = np.lexsort((np.arange(n), -level.sizes))
    for v in order.tolist():
        s, e = level.indptr[v], level.indptr[v + 1]
        nb_groups = group[level.indices[s:e]]
        placed = nb_groups >= 0
        best = -1
        if placed.any():
            attach = np.bincount(
                nb_groups[placed],
                weights=level.weights[s:e][placed],
                minlength=n_groups,
            )
            fits = room.exists_fit(load[:n_groups] + level.sizes[v] <= bound, v)
            cand = np.flatnonzero(fits & (attach > 0))
            if cand.size:
                best = int(cand[np.argmax(attach[cand])])
        if best < 0:
            if n_groups < n_procs:
                best = n_groups
                n_groups += 1
            else:
                fits = np.flatnonzero(load + level.sizes[v] <= bound)
                # Overflow: least-loaded group (lowest id on ties).
                best = int(fits[0]) if fits.size else int(np.argmin(load))
        group[v] = best
        load[best] += level.sizes[v]
        room.put(v, best)
    return group


def _capacity_spread(
    level: _Level,
    group: np.ndarray,
    bound: int,
    dem: np.ndarray,
    cap: np.ndarray,
) -> None:
    """Repair packed groups whose demand vector fits no processor.

    ``_pack``'s overflow fallback is capacity-blind by design (the scalar
    overflow it leaves is repaired placement-aware during uncoarsening),
    but a group that *exists-fits nowhere* would stop NN-Embed cold
    before any rebalance runs.  Nodes are moved out of such groups,
    largest demand first, into the least-loaded group that stays
    exists-fit -- preferring targets with count room, relaxing the count
    bound when feasibility demands it.  Raises
    :class:`~repro.mapper.mapping.NotApplicableError` when no sequence
    of single-node moves restores an exists-fit.
    """
    n_groups = int(group.max()) + 1
    room = Headroom.of_nodes(cap, dem, group)  # rows are groups
    load = np.zeros(n_groups, dtype=np.int64)
    np.add.at(load, group, level.sizes)
    others = np.arange(n_groups)
    for g in range(n_groups):
        while not room.fits_anywhere(g):
            order = sorted(
                np.flatnonzero(group == g).tolist(),
                key=lambda v: (-float(dem[v].sum()), v),
            )
            moved = False
            for v in order:
                ok = room.exists_fit(others != g, v)
                roomy = np.flatnonzero(ok & (load + level.sizes[v] <= bound))
                targets = roomy if roomy.size else np.flatnonzero(ok)
                if not targets.size:
                    continue
                q = int(targets[np.argmin(load[targets])])
                group[v] = q
                room.move(v, g, q)
                load[g] -= level.sizes[v]
                load[q] += level.sizes[v]
                moved = True
                break
            if not moved:
                from repro.mapper.mapping import NotApplicableError

                raise NotApplicableError(
                    f"packed cluster {g} overflows every processor's "
                    "capacity vectors and no single-node move repairs it"
                )


def _rebalance(
    level: _Level,
    proc: np.ndarray,
    D: np.ndarray,
    cap: int,
    dem: np.ndarray,
    capv: np.ndarray,
) -> int:
    """Repair load-bound violations left by relaxed packing; returns moves.

    For each overloaded processor (ascending index), repeatedly move the
    resident node whose cheapest feasible relocation costs least (ties:
    node index, then target index) until the processor fits or nothing
    can move.  Best-effort at coarse levels -- granularity may leave
    residual overflow -- and guaranteed to reach feasibility at level 0,
    where all sizes are 1 and ``n <= P * cap``.

    A processor exceeding any capacity vector (*capv*, against the
    nodes' demand rows *dem*) counts as overloaded too, and a relocation
    target must hold the moved node's demand on top of what it has.
    """
    n_procs = int(D.shape[0])
    load = np.zeros(n_procs, dtype=np.int64)
    np.add.at(load, proc, level.sizes)
    room = Headroom.of_nodes(capv, dem, proc)
    Df = D.astype(np.float64, copy=False)
    proc_ids = np.arange(n_procs)
    moves = 0
    overloaded = np.flatnonzero(room.over_rows(load > cap)).tolist()
    for p in overloaded:
        while load[p] > cap or room.over(p):
            best: tuple[float, int, int] | None = None
            for v in np.flatnonzero(proc == p).tolist():
                s, e = level.indptr[v], level.indptr[v + 1]
                nb = level.indices[s:e]
                if nb.size:
                    costs = Df[:, proc[nb]] @ level.weights[s:e]
                    costs -= costs[p]
                else:
                    costs = np.zeros(n_procs)
                feas = np.flatnonzero(room.holding(
                    (load + level.sizes[v] <= cap) & (proc_ids != p), v
                ))
                if not feas.size:
                    continue
                q = int(feas[np.argmin(costs[feas])])
                item = (float(costs[q]), v, q)
                if best is None or item < best:
                    best = item
            if best is None:
                break
            _, v, q = best
            proc[v] = q
            load[p] -= level.sizes[v]
            load[q] += level.sizes[v]
            room.move(v, p, q)
            moves += 1
    return moves


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def multilevel_assignment(
    tg: TaskGraph,
    topology: Topology,
    *,
    load_bound: int | None = None,
    refine_passes: int = 2,
) -> tuple[dict[Task, Proc], dict[str, float]]:
    """Map *tg* onto *topology* with the multilevel scheme.

    Returns ``(assignment, stats)`` where *stats* carries the counters the
    METRICS layer surfaces (``map.coarsen_levels``, ``map.refine_moves``,
    ``map.refine_gain``).  Deterministic for a fixed input.  The machine's
    resource vectors (``topology.capacities``) hold at every stage -- see
    the module docstring.
    """
    capacity = CapacityContext.of(tg, topology)
    return _multilevel_assignment(tg, capacity, load_bound, refine_passes)


def _multilevel_assignment(tg, capacity, load_bound=None, refine_passes=2):
    """:func:`multilevel_assignment` on the machine *capacity* is bound to."""
    topology = capacity.topology
    n_procs = topology.n_processors
    csr = tg.csr()
    n = csr.n
    bound = load_bound if load_bound is not None else math.ceil(
        max(n, 1) / n_procs
    )
    if bound * n_procs < n:
        raise ValueError(
            f"load bound {bound} cannot fit {n} tasks on {n_procs} processors"
        )
    if capacity.unplaceable():
        from repro.mapper.mapping import NotApplicableError

        raise NotApplicableError(
            "some task's demand vector fits no processor of "
            f"{topology.name!r}"
        )
    stats: dict[str, float] = {
        "map.coarsen_levels": 0,
        "map.refine_moves": 0,
        "map.refine_gain": 0.0,
    }
    if n == 0:
        return {}, stats

    with perf.span("mapper.multilevel"):
        # -- coarsen: heavy-edge matching until <= P clusters or stall ----
        # The cluster-size cap during matching trades hierarchy depth
        # against packing granularity, and the best setting flips with the
        # per-processor load (measured across mesh/hypercube/tree inputs
        # at 1k..100k tasks): small loads do best coarsening all the way
        # to the bound -- the placement then works on ~P nodes and the
        # full-swap refiner polishes it -- while large loads do best
        # stalling at quarter-bound granularity, leaving the packer and
        # refiner several nodes per processor to work with.
        match_bound = bound if bound <= 32 else max(8, bound // 4)
        levels = [
            _Level(
                n, csr.edge_u, csr.edge_v, csr.edge_w,
                np.ones(n, dtype=np.int64),
                (csr.indptr, csr.indices, csr.weights),
            )
        ]
        parents: list[np.ndarray] = []
        capv = capacity.cap
        dems: list[np.ndarray] = [capacity.dem]
        while levels[-1].n > n_procs:
            partner = _match(levels[-1], match_bound, dems[-1], capv)
            coarse, parent = _coarsen(levels[-1], partner)
            if coarse.n == levels[-1].n:
                break  # matching stalled; _pack takes it from here
            levels.append(coarse)
            parents.append(parent)
            d = np.zeros((coarse.n, capv.shape[1]))
            np.add.at(d, parent, dems[-1])
            dems.append(d)

        # -- group the top level into <= P clusters -----------------------
        # When the coarsening loop reached <= P nodes, packing is the
        # identity; on a stall, greedy attachment first-fit groups the
        # level, overflowing past the bound where granularity forces it
        # (the uncoarsening rebalance repairs that below).
        top = levels[-1]
        if top.n <= n_procs:
            pack = np.arange(top.n, dtype=np.intp)
        else:
            pack = _pack(top, n_procs, bound, dems[-1], capv)
            _capacity_spread(top, pack, bound, dems[-1], capv)
        stats["map.coarsen_levels"] = len(levels) - 1
        perf.count("map.coarsen_levels", len(levels) - 1)

        # -- initial placement: NN-Embed on the final clusters ------------
        ancestor = np.arange(n, dtype=np.intp)
        for parent in parents:
            ancestor = parent[ancestor]
        group_of_task = pack[ancestor]
        n_groups = int(group_of_task.max()) + 1
        members: list[list[Task]] = [[] for _ in range(n_groups)]
        for i, g in enumerate(group_of_task.tolist()):
            members[g].append(csr.tasks[i])
        from repro.mapper.embedding.nn_embed import _nn_embed

        placement = _nn_embed(tg, members, capacity)
        pidx = topology.proc_indices
        group_proc = np.fromiter(
            (pidx[placement[g]] for g in range(n_groups)),
            dtype=np.intp,
            count=n_groups,
        )

        # -- uncoarsen: project + delta-gain refine at every level --------
        from repro.mapper.refine import _delta_gain_arrays

        # float64 once per run: both kernels read it as is, where an int
        # matrix would be copied on every level.
        D = topology.distance_matrix().astype(np.float64)
        proc = group_proc[pack]
        for lev in range(len(levels) - 1, -1, -1):
            level = levels[lev]
            # Feasibility first (packing may have overflowed the bound;
            # level 0 is guaranteed to end feasible), then quality.
            _rebalance(level, proc, D, bound, dems[lev], capv)
            moves, gain = _delta_gain_arrays(
                level.indptr, level.indices, level.weights,
                level.sizes, proc, D, bound,
                Headroom.of_nodes(capv, dems[lev], proc),
                max_passes=refine_passes,
            )
            stats["map.refine_moves"] += moves
            stats["map.refine_gain"] += gain
            if lev:
                proc = proc[parents[lev - 1]]
        perf.count("map.refine_moves", stats["map.refine_moves"])
        perf.count("map.refine_gain", stats["map.refine_gain"])

    assignment = {
        t: topology.proc_by_index(p) for t, p in zip(csr.tasks, proc.tolist())
    }
    return assignment, stats
