"""Algorithm MM-Route: contention-minimising routing via maximal matching.

Section 4.4.  Each communication phase is a set of synchronous messages;
MM-Route distributes each phase's messages over the network links so that
few messages share a link.  Per phase, hop by hop:

1. Every message that has not yet reached its destination processor has a
   set of *candidate links* -- the first links of its remaining shortest
   routes (the ``next_hops`` sets of the topology).
2. Build the bipartite graph ``G = (X, Y, E)``: ``X`` = messages, ``Y`` =
   links, ``E`` = candidacy (Fig 6c).
3. Find a maximal matching; matched messages advance over their matched
   link.  Since a matching uses each link at most once, all messages moved
   in one matching round proceed without contention.
4. If some messages remain unmatched (``M != |X|``), remove the matched
   messages and repeat the matching on the rest -- each extra round adds
   one unit of contention on the links it reuses.
5. When every message has advanced one hop, recompute candidates and
   continue until all messages arrive.

The matching is the greedy maximal matching, processing most-constrained
messages (fewest candidate links) first; the whole loop is the paper's
``O(|X|^2 |Y|)``.

Determinism: among a message's equally loaded free candidate links, the
one with the smallest stable link id (the topology's 1-based numbering)
wins, so routing is reproducible for any processor label type -- ints,
tuples, strings -- without ever comparing or ``repr``-sorting labels.

The phase loop is integer-indexed: messages carry stable processor
indices and candidate sets come from the topology's precomputed
per-``(src, dst)`` next-hop link-id tables
(:meth:`repro.arch.Topology.next_hop_links`), so the inner matching loop
touches only small ints and flat arrays, and the paths leave as one packed
index-array pair per phase (:class:`repro.mapper.mapping.RouteTable`),
never as a label list per edge.  The label-based implementation
lives in ``tests/oracles/`` as the executable specification; the two make
identical matching decisions and are pinned route-identical by
``tests/test_vectorized_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable, Mapping

import numpy as np

from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import RouteTable
from repro.util import perf

__all__ = ["mm_route", "route_edges", "RoutingResult"]

Task = Hashable
Proc = Hashable
RouteKey = tuple[str, int]


@dataclass
class RoutingResult:
    """Routes plus the per-phase matching statistics MM-Route produces.

    Attributes
    ----------
    routes:
        ``(phase, edge_index) -> processor path`` (single-element path for
        intra-processor messages); the routers hand over a
        :class:`~repro.mapper.mapping.RouteTable`.
    rounds:
        ``phase -> list of matching-round counts``, one entry per hop step.
        A hop step needing ``r`` rounds means the most contended link in
        that step carries ``r`` messages.
    """

    routes: Mapping[RouteKey, list[Proc]] = field(default_factory=dict)
    rounds: dict[str, list[int]] = field(default_factory=dict)

    def max_rounds(self, phase: str) -> int:
        """Worst matching-round count over the phase's hop steps (>= 1)."""
        rs = self.rounds.get(phase, [])
        return max(rs, default=1)


def _route_phase_table(
    topology: Topology,
    src: list[int],
    dst: list[int],
    *,
    initial_load: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Table-driven phase router over stable processor indices.

    Message ``m`` goes from processor index ``src[m]`` to ``dst[m]``; a
    source of -1 is an edge left unrouted.  Returns the paths packed as
    ``(ptr, hops)`` (:func:`repro.mapper.mapping.pack_paths`, an unrouted
    edge an empty range) and the matching rounds of every hop step.
    Candidate links come from the topology's precomputed next-hop link-id
    tables and all bookkeeping is by integer link id, in lists indexed by
    message id.
    *initial_load* optionally seeds the cumulative per-link load (1-based
    link-id indexed) so partial re-routing sees the traffic of routes it is
    keeping.
    """
    position = list(src)
    pending = [m for m, (s, d) in enumerate(zip(src, dst)) if s != d and s >= 0]
    steps: list[tuple[list[int], list[int]]] = []  # (who moved, to where)
    rounds_per_hop: list[int] = []
    # Cumulative per-link use this phase, indexed by 1-based link id.
    if initial_load is None:
        phase_load = [0] * (topology.n_links + 1)
    else:
        phase_load = list(initial_load)
    next_hop_links = topology.next_hop_links

    while pending:
        # Candidate (next_index, link_id) pairs for every pending message.
        candidates: dict[int, tuple[tuple[int, int], ...]] = {
            m: next_hop_links(position[m], dst[m]) for m in pending
        }
        # Matching rounds until every pending message is assigned a link.
        unassigned = list(pending)
        assigned: dict[int, tuple[int, int]] = {}
        rounds = 0
        while unassigned:
            rounds += 1
            used = bytearray(topology.n_links + 1)
            still: list[int] = []
            # Most-constrained messages first makes the greedy matching
            # cover more messages per round; among a message's free
            # candidate links, the least loaded so far in this phase wins,
            # with the smallest stable link id breaking ties.
            for m in sorted(unassigned, key=lambda m: (len(candidates[m]), m)):
                best: tuple[int, int] | None = None
                best_key: tuple[int, int] | None = None
                for nb, lid in candidates[m]:
                    if used[lid]:
                        continue
                    key = (phase_load[lid], lid)
                    if best_key is None or key < best_key:
                        best, best_key = (nb, lid), key
                if best is None:
                    still.append(m)
                else:
                    nb, lid = best
                    used[lid] = 1
                    assigned[m] = best
                    phase_load[lid] += 1
            if len(still) == len(unassigned):
                # Should be impossible (every message has >= 1 candidate on
                # a connected topology), but guard against livelock.
                raise RuntimeError("MM-Route matching failed to progress")
            unassigned = still
        rounds_per_hop.append(rounds)
        # Advance every message one hop along its assigned link.
        moved = [assigned[m][0] for m in pending]
        steps.append((pending, moved))
        next_pending: list[int] = []
        for m, nxt in zip(pending, moved):
            position[m] = nxt
            if nxt != dst[m]:
                next_pending.append(m)
        pending = next_pending
    # Pack: a path is its source, then one processor per hop step it moved.
    first = np.asarray(src, dtype=np.int64)
    lengths = (first >= 0).astype(np.int64)
    for who, _ in steps:
        lengths[who] += 1
    ptr = np.zeros(first.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    hops = np.empty(int(ptr[-1]), dtype=np.int32)
    routed = np.flatnonzero(lengths)
    hops[ptr[routed]] = first[routed]
    for k, (who, moved) in enumerate(steps, 1):
        hops[ptr[who] + k] = moved
    return ptr, hops, rounds_per_hop


def route_edges(
    tg: TaskGraph,
    topology: Topology,
    assignment: Mapping[Task, Proc],
    keys: Iterable[RouteKey],
    *,
    kept_routes: Mapping[RouteKey, list[Proc]] | None = None,
) -> RoutingResult:
    """Route only the given ``(phase, edge_index)`` subset of *tg*'s edges.

    The incremental-repair entry point: after a fault, only routes crossing
    dead or degraded hardware (plus routes of relocated tasks) need
    re-routing, so the full per-phase matching loop runs over just those
    messages on the degraded topology's next-hop tables.

    *kept_routes* are the surviving routes the caller is **not** touching;
    their per-link traffic seeds the phase-load counters so the matching's
    least-loaded tie-break steers rerouted messages away from links that
    are already busy.  Returned rounds cover only the rerouted messages.
    """
    by_phase: dict[str, list[int]] = {}
    for phase_name, idx in keys:
        by_phase.setdefault(phase_name, []).append(idx)
    phases: dict = {}
    rounds: dict[str, list[int]] = {}
    index_of = topology.index_of
    with perf.span("mapper.route_edges"):
        for phase_name in sorted(by_phase):
            edges = tg.comm_phase(phase_name).edges
            initial_load = None
            if kept_routes:
                initial_load = [0] * (topology.n_links + 1)
                for (kp, _), route in kept_routes.items():
                    if kp == phase_name:
                        for lid in topology.route_link_ids(route):
                            initial_load[lid] += 1
            src, dst = [-1] * len(edges), [-1] * len(edges)
            for idx in by_phase[phase_name]:
                src[idx] = index_of(assignment[edges[idx].src])
                dst[idx] = index_of(assignment[edges[idx].dst])
            ptr, hops, rounds[phase_name] = _route_phase_table(
                topology, src, dst, initial_load=initial_load
            )
            phases[phase_name] = ptr, hops
    return RoutingResult(RouteTable(tg, topology, phases), rounds)


def mm_route(
    tg: TaskGraph,
    topology: Topology,
    assignment: Mapping[Task, Proc],
) -> RoutingResult:
    """Route every communication phase of *tg* under *assignment*.

    Every produced route is a shortest path (each hop strictly decreases
    the distance to the destination), so the dilation of each edge equals
    the processor distance of its endpoints.
    """
    phases: dict = {}
    rounds: dict[str, list[int]] = {}
    index_of = topology.index_of
    with perf.span("mapper.mm_route"):
        for phase_name, phase in tg.comm_phases.items():
            edges = phase.edges
            ptr, hops, rounds[phase_name] = _route_phase_table(
                topology,
                [index_of(assignment[e.src]) for e in edges],
                [index_of(assignment[e.dst]) for e in edges],
            )
            phases[phase_name] = ptr, hops
    return RoutingResult(RouteTable(tg, topology, phases), rounds)
