"""Label-based MM-Route (moved from ``repro.mapper.routing.mm_route``)."""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.routing.mm_route import RoutingResult

Task = Hashable
Proc = Hashable


def _route_phase(
    topology: Topology,
    messages: list[tuple[int, Proc, Proc]],
) -> tuple[dict[int, list[Proc]], list[int]]:
    """Route one phase's messages; returns (paths by message id, rounds per hop).

    Reference kernel: operates on processor labels directly, consulting
    :meth:`Topology.next_hops` per step.  Kept as the executable
    specification the table kernel is tested against.
    """
    paths: dict[int, list[Proc]] = {idx: [src] for idx, src, _ in messages}
    position: dict[int, Proc] = {idx: src for idx, src, _ in messages}
    dest: dict[int, Proc] = {idx: dst for idx, _, dst in messages}
    pending = sorted(idx for idx, src, dst in messages if src != dst)
    rounds_per_hop: list[int] = []
    phase_load: dict[int, int] = {}  # cumulative use this phase, by link id

    while pending:
        # Candidate (next hop, link id) pairs for every pending message.
        candidates: dict[int, list[tuple[Proc, int]]] = {}
        for m in pending:
            here, there = position[m], dest[m]
            candidates[m] = [
                (nb, topology.link_id(here, nb))
                for nb in topology.next_hops(here, there)
            ]
        # Matching rounds until every pending message is assigned a link.
        unassigned = list(pending)
        assigned: dict[int, tuple[Proc, int]] = {}
        rounds = 0
        while unassigned:
            rounds += 1
            used_links: set[int] = set()
            still: list[int] = []
            # Most-constrained messages first makes the greedy matching
            # cover more messages per round; among a message's free
            # candidate links, the least loaded so far in this phase wins,
            # with the smallest stable link id breaking ties.
            for m in sorted(unassigned, key=lambda m: (len(candidates[m]), m)):
                free = [
                    (nb, lid)
                    for nb, lid in candidates[m]
                    if lid not in used_links
                ]
                if not free:
                    still.append(m)
                else:
                    nb, lid = min(
                        free, key=lambda nl: (phase_load.get(nl[1], 0), nl[1])
                    )
                    used_links.add(lid)
                    assigned[m] = (nb, lid)
                    phase_load[lid] = phase_load.get(lid, 0) + 1
            if len(still) == len(unassigned):
                # Should be impossible (every message has >= 1 candidate on
                # a connected topology), but guard against livelock.
                raise RuntimeError("MM-Route matching failed to progress")
            unassigned = still
        rounds_per_hop.append(rounds)
        # Advance every message one hop along its assigned link.
        next_pending: list[int] = []
        for m in pending:
            nxt = assigned[m][0]
            position[m] = nxt
            paths[m].append(nxt)
            if nxt != dest[m]:
                next_pending.append(m)
        pending = next_pending
    return paths, rounds_per_hop


def mm_route_reference(
    tg: TaskGraph,
    topology: Topology,
    assignment: Mapping[Task, Proc],
) -> RoutingResult:
    """Route every communication phase of *tg* with :func:`_route_phase`."""
    result = RoutingResult()
    for phase_name, phase in tg.comm_phases.items():
        messages = [
            (idx, assignment[e.src], assignment[e.dst])
            for idx, e in enumerate(phase.edges)
        ]
        paths, rounds = _route_phase(topology, messages)
        for idx, path in paths.items():
            result.routes[(phase_name, idx)] = path
        result.rounds[phase_name] = rounds
    return result
