"""Baseline routing algorithms for the contention benchmarks.

Both produce shortest-path routes but ignore phase information -- exactly
the "message routing that does not utilize information about the
communication patterns of the computation" the paper's introduction says
commercial systems relied on.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Hashable, Mapping

from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import RouteTable, pack_paths
from repro.mapper.routing.mm_route import RoutingResult

__all__ = ["random_route", "dimension_order_route"]

Task = Hashable
Proc = Hashable


def _oblivious(
    tg: TaskGraph,
    topology: Topology,
    assignment: Mapping[Task, Proc],
    choose: Callable[[list[Proc]], Proc],
) -> RoutingResult:
    """Each message walks from its source, taking ``choose(next_hops)``."""
    index_of = topology.index_of
    phases = {}
    for phase_name, phase in tg.comm_phases.items():
        paths = []
        for e in phase.edges:
            here, dst = assignment[e.src], assignment[e.dst]
            path = [index_of(here)]
            while here != dst:
                here = choose(topology.next_hops(here, dst))
                path.append(index_of(here))
            paths.append(path)
        phases[phase_name] = pack_paths(paths)
    return RoutingResult(RouteTable(tg, topology, phases))


def random_route(
    tg: TaskGraph,
    topology: Topology,
    assignment: Mapping[Task, Proc],
    *,
    seed: int = 0,
) -> RoutingResult:
    """Each message independently takes a uniformly random shortest path."""
    rng = random.Random(seed)
    return _oblivious(
        tg, topology, assignment, lambda hops: rng.choice(sorted(hops, key=repr))
    )


def dimension_order_route(
    tg: TaskGraph,
    topology: Topology,
    assignment: Mapping[Task, Proc],
) -> RoutingResult:
    """Deterministic oblivious routing (e-cube style).

    Always takes the smallest-labelled next hop on a shortest path, so each
    source/destination pair uses one fixed route regardless of what else is
    in flight -- the deterministic single-path discipline of e-cube routers.
    """
    return _oblivious(tg, topology, assignment, lambda hops: min(hops, key=repr))
