"""Automatic selection of aggregation topologies (§6, "Mapping algorithms").

"Many parallel algorithms use a specific tree topology to aggregate results
when a variety of alternate communication topologies will suffice (any
spanning tree or the perfect broadcast ring of [HF88]).  We would like to
automatically select the aggregate topology that is 'compatible' with the
communication topologies of other phases in the computation."

:func:`select_aggregation_tree` does exactly that: given an already-mapped
computation and a root task, it synthesises an aggregation phase as a
shortest-path tree over the *processors*, with link costs inflated by the
traffic the mapping's other phases already place on each link -- so the
chosen tree routes the aggregate around the hot links instead of through
them.  :func:`add_aggregation_phase` installs the result as a new
communication phase with ready-made routes.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable

from repro.mapper.mapping import Mapping

__all__ = ["select_aggregation_tree", "add_aggregation_phase"]

Task = Hashable
Proc = Hashable


def _existing_link_load(mapping: Mapping) -> dict[int, float]:
    """Volume each link already carries across all routed phases."""
    load: dict[int, float] = {}
    topo = mapping.topology
    tg = mapping.task_graph
    for (phase, idx), route in mapping.routes.items():
        volume = tg.comm_phase(phase).edges[idx].volume
        for a, b in zip(route, route[1:]):
            lid = topo.link_id(a, b)
            load[lid] = load.get(lid, 0.0) + volume
    return load


def select_aggregation_tree(
    mapping: Mapping,
    root: Task,
    *,
    congestion_weight: float = 1.0,
) -> dict[Proc, list[Proc]]:
    """A congestion-aware spanning tree of the used processors.

    Dijkstra from the root task's processor with per-link cost
    ``1 + congestion_weight * existing_volume(link)``; every processor
    holding tasks is connected to the root by its cheapest path, and the
    union of those paths is the aggregation tree.

    Returns ``processor -> path to root`` (first element the processor
    itself, last the root's processor).
    """
    topo = mapping.topology
    root_proc = mapping.proc_of(root)
    load = _existing_link_load(mapping)

    def link_cost(a: Proc, b: Proc) -> float:
        return 1.0 + congestion_weight * load.get(topo.link_id(a, b), 0.0)

    # Dijkstra rooted at root_proc.
    dist: dict[Proc, float] = {root_proc: 0.0}
    parent: dict[Proc, Proc] = {}
    order = {p: i for i, p in enumerate(topo.processors)}
    heap: list[tuple[float, int, Proc]] = [(0.0, order[root_proc], root_proc)]
    done: set[Proc] = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in topo.neighbors(u):
            nd = d + link_cost(u, v)
            if nd < dist.get(v, float("inf")) - 1e-12:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, order[v], v))

    paths: dict[Proc, list[Proc]] = {}
    for proc in mapping.used_procs():
        path = [proc]
        while path[-1] != root_proc:
            path.append(parent[path[-1]])
        paths[proc] = path
    return paths


def add_aggregation_phase(
    mapping: Mapping,
    root: Task,
    *,
    phase_name: str = "aggregate",
    volume: float = 1.0,
    congestion_weight: float = 1.0,
) -> Mapping:
    """Install an automatically selected aggregation phase on the mapping.

    Every task sends *volume* units to *root*; messages follow the
    congestion-aware tree (task -> its processor's tree path -> root), so
    the new phase avoids the links the rest of the computation hammers.
    The task graph and the mapping's routes are modified in place; the
    mapping is returned for chaining.
    """
    tg = mapping.task_graph
    if phase_name in tg.comm_phases or phase_name in tg.exec_phases:
        raise ValueError(f"phase {phase_name!r} already exists")
    paths = select_aggregation_tree(
        mapping, root, congestion_weight=congestion_weight
    )
    phase = tg.add_comm_phase(phase_name)
    senders = [t for t in tg.nodes if t != root]
    for task in senders:
        phase.add(task, root, volume)
    mapping.routes.update({(phase_name, idx): paths[mapping.proc_of(task)]
                           for idx, task in enumerate(senders)})
    mapping.validate()
    return mapping
