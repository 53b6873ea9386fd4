"""Invariants a simulation must satisfy, derived without the simulator.

Nothing here imports :mod:`repro.sim`: expectations are computed from the
mapping's routes, the task graph's volumes and phase expression, the
link slowdown factors and the cost model's three numbers alone, so a
check against them cannot share a bug with the engines under test.
"""

from __future__ import annotations


def expected_link_busy(mapping, model, link_slowdowns=None) -> dict[int, float]:
    """Per-link busy time that conserves message volume.

    Every occurrence of a message on a link occupies it for exactly the
    message's transfer time, whatever the queueing order was: under
    store-and-forward ``(hop_latency + byte_time * volume) * slowdown(link)``
    per hop, under cut-through ``hops * hop_latency + byte_time * volume``
    (times the worst slowdown on the route) on every link of the route.
    Summed over the linearised phase expression this is what
    ``SimulationResult.link_busy`` must equal, up to float summation order.
    """
    tg = mapping.task_graph
    topo = mapping.topology
    if link_slowdowns is None:
        link_slowdowns = getattr(topo, "link_slowdowns", {})
    if tg.phase_expr is not None:
        steps = tg.phase_expr.linearize()
    else:
        steps = [frozenset(tg.phase_names)]
    occurrences: dict[str, int] = {}
    for step in steps:
        for name in step:
            occurrences[name] = occurrences.get(name, 0) + 1

    busy: dict[int, float] = {}
    for name, phase in tg.comm_phases.items():
        count = occurrences.get(name, 0)
        if not count:
            continue
        for idx, edge in enumerate(phase.edges):
            route = mapping.routes[(name, idx)]
            links = [topo.link_id(a, b) for a, b in zip(route, route[1:])]
            if model.switching == "cut_through":
                whole = len(links) * model.hop_latency + model.byte_time * edge.volume
                whole *= max((link_slowdowns.get(l, 1.0) for l in links), default=1.0)
                per_link = {l: whole for l in links}
            else:
                hop = model.hop_latency + model.byte_time * edge.volume
                per_link = {l: hop * link_slowdowns.get(l, 1.0) for l in links}
            for l, duration in per_link.items():
                busy[l] = busy.get(l, 0.0) + count * duration
    return busy
