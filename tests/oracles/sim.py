"""The simulator specified a second time: every step solved afresh.

:func:`simulate_uncached` shares no code with ``repro.sim.engine`` beyond
the result record and the cost model.  It reads each edge's route as the
processor labels in ``mapping.routes`` (link ids through
:meth:`~repro.arch.Topology.route_link_ids`), solves every synchronous
step from scratch with the two switching rules written out below, and
folds the outcomes step by step.  Agreement with it therefore checks the
engine's message plan, its step solver and its step memo at once.

Floating-point sums are taken in the order the specification fixes --
per link in service order, per processor in assignment order, over the
result in step order -- so the comparison is exact (``==``).
"""

from __future__ import annotations

import heapq

from repro.sim import CostModel, SimulationResult


def _messages(mapping, name):
    """``(link ids, volume)`` of the phase's inter-processor edges, in
    edge order (an edge whose tasks share a processor sends nothing)."""
    topo = mapping.topology
    out = []
    for idx, edge in enumerate(mapping.task_graph.comm_phase(name).edges):
        links = topo.route_link_ids(mapping.routes[(name, idx)])
        if links:
            out.append((links, edge.volume))
    return out


def _store_and_forward(msgs, model, slowdowns, busy):
    """Each hop receives the whole message before forwarding it.  A link
    serves one message at a time, in order of arrival at the link, and
    equal arrivals in ascending message id."""
    hop = [0] * len(msgs)
    free: dict[int, float] = {}
    ready = [(0.0, m) for m in range(len(msgs))]
    end = 0.0
    while ready:
        arrival, m = heapq.heappop(ready)
        links, volume = msgs[m]
        link = links[hop[m]]
        cost = model.hop_latency + model.byte_time * volume
        cost *= slowdowns.get(link, 1.0)
        done = max(arrival, free.get(link, 0.0)) + cost
        free[link] = done
        busy[link] = busy.get(link, 0.0) + cost
        hop[m] += 1
        if hop[m] < len(links):
            heapq.heappush(ready, (done, m))
        else:
            end = max(end, done)
    return end


def _cut_through(msgs, model, slowdowns, busy):
    """A message launches, in ascending id order, once every link of its
    route is free, and holds them all for ``hops * hop_latency + byte_time
    * volume`` times the worst slowdown on the route."""
    free: dict[int, float] = {}
    end = 0.0
    for links, volume in msgs:
        start = max(free.get(link, 0.0) for link in links)
        cost = model.hop_latency * len(links) + model.byte_time * volume
        cost *= max(slowdowns.get(link, 1.0) for link in links)
        for link in links:
            free[link] = start + cost
            busy[link] = busy.get(link, 0.0) + cost
        end = max(end, start + cost)
    return end


def _exec_side(mapping, names, model):
    """``(per-processor busy, duration)`` of a step's execution phases:
    each phase's busy map summed in assignment order, the phases added in
    name order; the duration is the longest any one phase runs."""
    busy: dict[object, float] = {}
    duration = 0.0
    for name in names:
        phase = mapping.task_graph.exec_phase(name)
        own: dict[object, float] = {}
        for task, proc in mapping.assignment.items():
            own[proc] = own.get(proc, 0.0) + phase.cost_of(task) * model.exec_time
        for proc, value in own.items():
            busy[proc] = busy.get(proc, 0.0) + value
        if own:
            duration = max(duration, max(own.values()))
    return busy, duration


def simulate_uncached(
    mapping,
    model: CostModel | None = None,
    *,
    link_slowdowns: dict[int, float] | None = None,
) -> SimulationResult:
    """Simulate *mapping*, solving every step of its phase expression
    afresh (no phase expression: one step running every phase)."""
    model = model or CostModel()
    mapping.validate(require_routes=True)
    tg = mapping.task_graph
    if link_slowdowns is None:
        link_slowdowns = getattr(mapping.topology, "link_slowdowns", {})
    slowdowns = dict(link_slowdowns or {})
    if tg.phase_expr is not None:
        steps = tg.phase_expr.linearize()
    else:
        steps = [frozenset(tg.phase_names)]
    solve = _cut_through if model.switching == "cut_through" else _store_and_forward
    tables = {name: _messages(mapping, name) for name in tg.comm_phase_names}

    result = SimulationResult()
    # Per-phase rows in order of first occurrence, a step's phases in
    # declaration order.
    for step in steps:
        for name in tg.phase_names:
            if name in step:
                result.phase_time.setdefault(name, 0.0)
    for step in steps:
        msgs = [
            msg for name in sorted(step) if name in tables for msg in tables[name]
        ]
        link_busy: dict[int, float] = {}
        comm = solve(msgs, model, slowdowns, link_busy) if msgs else 0.0
        execs = sorted(name for name in step if name in tg.exec_phase_names)
        proc_busy, work = _exec_side(mapping, execs, model)
        duration = max(comm, work)

        result.step_times.append(duration)
        result.total_time += duration
        result.messages += len(msgs)
        for link, value in link_busy.items():
            result.link_busy[link] = result.link_busy.get(link, 0.0) + value
        for proc, value in proc_busy.items():
            result.proc_busy[proc] = result.proc_busy.get(proc, 0.0) + value
        for name in step:
            result.phase_time[name] += duration
    return result
