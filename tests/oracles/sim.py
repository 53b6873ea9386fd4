"""The simulator without its step cache: every step solved afresh.

The fold below is the accumulation loop ``repro.sim.simulate`` ran under
``memoize=False`` before that switch was removed; it shares the per-step
solver (``_CompiledSim.run_step``) with the event-loop engine and nothing
else, so agreement with it shows that reusing a step's outcome is sound.
It builds a private message plan from ``mapping.routes`` and never reads
or fills the engine's per-mapping cache.
"""

from __future__ import annotations

from repro.mapper.mapping import Mapping
from repro.sim.engine import SimulationResult, _CompiledSim, _MessagePlan
from repro.sim.model import CostModel


def simulate_uncached(
    mapping: Mapping,
    model: CostModel | None = None,
    *,
    link_slowdowns: dict[int, float] | None = None,
) -> SimulationResult:
    """Simulate *mapping*, running the event loop on every single step."""
    model = model or CostModel()
    mapping.validate(require_routes=True)
    tg = mapping.task_graph
    if tg.phase_expr is not None:
        steps = tg.phase_expr.linearize()
    else:
        steps = [frozenset(tg.phase_names)]
    compiled = _CompiledSim(_MessagePlan(mapping), model, link_slowdowns)
    result = SimulationResult()
    for step in steps:
        outcome = compiled.run_step(step)
        result.step_times.append(outcome.duration)
        result.total_time += outcome.duration
        result.messages += outcome.messages
        link_busy = result.link_busy
        for link, busy in outcome.link_busy.items():
            link_busy[link] = link_busy.get(link, 0.0) + busy
        proc_busy = result.proc_busy
        for proc, busy in outcome.proc_busy.items():
            proc_busy[proc] = proc_busy.get(proc, 0.0) + busy
        phase_time = result.phase_time
        for name in step:
            phase_time[name] = phase_time.get(name, 0.0) + outcome.duration
    return result
