"""Store-and-forward discrete-event simulation of a mapped computation.

The phase expression linearises into synchronous steps; each step's phases
run concurrently, and the step ends when its last phase finishes (the
lock-step semantics of the paper's synchronous computations).

* An **execution** phase occupies each processor for the total
  ``exec_time``-scaled cost of its tasks.
* A **communication** phase injects one message per task-graph edge along
  its mapped route.  Links are FIFO servers handling one message at a time
  (``hop_latency + byte_time * volume`` each); a message holds at its
  current node until the next link frees up (store-and-forward).  Link
  contention therefore directly lengthens the phase -- which is what makes
  MM-Route's low-contention routes measurably faster than oblivious
  routing in benchmark E10/E12.

Performance model
-----------------
The simulation state resets at every synchronous step boundary (the
lock-step barrier), so a step's outcome depends only on *which* phases run
in it -- not on when it runs.  :func:`simulate` exploits this two ways:

1. **One message plan per mapping.**  Each communication phase is
   resolved once per mapping into a flat message table ``(link-id tuple,
   volume)``, kept with the vector kernel's static arrays in a model-free
   :class:`_MessagePlan` that every cost model, both engines and METRICS
   read.  A cost model only prices the plan (:class:`_CompiledSim`: each
   execution phase's per-processor busy table and the vector kernel's
   durations), so route lookups happen once per phase, assignment scans
   once per (phase, model), and neither once per step.
2. **Step memoization.**  Per-step outcomes (duration plus ``link_busy`` /
   ``proc_busy`` deltas) are cached keyed by the step's phase set, so a
   phase expression repeating the same step 1000 times pays the event-loop
   cost once.  Accumulation into the final :class:`SimulationResult` always
   happens step by step in the same order, so the result is bit-identical
   to solving every step afresh (``tests/test_sim_memoization`` compares
   against ``tests.oracles.simulate_uncached``).

Two engines solve the distinct steps: the per-message event loop below
and the batched numpy kernel of :mod:`repro.sim.vector`, which also falls
back to the event loop on FIFO hazards.  Which one runs is decided by the
run's size alone (:func:`_batch_pays`) and recorded on
:attr:`SimulationResult.kernel`; the two are pinned identical by
``tests/test_sim_vector.py``.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.mapper.mapping import Mapping
from repro.sim.model import CostModel
from repro.util import perf

__all__ = ["simulate", "step_cost", "SimulationResult"]

#: The batched numpy kernel takes over once the store-and-forward hop
#: count of the run's distinct steps crosses this threshold; below it the
#: per-step event loop wins on constant factors.  Tuned on the
#: ``sim_micro`` benchmarks.
_AUTO_MIN_HOPS = 2048

#: Distinct steps are solved once, so hop count alone undersells the
#: batch path: past this many steps the per-step Python loop of the
#: event-loop engine costs more than one batched gather even when every
#: step is a cache hit.
_AUTO_MIN_STEPS = 256


@dataclass
class SimulationResult:
    """Outcome of simulating a mapping end to end.

    Attributes
    ----------
    total_time:
        Completion time of the whole phase expression.
    step_times:
        Duration of each synchronous step, in order.
    link_busy:
        Accumulated busy time per link id.
    proc_busy:
        Accumulated execution time per processor.
    messages:
        Total messages injected.
    """

    total_time: float = 0.0
    step_times: list[float] = field(default_factory=list)
    link_busy: dict[int, float] = field(default_factory=dict)
    proc_busy: dict[object, float] = field(default_factory=dict)
    messages: int = 0
    #: Accumulated step time attributed to each phase name.  Steps running
    #: several phases in parallel charge the full step to each of them, so
    #: the values answer "how long was this phase on the critical path".
    phase_time: dict[str, float] = field(default_factory=dict)
    #: Which engine produced this result: ``"reference"`` (the event
    #: loop) or ``"vector"`` (the batch kernel).  Provenance only --
    #: excluded from equality, since the engines are pinned to produce
    #: identical results.
    kernel: str = field(default="reference", compare=False)

    def max_link_utilization(self) -> float:
        """Busiest link's busy time as a fraction of total time."""
        if not self.link_busy or self.total_time == 0:
            return 0.0
        return max(self.link_busy.values()) / self.total_time


#: One message of a step: its route as 1-based link ids, and its volume.
_Message = tuple[tuple[int, ...], float]


@dataclass
class _StepOutcome:
    """One synchronous step's contribution to the overall result."""

    duration: float
    link_busy: dict[int, float]
    proc_busy: dict[object, float]
    messages: int


class _MessagePlan:
    """The model-free message tables of one routed mapping.

    :meth:`comm_table` resolves a communication phase once, from the
    mapping's index paths (:meth:`~repro.mapper.mapping.Mapping.index_paths`),
    into a flat message table -- one ``(link-id tuple, volume)`` entry per
    *inter-processor* edge, in edge order -- and keeps the hop count of
    every edge beside it (:meth:`dilations`, 0 for intra-processor edges).
    :meth:`step_messages` joins a step's phases into one message list whose
    ids are the list positions, and :attr:`vector_steps` holds the vector
    kernel's static arrays.  None of it depends on the cost model, so
    every :class:`_CompiledSim` of the mapping and METRICS read the same
    tables.  Phases are resolved lazily (migration's segment mappings carry
    routes for only some phases).
    """

    def __init__(self, mapping: Mapping):
        # Held weakly: plans live in _COMPILED_CACHE under the mapping as
        # weak key, and a strong reference from the value would keep every
        # simulated mapping alive for the life of the process.
        self._mapping = weakref.ref(mapping)
        tg = mapping.task_graph
        self.comm_names = tg.comm_phase_names
        self.exec_names = tg.exec_phase_names
        self._phases: dict[str, tuple[list[_Message], list[int]]] = {}
        self._steps: dict[tuple[str, ...], list[_Message]] = {}
        #: Static arrays of the vector kernel (:mod:`repro.sim.vector`),
        #: keyed by phase set or merged group.
        self.vector_steps: dict = {}

    @property
    def mapping(self) -> Mapping:
        """The mapping this plan was built from (alive for as long as a
        caller holds it, which every user of the plan does)."""
        return self._mapping()

    def phases_in(self, steps) -> list[str]:
        """The phases of *steps* in order of first occurrence, the phases
        one step starts together in the task graph's declaration order --
        the key order of every per-phase result, so that it never depends
        on how a step's ``frozenset`` happens to iterate."""
        declared = self.mapping.task_graph.phase_names
        seen: dict[str, None] = {}
        for step in steps:  # update() keeps the place of a name already seen
            seen.update(dict.fromkeys(n for n in declared if n in step))
        return list(seen)

    def _phase(self, name: str) -> tuple[list[_Message], list[int]]:
        """``(message table, per-edge hop counts)`` of a phase, built on
        first access; an unrouted edge raises naming the first one."""
        entry = self._phases.get(name)
        if entry is None:
            mapping = self.mapping
            edges = mapping.task_graph.comm_phase(name).edges
            ptr, hops = mapping.index_paths(name)
            lptr, lids, broken = mapping.topology.path_link_ids(ptr, hops)
            fault = broken | (ptr[1:] == ptr[:-1])
            if fault.any():  # the first missing route or hop over no link
                idx = int(np.argmax(fault))
                if ptr[idx] == ptr[idx + 1]:
                    raise ValueError(f"missing route for edge {idx} of phase {name!r}")
                mapping.topology.route_link_ids(mapping.routes[(name, idx)])  # raises
            lids, bounds = lids.tolist(), lptr.tolist()
            table: list[_Message] = [
                (tuple(lids[a:b]), edge.volume)
                for edge, a, b in zip(edges, bounds, bounds[1:]) if a < b
            ]
            entry = self._phases[name] = (table, np.diff(lptr).tolist())
        return entry

    def comm_table(self, name: str) -> list[_Message]:
        """The phase's message table, built on first access."""
        return self._phase(name)[0]

    def dilations(self, name: str) -> list[int]:
        """Hops of every edge of the phase, in edge order."""
        return self._phase(name)[1]

    def step_messages(self, comms: tuple[str, ...]) -> list[_Message]:
        """The messages of a step's communication phases; message ``m`` is
        entry ``m``.

        Phases running in parallel (``r || s``) share the physical links,
        so all their messages enter a single FIFO event pool with ids
        assigned in sorted-phase, edge order.  A one-phase step's list is
        the phase's own table.
        """
        if len(comms) == 1:
            return self.comm_table(comms[0])
        msgs = self._steps.get(comms)
        if msgs is None:
            msgs = self._steps[comms] = [
                msg for name in comms for msg in self.comm_table(name)
            ]
        return msgs

    def step_hops(self, step: frozenset[str]) -> int:
        """Total route length of a step's messages -- the size signal of
        the engine-selection rule."""
        comms = tuple(sorted(n for n in step if n in self.comm_names))
        return sum(len(links) for links, _ in self.step_messages(comms))


class _StepExec:
    """A step's execution side under one model.

    ``busy`` is the per-processor busy map of the step's execution phases
    and ``duration`` the longest any one phase keeps a processor busy;
    :meth:`dense_row` is the same busy map as the vector kernel reads it.
    """

    __slots__ = ("busy", "duration", "_row")

    def __init__(self, busy: dict[object, float], duration: float):
        self.busy = busy
        self.duration = duration
        self._row = None

    def dense_row(self, topo):
        """``busy`` as a float row over the machine's processors, built on
        first use (only the vector kernel needs it)."""
        if self._row is None:
            row = np.zeros(topo.n_processors, dtype=np.float64)
            for proc, busy in self.busy.items():
                row[topo.index_of(proc)] = busy
            self._row = row
        return self._row


class _CompiledSim:
    """A mapping's message plan priced under one (model, slowdowns) pair.

    Holds what the cost model changes and nothing else: the per-processor
    busy maps of the execution phases (:meth:`exec_table`,
    :meth:`step_exec`) and the vector kernel's durations
    (:attr:`vector_prices`), each built on first use.
    """

    def __init__(
        self,
        plan: _MessagePlan,
        model: CostModel,
        link_slowdowns: dict[int, float] | None = None,
    ):
        self.plan = plan
        self.model = model
        # Degraded-link factors (failure injection): default to whatever the
        # topology itself declares, so mappings repaired onto a degraded
        # machine are charged its slow links without any caller plumbing.
        if link_slowdowns is None:
            link_slowdowns = getattr(plan.mapping.topology, "link_slowdowns", {})
        self.link_slowdowns = dict(link_slowdowns or {})
        self._exec_busy: dict[str, dict[object, float]] = {}
        self._step_execs: dict[tuple[str, ...], _StepExec] = {}
        #: The vector kernel's durations, keyed like
        #: :attr:`_MessagePlan.vector_steps`.
        self.vector_prices: dict = {}

    def exec_table(self, name: str) -> dict[object, float]:
        """The phase's per-processor busy map, compiled on first access."""
        per_proc = self._exec_busy.get(name)
        if per_proc is None:
            mapping = self.plan.mapping
            phase = mapping.task_graph.exec_phase(name)
            exec_time = self.model.exec_time
            per_proc = {}
            for task, proc in mapping.assignment.items():
                cost = phase.cost_of(task) * exec_time
                per_proc[proc] = per_proc.get(proc, 0.0) + cost
            self._exec_busy[name] = per_proc
        return per_proc

    def step_exec(self, execs: tuple[str, ...]) -> _StepExec:
        """A step's execution side: the per-processor busy maps of its
        execution phases folded with dict adds in sorted-name order, and
        the longest any one phase keeps a processor busy (the step's
        duration on the execution side; phases run in parallel)."""
        cached = self._step_execs.get(execs)
        if cached is None:
            per_proc: dict[object, float] = {}
            duration = 0.0
            for name in execs:
                table = self.exec_table(name)
                for proc, busy in table.items():
                    per_proc[proc] = per_proc.get(proc, 0.0) + busy
                if table:
                    duration = max(duration, max(table.values()))
            cached = self._step_execs[execs] = _StepExec(per_proc, duration)
        return cached

    def comm_outcome(
        self, comms: tuple[str, ...]
    ) -> tuple[float, dict[int, float], int]:
        """Event-loop result of a step's communication side only:
        ``(duration, link_busy, message count)``."""
        msgs = self.plan.step_messages(comms)
        link_busy: dict[int, float] = {}
        if not msgs:
            return 0.0, link_busy, 0
        if self.model.switching == "cut_through":
            duration = _cut_through(msgs, self.model, link_busy, self.link_slowdowns)
        else:
            duration = _store_and_forward(
                msgs, self.model, link_busy, self.link_slowdowns
            )
        return duration, link_busy, len(msgs)

    def run_step(self, step: frozenset[str]) -> _StepOutcome:
        """Simulate one synchronous step from the compiled tables."""
        plan = self.plan
        comms = tuple(sorted(n for n in step if n in plan.comm_names))
        execs = tuple(sorted(n for n in step if n in plan.exec_names))
        unknown = set(step) - plan.comm_names - plan.exec_names
        if unknown:  # pragma: no cover - validate() prevents this
            raise ValueError(f"phases {sorted(unknown)!r} not declared")

        duration, link_busy, n_msgs = self.comm_outcome(comms)
        ex = self.step_exec(execs)
        return _StepOutcome(max(duration, ex.duration), link_busy, ex.busy, n_msgs)


def _store_and_forward(
    msgs: list[_Message],
    model: CostModel,
    link_busy: dict[int, float],
    slowdowns: dict[int, float] | None = None,
) -> float:
    """NCUBE-style hop-by-hop forwarding; links are FIFO one-message servers.

    Message ``m`` is ``msgs[m]`` (see :meth:`_MessagePlan.step_messages`).
    *slowdowns* (1-based link id -> factor >= 1) scales the per-hop
    transfer time of degraded links -- the failure-injection hook.
    """
    slowdowns = slowdowns or {}
    link_free: dict[int, float] = {}
    finish_time = 0.0
    # Event: (arrival time, message id, hop index). FIFO per link with
    # deterministic tie-break on message id.  Ascending ids at time 0 are
    # already a heap.
    events: list[tuple[float, int, int]] = [(0.0, m, 0) for m in range(len(msgs))]
    while events:
        arrival, m, hop = heapq.heappop(events)
        links, volume = msgs[m]
        link = links[hop]
        start = max(arrival, link_free.get(link, 0.0))
        duration = model.transfer_time(volume) * slowdowns.get(link, 1.0)
        done = start + duration
        link_free[link] = done
        link_busy[link] = link_busy.get(link, 0.0) + duration
        if hop + 1 < len(links):
            heapq.heappush(events, (done, m, hop + 1))
        else:
            finish_time = max(finish_time, done)
    return finish_time


def _cut_through(
    msgs: list[_Message],
    model: CostModel,
    link_busy: dict[int, float],
    slowdowns: dict[int, float] | None = None,
) -> float:
    """iPSC/2-style cut-through: the message pipelines across its whole path.

    A message starts when *every* link on its route is free, flows for
    ``hops * latency + volume * byte_time``, and holds all its links for
    that duration (the circuit-like behaviour that makes low-contention
    routing even more valuable under cut-through than store-and-forward).
    Messages launch in ascending id order, greedily as links free up.
    A pipelined message flows at the pace of its slowest link, so the
    whole-path time scales by the worst slowdown on the route.
    """
    slowdowns = slowdowns or {}
    link_free: dict[int, float] = {}
    finish_time = 0.0
    for links, volume in msgs:  # ascending id order
        start = max((link_free.get(l, 0.0) for l in links), default=0.0)
        duration = model.cut_through_time(volume, len(links))
        if slowdowns:
            duration *= max((slowdowns.get(l, 1.0) for l in links), default=1.0)
        done = start + duration
        for l in links:
            link_free[l] = done
            link_busy[l] = link_busy.get(l, 0.0) + duration
        finish_time = max(finish_time, done)
    return finish_time


def _batch_pays(plan: _MessagePlan, unique_steps, n_steps: int) -> bool:
    """The one engine-selection rule, shared by :func:`simulate` and
    :func:`step_cost`: the batch kernel runs when the run is long or its
    distinct steps carry enough hops to amortise the array set-up."""
    if n_steps >= _AUTO_MIN_STEPS:
        return True
    return sum(plan.step_hops(s) for s in unique_steps) >= _AUTO_MIN_HOPS


def _event_loop(compiled: _CompiledSim, steps) -> SimulationResult:
    """Solve each distinct step with the event loop; fold in step order."""
    result = SimulationResult()
    result.phase_time = dict.fromkeys(
        compiled.plan.phases_in(dict.fromkeys(steps)), 0.0
    )
    cache: dict[frozenset[str], _StepOutcome] = {}
    for step in steps:
        outcome = cache.get(step)
        if outcome is None:
            outcome = cache[step] = compiled.run_step(step)
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


def validated_by_simulate(mapping: Mapping) -> bool:
    """True when :func:`simulate` validated *mapping* (routes required,
    capacities checked) and it has not been edited since.

    Structural validation is pure for an unedited mapping, so its success
    is memoized in the mapping's cache entry, which an edit rebuilds.
    """
    return _cached(mapping)[3]


def simulate(
    mapping: Mapping,
    model: CostModel | None = None,
    *,
    max_steps: int = 100_000,
    link_slowdowns: dict[int, float] | None = None,
) -> SimulationResult:
    """Run the mapped computation through its phase expression.

    Requires routes on the mapping (``map_computation(..., route=True)``)
    and a phase expression on the task graph; a task graph without a phase
    expression is treated as one step running every phase in parallel.

    Repeated steps -- the same phase set occurring again, as every
    ``r^k`` repetition does -- are solved once and folded in once per
    occurrence (``sim.step_cache_hit`` / ``sim.step_cache_miss`` count
    them).

    *link_slowdowns* is the failure-injection point: a 1-based link id ->
    factor (>= 1) map scaling transfer times on degraded links.  It
    defaults to the topology's own :attr:`~repro.arch.Topology.link_slowdowns`,
    so simulating a mapping repaired onto a degraded machine
    (:func:`repro.resilience.repair_mapping`) charges its slow links with
    no extra plumbing.

    Small runs take the per-step event loop, large ones the batched numpy
    kernel (:mod:`repro.sim.vector`); the engines produce identical
    results, and the one that ran is recorded on
    :attr:`SimulationResult.kernel` and in the ``sim.kernel_vector`` /
    ``sim.kernel_reference`` perf counters.
    """
    model = model or CostModel()
    tg = mapping.task_graph
    with perf.span("sim.simulate"):
        entry = _cached(mapping)
        if not entry[3]:
            mapping.validate(require_routes=True)
            entry[3] = True
        if tg.phase_expr is not None:
            steps = tg.phase_expr.linearize(max_steps=max_steps)
        else:
            steps = [frozenset(tg.phase_names)]

        compiled = _compiled_for(mapping, model, link_slowdowns)
        unique = set(steps)
        perf.count("sim.step_cache_miss", len(unique))
        perf.count("sim.step_cache_hit", len(steps) - len(unique))
        if _batch_pays(compiled.plan, unique, len(steps)):
            from repro.sim import vector

            perf.count("sim.kernel_vector")
            return vector.plan_batch(compiled, steps).run()
        perf.count("sim.kernel_reference")
        return _event_loop(compiled, steps)


#: Per-mapping compiled state, one entry ``[edits, plan, pricings,
#: validated]``: the :attr:`~repro.mapper.mapping.Mapping.edits` it was
#: built at, the :class:`_MessagePlan`, its :class:`_CompiledSim` pricings
#: keyed by (model, slowdowns), and :func:`simulate`'s validation memo.  Weak
#: keys keep discarded mappings collectable; an edited mapping's entry is
#: rebuilt whole, whichever path the edit took.
_COMPILED_CACHE: "weakref.WeakKeyDictionary[Mapping, list]" = (
    weakref.WeakKeyDictionary()
)


def _cached(mapping: Mapping) -> list:
    edits = mapping.edits
    entry = _COMPILED_CACHE.get(mapping)
    if entry is None or entry[0] != edits:
        entry = _COMPILED_CACHE[mapping] = [edits, _MessagePlan(mapping), {}, False]
    return entry


def message_plan(mapping: Mapping) -> _MessagePlan:
    """The mapping's message plan, built once per edit and shared by every
    cost model, both engines and METRICS."""
    return _cached(mapping)[1]


def _compiled_for(
    mapping: Mapping,
    model: CostModel,
    link_slowdowns: dict[int, float] | None,
) -> _CompiledSim:
    """The mapping's plan priced under (model, slowdowns), cached per
    (model, slowdowns) beside the one plan.

    The cache key includes the *resolved* slowdown map, so passing
    ``link_slowdowns=None`` after degrading the topology in place still
    prices the plan afresh for the new factors.
    """
    resolved = link_slowdowns
    if resolved is None:
        resolved = getattr(mapping.topology, "link_slowdowns", {})
    key = (model, tuple(sorted((resolved or {}).items())))
    _, plan, priced, _ = _cached(mapping)
    compiled = priced.get(key)
    if compiled is None:
        compiled = priced[key] = _CompiledSim(plan, model, resolved)
    return compiled


def step_cost(
    mapping: Mapping,
    model: CostModel | None = None,
    phases: "frozenset[str] | set[str] | tuple[str, ...] | None" = None,
    *,
    link_slowdowns: dict[int, float] | None = None,
) -> float:
    """Duration of one synchronous step running *phases* concurrently.

    The public, cached face of the step engine for callers that price
    single steps instead of whole phase expressions -- migration planning
    (:mod:`repro.mapper.migration`) being the main one.  It reads the
    mapping's one message plan, priced per (model, slowdowns), exactly as
    :func:`simulate` does, so repeated quotes against the same mapping
    rebuild nothing and a new cost model only prices the shared tables;
    large steps are dispatched to the batched numpy kernel automatically.

    *phases* defaults to every phase of the mapping's task graph (one
    fully-parallel step).  Phases must have routes on the mapping -- pass
    only the routable subset for segment mappings; an unrouted edge of a
    requested phase raises :class:`ValueError` naming it.
    """
    model = model or CostModel()
    if phases is None:
        phases = mapping.task_graph.phase_names
    step = frozenset(phases)
    compiled = _compiled_for(mapping, model, link_slowdowns)
    if _batch_pays(compiled.plan, [step], 1):
        from repro.sim import vector

        return vector.plan_batch(compiled, [step]).run().total_time
    return compiled.run_step(step).duration
