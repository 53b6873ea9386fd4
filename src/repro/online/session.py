"""The continuous-operation mapping session: a state machine over events.

OREGAMI maps once, at compile time.  A :class:`MappingSession` keeps a
mapping *healthy* while the computation runs: it ingests the typed event
stream of :mod:`repro.online.events`, applies the cheapest sufficient
response to each event, and only ever serves a mapping that validates
(complete routes, no dead hardware, capacity-feasible).

Per event:

* **arrival** -- the task is placed online by
  :func:`repro.graph.dynamic.place` (least-loaded processor nearest its
  peers) among the processors with headroom for it -- the machine's
  capacity vectors *and* ``SessionConfig.load_bound`` -- and only the new
  edges are routed, seeding link loads from the kept routes;
* **departure** -- the task, its edges, and their routes are dropped;
  surviving routes are re-keyed to the shifted edge indices;
* **drift** -- volumes update in place (routes keep their paths);
* **fault** -- :func:`~repro.resilience.repair_mapping` relocates and
  re-routes only what broke, then the mapping is re-bound onto the
  canonical machine ``base.degrade(active_faults)`` so cumulative
  slowdowns survive stepwise degradation;
* **recovery** -- the fault lifts (``FaultSet.difference``), the machine
  re-derives with the recovered hardware back, and every existing route
  stays valid because recovery only ever *adds* links.

After every event the session measures **quality drift**: current
communication cost against a baseline the last full portfolio run
established.  When drift crosses the hysteresis trigger (and the
cooldown has expired, and the trigger is armed), it launches a
*supervised background full remap* -- :func:`~repro.mapper.run_portfolio`
under the PR 5 runtime with per-strategy deadline, deterministic
retries, and chaos injection -- and **hot-swaps** only when the
migration-cost model says the amortized gain pays for moving the tasks:

    swap iff (current_cost - candidate_cost) * amortize_events >
             migration_time(machine, moves, state_volume, model)

Either way the decision is recorded in the trace and the baseline
refreshes to the portfolio's estimate.  A portfolio in which *no*
strategy survives (crashes, timeouts) degrades gracefully: the session
keeps serving the repaired mapping and records the failure.

Determinism: the canonical trace (event fingerprints, actions, costs,
swap decisions, mapping fingerprints) is bit-identical across executors,
worker counts, and ``PYTHONHASHSEED``; wall-clock (per-event latency,
deadline flags) is recorded *outside* the canonical projection.
Checkpoints chain event fingerprints through the runtime
:class:`~repro.runtime.Journal` over the session's ``cache``, so a
SIGKILLed session resumed with ``resume="auto"`` replays to an identical
trace; a session without a cache does not checkpoint, and its remaps and
repairs never touch a store.  A session's first
checkpoint is a full snapshot; every later one is a *delta* naming its
parent and holding only the records and state that moved since.  A resume
follows the parents back to the snapshot; a broken link makes that
checkpoint count as absent.  The last checkpoint is journalled again in
full when eviction takes its chain's snapshot, after a resume through
deltas, and at the end of :meth:`MappingSession.run`.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Any

from repro.arch.capacity import Headroom
from repro.arch.topology import Topology
from repro.errors import AllStrategiesFailed
from repro.graph.dynamic import place
from repro.graph.taskgraph import CommEdge, TaskGraph
from repro.mapper.dispatch import strategy_names
from repro.mapper.mapping import Mapping, NotApplicableError
from repro.mapper.migration import migration_time
from repro.mapper.portfolio import run_portfolio, split_strategy
from repro.mapper.routing.mm_route import route_edges
from repro.metrics.analysis import comm_cost
from repro.online.events import (
    Arrival,
    Departure,
    Drift,
    Fault,
    Recovery,
    event_fingerprint,
)
from repro.resilience.faults import FaultSet
from repro.resilience.repair import repair_mapping
from repro.runtime import (
    EXECUTORS,
    RetryPolicy,
    TaskResult,
    journal_for,
    resume_journal,
)
from repro.sim.model import CostModel
from repro.util import perf
from repro.util.fingerprint import encode_label, sort_encoded, stable_digest
from repro.util.validation import check_int, check_known_keys, check_number

__all__ = [
    "SessionConfig",
    "EventRecord",
    "SessionReport",
    "MappingSession",
    "mapping_fingerprint",
]


@dataclass(frozen=True)
class SessionConfig:
    """The session's knobs.

    Quality / hysteresis:

    * ``drift_threshold`` -- relative comm-cost drift above the baseline
      that arms a background remap (0.25 = 25% worse than the last
      portfolio estimate).
    * ``clear_threshold`` -- drift must fall back below this before the
      trigger re-arms after a remap decision (hysteresis; a session that
      decided "not worth moving" does not re-decide every event).  A
      *further* degradation past the trigger threshold relative to the
      decision point re-arms immediately.
    * ``cooldown_events`` -- minimum events between background remaps.
    * ``amortize_events`` -- horizon over which a candidate mapping's
      per-event gain must amortize the one-time migration cost.
    * ``state_volume`` -- per-task state volume charged by the
      migration-cost model on hot-swap and fault relocation.

    Mapping / supervision (the background portfolio):

    * ``strategy`` / ``load_bound`` -- forwarded to the portfolio and to
      incremental repair's full-remap fallback; ``load_bound`` also bounds
      arrival placement.
    * ``strategies`` -- portfolio strategy order.  ``None`` means the one
      named ``strategy``, or the default portfolio when that is
      ``"auto"``; an explicit list wins over ``strategy``.
    * ``remap_deadline_s`` / ``retries`` / ``backoff_s`` -- per-strategy
      supervision budget for the background portfolio.
    * ``executor`` / ``max_workers`` -- how the portfolio fans out; never
      affects the canonical trace.
    * ``event_deadline_s`` -- per-event latency budget.  In-process
      repair cannot be deterministically preempted, so this flags
      overruns in the (non-canonical) timing channel rather than
      aborting mid-repair.

    ``checkpoint_every`` checkpoints session state through the Journal
    every N events (1 = every event, 0 = never) when the session has a
    cache to journal into.
    """

    strategy: str = "auto"
    load_bound: int | None = None
    drift_threshold: float = 0.25
    clear_threshold: float = 0.05
    cooldown_events: int = 4
    amortize_events: int = 50
    state_volume: float = 1.0
    strategies: tuple[str, ...] | None = None
    remap_deadline_s: float | None = None
    retries: int = 0
    backoff_s: float = 0.05
    executor: str = "serial"
    max_workers: int | None = None
    event_deadline_s: float | None = None
    checkpoint_every: int = 1

    def __post_init__(self):
        known = ("auto", *strategy_names())
        if self.strategy not in known:
            raise ValueError(
                f"strategy must be one of {known}, got {self.strategy!r}"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        for key in ("cooldown_events", "amortize_events", "retries",
                    "checkpoint_every"):
            check_int(getattr(self, key), key)
        for key in ("drift_threshold", "clear_threshold", "state_volume",
                    "backoff_s"):
            check_number(getattr(self, key), key)
        for key in ("retries", "backoff_s", "state_volume"):
            if getattr(self, key) < 0:
                raise ValueError(
                    f"{key} must be >= 0, got {getattr(self, key)!r}"
                )
        for key, check in (("load_bound", check_int),
                           ("max_workers", check_int),
                           ("remap_deadline_s", check_number),
                           ("event_deadline_s", check_number)):
            value = getattr(self, key)
            if value is not None:
                check(value, key)
                if value <= 0:
                    raise ValueError(f"{key} must be positive, got {value!r}")
        if self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be > 0")
        if not 0 <= self.clear_threshold < self.drift_threshold:
            raise ValueError(
                "clear_threshold must satisfy 0 <= clear < drift_threshold"
            )
        if self.cooldown_events < 0 or self.amortize_events < 1:
            raise ValueError("cooldown_events >= 0 and amortize_events >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        if self.strategies is not None:
            if not isinstance(self.strategies, (list, tuple)):
                raise ValueError(
                    f"strategies must be a list, got {self.strategies!r}"
                )
            for entry in self.strategies:
                try:
                    split_strategy(entry)
                except ValueError as exc:
                    raise ValueError(f"strategies: {exc}") from None
            object.__setattr__(self, "strategies", tuple(self.strategies))

    def canonical_dict(self) -> dict:
        """The trace-affecting knobs -- keys the session checkpoint chain.

        Executor, worker count, and the per-event latency budget are
        excluded: they never change any decision, and a resumed session
        must be free to run them differently.
        """
        return {
            "strategy": self.strategy,
            "load_bound": self.load_bound,
            "drift_threshold": self.drift_threshold,
            "clear_threshold": self.clear_threshold,
            "cooldown_events": self.cooldown_events,
            "amortize_events": self.amortize_events,
            "state_volume": self.state_volume,
            "strategies": list(self.strategies) if self.strategies else None,
            "remap_deadline_s": self.remap_deadline_s,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
        }

    def to_dict(self) -> dict:
        """Every knob, JSON-compatible (inverse of :meth:`from_dict`)."""
        return {
            **self.canonical_dict(),
            "executor": self.executor,
            "max_workers": self.max_workers,
            "event_deadline_s": self.event_deadline_s,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionConfig":
        check_known_keys(cls, data, "session config")
        return cls(**data)


@dataclass
class EventRecord:
    """One event's outcome in the session trace.

    ``canonical()`` is the deterministic projection (what the trace
    fingerprint digests); ``elapsed_s`` / ``deadline_exceeded`` /
    ``notes`` are wall-clock and diagnostic channels excluded from it.
    """

    index: int
    kind: str
    event_fp: str
    action: str
    detail: dict = field(default_factory=dict)
    comm_cost: float = 0.0
    drift: float = 0.0
    remap: dict | None = None
    mapping_fp: str = ""
    elapsed_s: float = 0.0
    deadline_exceeded: bool = False
    notes: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "event": self.event_fp,
            "action": self.action,
            "detail": dict(sorted(self.detail.items())),
            "comm_cost": self.comm_cost,
            "drift": self.drift,
            "remap": (
                dict(sorted(self.remap.items())) if self.remap is not None
                else None
            ),
            "mapping": self.mapping_fp,
        }

    def to_dict(self) -> dict:
        return {
            **self.canonical(),
            "elapsed_ms": self.elapsed_s * 1e3,
            "deadline_exceeded": self.deadline_exceeded,
            "notes": dict(sorted(self.notes.items())),
        }


@dataclass
class SessionReport:
    """The session's outcome: trace, counters, and final state digests."""

    session_key: str
    records: list[EventRecord]
    trace_fingerprint: str
    final_mapping_fingerprint: str
    final_comm_cost: float
    baseline_cost: float
    counters: dict
    resumed_at: int | None = None

    def to_dict(self, *, include_trace: bool = False) -> dict:
        doc = {
            "format": "oregami-online-report-v1",
            "session_key": self.session_key,
            "events": len(self.records),
            "trace_fingerprint": self.trace_fingerprint,
            "final_mapping_fingerprint": self.final_mapping_fingerprint,
            "final_comm_cost": self.final_comm_cost,
            "baseline_cost": self.baseline_cost,
            "counters": dict(sorted(self.counters.items())),
            "resumed_at": self.resumed_at,
        }
        if include_trace:
            doc["trace"] = [r.to_dict() for r in self.records]
        return doc


def mapping_fingerprint(mapping: Mapping) -> str:
    """A stable digest of (assignment, routes) -- the served state."""
    return stable_digest({
        "kind": "online-mapping",
        "assignment": sort_encoded(
            [encode_label(t), encode_label(p)]
            for t, p in mapping.assignment.items()
        ),
        "routes": sort_encoded(
            [phase, idx, [encode_label(p) for p in route]]
            for (phase, idx), route in mapping.routes.items()
        ),
    })


class MappingSession:
    """A long-running mapping maintained against a live event stream.

    Parameters
    ----------
    tg:
        The initial task graph (copied into the session's live model;
        never mutated).
    topology:
        The pristine machine.  The session's *current* machine is always
        ``topology.degrade(active_faults)`` re-derived from here, which
        is what makes degrade -> recover round-trips exact.
    config:
        A :class:`SessionConfig` (default knobs otherwise).
    model:
        Cost model for simulation, migration charges, and repair.
    cache:
        The :class:`~repro.pipeline.ArtifactCache` the session journals
        its checkpoints into.  ``None`` (default): the session does not
        checkpoint, and ``resume="auto"`` finds nothing to resume.
    """

    def __init__(
        self,
        tg: TaskGraph,
        topology: Topology,
        config: SessionConfig | None = None,
        *,
        model: CostModel | None = None,
        cache=None,
    ):
        self.config = config or SessionConfig()
        self.model = model or CostModel()
        self.base = topology
        self._cache = cache
        self._chaos = None  # None = REPRO_CHAOS; the chaos tests assign a plan

        tg.validate()
        self._name = tg.name
        self._weights: dict[Any, float] = {
            t: tg.node_weight(t) for t in tg.nodes
        }
        self._comm: dict[str, list[CommEdge]] = {
            name: list(phase.edges) for name, phase in tg.comm_phases.items()
        }
        self._exec: dict[str, tuple[float, dict]] = {
            name: (phase.cost, dict(phase.costs))
            for name, phase in tg.exec_phases.items()
        }
        self._phase_expr = tg.phase_expr
        self._graph_cache: TaskGraph | None = None

        self.faults = FaultSet()
        self.machine = self._derive_machine()

        self.session_key = stable_digest({
            "kind": "online-session",
            "task_graph": tg.fingerprint(),
            "topology": topology.fingerprint(),
            "config": self.config.canonical_dict(),
            "model": self.model.fingerprint_payload(),
        })
        self._chain = self.session_key

        self.trace: list[EventRecord] = []
        self.counters: dict[str, int] = {}
        self._event_index = 0
        self._resumed_at: int | None = None
        # (key, snapshot key, state) of the last checkpoint written or
        # restored: the next checkpoint is a delta against that state, in
        # the chain that starts at the full snapshot.
        self._journalled: tuple[str, str, dict] | None = None

        # Hysteresis state.
        self._armed = True
        self._cooldown = 0
        self._decision_cost: float | None = None

        # Initial mapping: a full portfolio run is both the first served
        # mapping and the first quality baseline.
        result = self._run_portfolio()
        self.mapping = result.mapping.copy()
        self.mapping.validate(require_routes=True)
        self.baseline = comm_cost(self.mapping)

    # ------------------------------------------------------------------
    # live graph / machine derivation
    # ------------------------------------------------------------------
    def _graph(self) -> TaskGraph:
        """The current task graph, rebuilt from the live model on demand."""
        if self._graph_cache is None:
            tg = TaskGraph(self._name)
            for task, weight in self._weights.items():
                tg.add_node(task, weight)
            for name, edges in self._comm.items():
                phase = tg.add_comm_phase(name)
                for e in edges:
                    phase.add(e.src, e.dst, e.volume)
            for name, (cost, costs) in self._exec.items():
                tg.add_exec_phase(
                    name,
                    cost,
                    {t: c for t, c in costs.items() if t in self._weights},
                )
            tg.phase_expr = self._phase_expr
            tg.validate()
            self._graph_cache = tg
        return self._graph_cache

    def _derive_machine(self) -> Topology:
        """The canonical current machine: pristine minus active faults.

        Always re-derived from the pristine base so stepwise fault
        accumulation keeps *every* active slowdown (``Topology.degrade``
        sets slowdowns only from the fault set it is handed) and a
        recovery restores exactly the pre-fault capacity rows and
        bandwidths.  The constant name keeps content fingerprints stable
        across fault states with equal structure.
        """
        return self.base.degrade(self.faults, name=f"{self.base.name}@online")

    def _run_portfolio(self):
        cfg = self.config
        strategies = cfg.strategies
        if strategies is None and cfg.strategy != "auto":
            strategies = (cfg.strategy,)
        return run_portfolio(
            self._graph(),
            self.machine,
            strategies=strategies,
            model=self.model,
            load_bound=cfg.load_bound,
            executor=cfg.executor,
            max_workers=cfg.max_workers,
            deadline=cfg.remap_deadline_s,
            retry=RetryPolicy.from_retries(cfg.retries, cfg.backoff_s),
            chaos=self._chaos,
        )

    def _rebind(self, assignment, routes, provenance: str) -> None:
        """Install a mapping onto the canonical machine, validated."""
        mapping = Mapping(
            self._graph(), self.machine, dict(assignment), routes,
            provenance=provenance,
        )
        mapping.validate(require_routes=True)
        self.mapping = mapping

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, ev: Arrival) -> tuple[str, dict]:
        if ev.task in self._weights:
            raise ValueError(f"arrival of already-live task {ev.task!r}")
        anchors = []
        for phase, src, dst, _volume in ev.edges:
            if phase not in self._comm:
                raise ValueError(
                    f"arrival edge names undeclared phase {phase!r}"
                )
            peer = dst if src == ev.task else src
            if peer not in self._weights:
                raise ValueError(
                    f"arrival edge references non-live task {peer!r}"
                )
            anchors.append(self.mapping.assignment[peer])

        ledger = Headroom(
            self.machine,
            self.config.load_bound,
            ((proc, self._weights[t])
             for t, proc in self.mapping.assignment.items()),
        )
        proc = place(ledger, ev.weight, anchors)
        if proc is None:
            raise ValueError(
                f"no processor has capacity headroom for arriving task "
                f"{ev.task!r}"
            )
        self._weights[ev.task] = ev.weight
        new_keys = []
        for phase, src, dst, volume in ev.edges:
            edges = self._comm[phase]
            new_keys.append((phase, len(edges)))
            edges.append(CommEdge(src, dst, volume))
        self._graph_cache = None

        assignment = dict(self.mapping.assignment)
        assignment[ev.task] = proc
        routes = dict(self.mapping.routes.items())
        if new_keys:
            routed = route_edges(
                self._graph(), self.machine, assignment, new_keys,
                kept_routes=routes,
            )
            routes.update(routed.routes)
        self._rebind(assignment, routes, "online+arrival")
        return "placed", {
            "proc": str(proc),
            "new_edges": len(new_keys),
        }

    def _on_departure(self, ev: Departure) -> tuple[str, dict]:
        if ev.task not in self._weights:
            raise ValueError(f"departure of non-live task {ev.task!r}")
        del self._weights[ev.task]
        old, routes, dropped = self.mapping.routes, {}, 0
        for phase, edges in self._comm.items():
            keep = [i for i, e in enumerate(edges) if ev.task not in (e.src, e.dst)]
            # Edge indices shift left; every kept route re-keys old -> new.
            routes.update(((phase, new), old[(phase, i)])
                          for new, i in enumerate(keep) if (phase, i) in old)
            if len(keep) < len(edges):
                dropped += len(edges) - len(keep)
                self._comm[phase] = [edges[i] for i in keep]
        self._graph_cache = None

        assignment = dict(self.mapping.assignment)
        assignment.pop(ev.task, None)
        self._rebind(assignment, routes, "online+departure")
        return "removed", {"dropped_edges": dropped}

    def _on_drift(self, ev: Drift) -> tuple[str, dict]:
        if ev.phase not in self._comm:
            raise ValueError(f"drift names undeclared phase {ev.phase!r}")
        edges = self._comm[ev.phase]
        touched = 0
        for src, dst, volume in ev.updates:
            hits = [
                i for i, e in enumerate(edges)
                if e.src == src and e.dst == dst
            ]
            if not hits:
                raise ValueError(
                    f"drift update for edge ({src!r} -> {dst!r}) not in "
                    f"phase {ev.phase!r}"
                )
            for i in hits:
                edges[i] = CommEdge(src, dst, volume)
            touched += len(hits)
        self._graph_cache = None
        # Endpoints unchanged: every route stays valid on its path.
        self._rebind(
            self.mapping.assignment, self.mapping.routes, "online+drift",
        )
        return "reweighted", {"edges": touched}

    def _on_fault(self, ev: Fault) -> tuple[str, dict]:
        ev.faults.validate_against(self.machine)
        new_faults = self.faults.union(ev.faults)
        report = repair_mapping(
            self._graph(),
            self.mapping,
            self.machine,
            ev.faults,
            mode="auto",
            model=self.model,
            state_volume=self.config.state_volume,
            strategy=self.config.strategy,
            load_bound=self.config.load_bound,
        )
        self.faults = new_faults
        self.machine = self._derive_machine()
        # The repaired mapping lives on repair's own degraded topology,
        # which drops previously active slowdowns; re-bind assignment and
        # routes onto the canonical cumulative machine (structurally
        # identical, so both are valid verbatim).
        self._rebind(
            report.mapping.assignment,
            report.mapping.routes,
            f"online+repair-{report.strategy}",
        )
        return f"repaired-{report.strategy}", {
            "moved": report.n_moved,
            "rerouted": report.n_rerouted,
            "kept_routes": report.kept_routes,
            "migration_cost": report.migration_cost,
            "fallback": report.fallback_reason is not None,
        }

    def _on_recovery(self, ev: Recovery) -> tuple[str, dict]:
        self.faults = self.faults.difference(ev.faults)
        self.machine = self._derive_machine()
        # Recovery only adds hardware: assignment and routes stay valid.
        self._rebind(
            self.mapping.assignment,
            self.mapping.routes,
            "online+recovery",
        )
        return "recovered", {
            "procs_back": len(ev.faults.failed_procs),
            "links_back": len(ev.faults.failed_links)
            + len(ev.faults.degraded_links),
        }

    _HANDLERS = {
        Arrival: _on_arrival,
        Departure: _on_departure,
        Drift: _on_drift,
        Fault: _on_fault,
        Recovery: _on_recovery,
    }

    # ------------------------------------------------------------------
    # drift tracking and the background remap
    # ------------------------------------------------------------------
    def _consider_remap(self, cost: float) -> tuple[dict | None, dict]:
        """Maybe launch the background portfolio; returns (canonical
        decision record or None, non-canonical notes)."""
        cfg = self.config
        drift = cost / self.baseline - 1.0 if self.baseline > 0 else 0.0
        if self._cooldown > 0:
            self._cooldown -= 1
        if not self._armed:
            recovered = drift <= cfg.clear_threshold
            worsened = (
                self._decision_cost is not None
                and self._decision_cost > 0
                and cost > self._decision_cost * (1.0 + cfg.drift_threshold)
            )
            if recovered or worsened:
                self._armed = True
        if not (self._armed and drift > cfg.drift_threshold
                and self._cooldown == 0):
            return None, {}

        self._armed = False
        self._decision_cost = cost
        self._cooldown = cfg.cooldown_events
        self._bump("remaps_triggered")
        decision: dict = {"triggered": True}
        try:
            with perf.span("online.remap"):
                result = self._run_portfolio()
        except (AllStrategiesFailed, NotApplicableError) as exc:
            # Graceful degradation: the repaired mapping keeps serving.
            self._bump("remaps_failed")
            decision.update(outcome="failed", swapped=False)
            return decision, {"remap_error": f"{type(exc).__name__}: {exc}"}

        candidate = result.mapping
        candidate_cost = comm_cost(candidate)
        moves = [
            (self.mapping.assignment[t], candidate.assignment[t])
            for t in self._graph().nodes
            if self.mapping.assignment[t] != candidate.assignment[t]
        ]
        cost_to_move = migration_time(
            self.machine, moves, cfg.state_volume, self.model
        )
        gain = (cost - candidate_cost) * cfg.amortize_events
        swap = candidate_cost < cost and gain > cost_to_move
        decision.update(
            outcome="ok",
            winner=result.winner,
            candidate_cost=candidate_cost,
            migration_cost=cost_to_move,
            amortized_gain=gain,
            moves=len(moves),
            swapped=swap,
        )
        # The portfolio estimate is the fresh quality baseline either way.
        self.baseline = candidate_cost if candidate_cost > 0 else cost
        if swap:
            self._bump("swaps")
            self._rebind(
                candidate.assignment, candidate.routes, "online+hotswap",
            )
        return decision, {}

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def apply(self, event) -> EventRecord:
        """Apply one event; returns its trace record.

        The served mapping is validated (complete routes, no dead
        hardware, capacity feasibility) before the method returns -- a
        session never serves an invalid mapping, whatever the event did.
        """
        handler = self._HANDLERS.get(type(event))
        if handler is None:
            raise TypeError(f"not an online event: {event!r}")
        start = time.perf_counter()
        with perf.span(f"online.event.{event.kind}"):
            action, detail = handler(self, event)
        self._bump(f"events_{event.kind}")

        cost = comm_cost(self.mapping)
        drift = cost / self.baseline - 1.0 if self.baseline > 0 else 0.0
        decision, notes = self._consider_remap(cost)
        if decision is not None and decision.get("swapped"):
            cost = comm_cost(self.mapping)
            drift = cost / self.baseline - 1.0 if self.baseline > 0 else 0.0

        elapsed = time.perf_counter() - start
        cfg = self.config
        record = EventRecord(
            index=self._event_index,
            kind=event.kind,
            event_fp=event_fingerprint(event),
            action=action,
            detail=detail,
            comm_cost=cost,
            drift=drift,
            remap=decision,
            mapping_fp=mapping_fingerprint(self.mapping),
            elapsed_s=elapsed,
            deadline_exceeded=(
                cfg.event_deadline_s is not None
                and elapsed > cfg.event_deadline_s
            ),
            notes=notes,
        )
        if record.deadline_exceeded:
            self._bump("event_deadline_overruns")
        self.trace.append(record)
        self._chain = stable_digest({
            "kind": "online-chain",
            "prev": self._chain,
            "event": record.event_fp,
        })
        self._event_index += 1
        if cfg.checkpoint_every and self._event_index % cfg.checkpoint_every == 0:
            self._checkpoint()
        return record

    def run(self, events, *, resume: str = "off", on_event=None) -> SessionReport:
        """Apply an event sequence; optionally resume from a checkpoint.

        ``resume="auto"`` scans the journal for the latest checkpoint
        whose chained event fingerprints match a prefix of *events* and
        restores it, replaying only the remainder -- the resumed trace is
        bit-identical to an uninterrupted run.  ``on_event`` (if given)
        receives each :class:`EventRecord` as it is produced, including
        restored ones on resume.
        """
        resume_journal(resume)  # validates the mode; checkpoints chain below
        events = list(events)
        start = 0
        if resume == "auto":
            start = self._try_restore(events)
            if on_event is not None:
                for record in self.trace:
                    on_event(record)
        for event in events[start:]:
            record = self.apply(event)
            if on_event is not None:
                on_event(record)
        if self._journalled is not None:
            # A repeat of this run then resumes from one entry.
            self._compact(journal_for(self.session_key, self._cache))
        return self.report()

    # ------------------------------------------------------------------
    # checkpoint / resume through the Journal
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        journal = journal_for(self.session_key, self._cache)
        if journal is None:
            return
        key = _entry_key(self._event_index, self._chain)
        if self._journalled is None or self._journalled[0] == key:
            # The first checkpoint is a full snapshot, and so is a repeat
            # at one key: a delta there would name itself as its parent.
            snapshot = self._snapshot()
            _record(journal, key, snapshot)
            self._journalled = (key, key, _state(snapshot))
        else:
            parent, root, base = self._journalled
            delta = self._delta(parent, base)
            _record(journal, key, delta)
            _apply(base, delta)
            self._journalled = (key, root, base)
            if not journal.has(root):
                # Eviction takes the least recently used files first, so
                # while the chain's snapshot stays, every delta after it
                # stays too; once it is gone, this checkpoint starts anew.
                self._compact(journal)
        self._bump("checkpoints")

    def _compact(self, journal) -> None:
        """Journal the last checkpoint again as a full snapshot, so that a
        resume from it reads that one entry."""
        key, root, base = self._journalled
        if key != root and journal is not None:
            _record(journal, key, _state(base))
            self._journalled = (key, key, base)

    def _scalars(self) -> dict:
        return {
            "faults": self.faults,
            "provenance": self.mapping.provenance,
            "baseline": self.baseline,
            "armed": self._armed,
            "cooldown": self._cooldown,
            "decision_cost": self._decision_cost,
        }

    def _snapshot(self) -> dict:
        """The whole session state; comm edges are the live objects, which
        the delta after it compares by identity."""
        return {
            "chain": self._chain,
            "event_index": self._event_index,
            "weights": dict(self._weights),
            "comm": {name: list(edges) for name, edges in self._comm.items()},
            "exec": {
                name: (cost, dict(costs))
                for name, (cost, costs) in self._exec.items()
            },
            "assignment": dict(self.mapping.assignment),
            "routes": dict(self.mapping.routes.items()),
            "trace": list(self.trace),
            "counters": dict(self.counters),
            **self._scalars(),
        }

    def _delta(self, parent: str, base: dict) -> dict:
        """What changed since *base*, the state journalled under *parent*.

        A handler replaces a weight or a comm edge exactly when it changes,
        so those compare by identity (which also tells ``3`` from ``3.0``);
        routes read as fresh label lists, so the rest compare by value.
        """
        comm = {}
        for name, edges in self._comm.items():
            old = base["comm"][name]
            moved = {i: edge for i, edge in enumerate(edges)
                     if i >= len(old) or edge is not old[i]}
            if moved or len(edges) != len(old):
                comm[name] = (len(edges), moved)
        routes, dropped = _changes(base["routes"], self.mapping.routes)
        return {
            "delta": _DELTA_LAYOUT,
            "parent": parent,
            "chain": self._chain,
            "event_index": self._event_index,
            "records": self.trace[len(base["trace"]):],
            "weights": _changes(base["weights"], self._weights, operator.is_),
            "assignment": _changes(base["assignment"], self.mapping.assignment),
            "routes": (routes, dropped),
            "counters": _changes(base["counters"], self.counters),
            "comm": comm,
            "scalars": {name: value for name, value in self._scalars().items()
                        if value != base[name]},
        }

    def _restore(self, state: dict) -> None:
        """Adopt *state*, a private copy made by :func:`_state`."""
        self._chain = state["chain"]
        self._event_index = state["event_index"]
        self._weights = state["weights"]
        self._comm = state["comm"]
        self._exec = state["exec"]
        self._graph_cache = None
        self.faults = state["faults"]
        self.machine = self._derive_machine()
        self.baseline = state["baseline"]
        self._armed = state["armed"]
        self._cooldown = state["cooldown"]
        self._decision_cost = state["decision_cost"]
        self.trace = state["trace"]
        self.counters = state["counters"]
        self._rebind(state["assignment"], state["routes"], state["provenance"])

    def _try_restore(self, events) -> int:
        """Restore the deepest intact checkpoint matching a prefix of
        *events*."""
        journal = journal_for(self.session_key, self._cache)
        if journal is None:
            return 0
        chains = []
        chain = self.session_key
        for event in events:
            chain = stable_digest({
                "kind": "online-chain",
                "prev": chain,
                "event": event_fingerprint(event),
            })
            chains.append(chain)
        broken: set[str] = set()
        layout = self._snapshot().keys()
        for i in range(len(events), 0, -1):
            key = _entry_key(i, chains[i - 1])
            found = _resolve(journal, key, broken, layout)
            if found is not None:
                state, root = found
                self._restore(_state(state))
                self._journalled = (key, root, state)
                # The walk stamped the deepest entry as the least recently
                # used, against the order eviction relies on (see
                # _checkpoint): the chain starts anew here.
                self._compact(journal)
                self._resumed_at = i
                self._bump("resumed_events", i)
                return i
        return 0

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def trace_fingerprint(self) -> str:
        """A stable digest of the canonical trace: the determinism oracle."""
        return stable_digest({
            "kind": "online-trace",
            "session": self.session_key,
            "records": [r.canonical() for r in self.trace],
        })

    def report(self) -> SessionReport:
        return SessionReport(
            session_key=self.session_key,
            records=list(self.trace),
            trace_fingerprint=self.trace_fingerprint(),
            final_mapping_fingerprint=mapping_fingerprint(self.mapping),
            final_comm_cost=comm_cost(self.mapping),
            baseline_cost=self.baseline,
            counters=dict(self.counters),
            resumed_at=self._resumed_at,
        )


# ----------------------------------------------------------------------
# the checkpoint journal: a full snapshot, then deltas naming a parent
# ----------------------------------------------------------------------
#: The delta layout; a delta of any other is unreadable, and an error
#: applying one of this layout is a bug, not a broken link.
_DELTA_LAYOUT = 1


def _entry_key(event_index: int, chain: str) -> str:
    """The journal task key of the checkpoint taken after *event_index*
    events."""
    return f"event:{event_index - 1}:{chain}"


def _record(journal, key: str, value: dict) -> None:
    index = value["event_index"] - 1
    journal.record(key, TaskResult(index=index, key=f"event:{index}",
                                   status="ok", value=value))


def _changes(old: dict, new: dict, same=operator.eq) -> tuple[dict, list]:
    """The items *new* adds or changes against *old*, and the keys it
    drops."""
    return (
        {k: v for k, v in new.items() if k not in old or not same(old[k], v)},
        [k for k in old if k not in new],
    )


def _state(snapshot: dict) -> dict:
    """A private copy of a full snapshot, in this or the tuple-edge layout
    of earlier checkouts: deltas apply to it in place, and a session adopts
    it.  Comm edges already :class:`CommEdge` are kept, not rebuilt."""
    return {
        **snapshot,
        "weights": dict(snapshot["weights"]),
        "comm": {
            name: [e if isinstance(e, CommEdge) else CommEdge(*e)
                   for e in edges]
            for name, edges in snapshot["comm"].items()
        },
        "assignment": dict(snapshot["assignment"]),
        "routes": dict(snapshot["routes"]),
        "trace": list(snapshot["trace"]),
        "counters": dict(snapshot["counters"]),
    }


def _apply(state: dict, delta: dict) -> None:
    """Advance *state* by one *delta*, in place."""
    for name in ("weights", "assignment", "routes", "counters"):
        changed, dropped = delta[name]
        for key in dropped:
            del state[name][key]
        state[name].update(changed)
    for name, (length, moved) in delta["comm"].items():
        edges = state["comm"][name][:length]
        edges += [None] * (length - len(edges))
        for i, edge in moved.items():
            edges[i] = edge
        state["comm"][name] = edges
    state.update(delta["scalars"], chain=delta["chain"],
                 event_index=delta["event_index"])
    state["trace"].extend(delta["records"])


def _read(journal, key: str, layout) -> dict | None:
    """The checkpoint journalled under *key*: a delta as written, a full
    snapshot (holding every key of *layout*) as a :func:`_state` copy, or
    ``None`` when it is missing, unreadable or not the checkpoint its key
    names."""
    hit = journal.load(key)
    entry = hit.value if hit is not None and hit.ok else None
    try:
        if _entry_key(entry["event_index"], entry["chain"]) != key:
            return None
        if "delta" in entry:
            return entry if entry["delta"] == _DELTA_LAYOUT else None
        return _state(entry) if layout <= entry.keys() else None
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None


def _resolve(journal, key: str, broken: set, layout):
    """``(state, snapshot key)`` for the checkpoint under *key*, or
    ``None``.

    Follows parent links back to a full snapshot, then applies the deltas
    forward.  A link :func:`_read` cannot use yields ``None``, and the
    deltas that depend on it join *broken*, so a fallback to a shallower
    checkpoint never walks them again.
    """
    deltas: dict[str, dict] = {}  # key -> delta, deepest first
    while key not in broken and key not in deltas:
        entry = _read(journal, key, layout)
        if entry is None:
            break
        if "delta" not in entry:
            for delta in reversed(deltas.values()):
                _apply(entry, delta)
            return entry, key
        deltas[key] = entry
        key = entry["parent"]
    broken.update(deltas)
    return None
