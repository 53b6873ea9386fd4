"""Failure-sweep analysis: what does losing each piece of hardware cost?

For every processor (and/or link) of the machine, the sweep injects the
single fault, repairs the mapping incrementally, re-simulates the repaired
computation, and records the slowdown against the pristine baseline.  The
output is a **criticality ranking** -- which hardware the computation can
least afford to lose -- and a **degradation distribution** summarising how
gracefully the mapping absorbs single faults.

The per-fault work is embarrassingly parallel, so the sweep fans out
through the supervised runtime (:mod:`repro.runtime`) over the same
serial/thread/process executors as the mapping portfolio; entries come
back in element order and the ranking is bit-identical at any worker
count.

Two kinds of "fault" meet here and stay distinct:

* **Modeled-machine faults** are the sweep's subject: the injected
  processor/link losses.  Elements whose loss disconnects the machine
  (an articulation processor, a bridge link -- every link of a tree) are
  maximally critical and reported with ``status="disconnects"``.
* **Toolchain faults** are worker problems while *measuring* an element:
  a hung repair (deadline blown), a crashed worker, exhausted retries.
  These become explicit ``status="failed"`` rows carrying the error --
  the sweep completes and ranks instead of aborting, and failed rows sit
  between the disconnecting and the survivable faults (unmeasured is
  treated as worse than any measured degradation).

With ``resume="auto"`` and a ``cache``, every finished entry checkpoints
into that store's disk tier keyed by the sweep's content fingerprint; a
sweep killed at fault 900/1000 re-invoked with the same inputs resumes
from the journal and its ranking is bit-identical to an uninterrupted
run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.arch.topology import DisconnectedTopologyError, Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.dispatch import map_computation
from repro.mapper.mapping import Mapping
from repro.sim.engine import simulate
from repro.sim.model import CostModel
from repro.util import perf

from repro.resilience.faults import FaultSet
from repro.resilience.repair import repair_mapping

__all__ = ["FaultImpact", "SweepResult", "failure_sweep"]

_ELEMENTS = ("processors", "links", "both")

#: Ranking order of the status classes (lower sorts first).
_STATUS_RANK = {"disconnects": 0, "failed": 1, "ok": 2}


@dataclass
class FaultImpact:
    """The measured impact of one injected single fault.

    Attributes
    ----------
    kind:
        ``"proc"`` or ``"link"``.
    element:
        The processor label, or the ``(u, v)`` link tuple.
    status:
        ``"ok"`` (repaired and re-simulated), ``"disconnects"`` (the
        fault splits the machine; no repair exists), or ``"failed"``
        (the measurement's worker timed out/crashed/kept failing --
        a toolchain fault, not a machine one; see ``error``).
    repaired_time / ratio:
        Simulated completion time of the repaired mapping and its ratio to
        the pristine baseline (``inf`` when disconnecting or failed).
    moved_tasks / rerouted / kept_routes / migration_cost / strategy:
        The repair report's touch summary.
    error:
        The supervision failure summary for ``status="failed"`` rows.
    """

    kind: str
    element: object
    status: str
    repaired_time: float = math.inf
    ratio: float = math.inf
    moved_tasks: int = 0
    rerouted: int = 0
    kept_routes: int = 0
    migration_cost: float = 0.0
    strategy: str = "none"
    error: str | None = None

    @property
    def label(self) -> str:
        """Display label (``proc 5`` / ``link 2-3``)."""
        if self.kind == "proc":
            return f"proc {self.element}"
        u, v = self.element
        return f"link {u}-{v}"


@dataclass
class SweepResult:
    """All single-fault impacts of one sweep, plus the pristine baseline."""

    baseline_time: float
    entries: list[FaultImpact] = field(default_factory=list)

    def ranking(self) -> list[FaultImpact]:
        """Entries by criticality: disconnecting faults first, then
        unmeasured (``failed``) rows, then survivable faults by
        degradation ratio descending; ties keep element order (stable)."""
        order = {id(e): i for i, e in enumerate(self.entries)}
        return sorted(
            self.entries,
            key=lambda e: (
                _STATUS_RANK.get(e.status, 3),
                -e.ratio if e.status == "ok" else 0.0,
                order[id(e)],
            ),
        )

    def distribution(self) -> dict:
        """Summary statistics of the degradation ratios of survivable faults."""
        ratios = sorted(e.ratio for e in self.entries if e.status == "ok")
        n = len(ratios)
        failed = sum(1 for e in self.entries if e.status == "failed")
        out = {
            "faults": len(self.entries),
            "survivable": n,
            "disconnecting": len(self.entries) - n - failed,
            "failed": failed,
        }
        if n:
            out.update(
                min_ratio=ratios[0],
                median_ratio=ratios[n // 2] if n % 2 else
                    (ratios[n // 2 - 1] + ratios[n // 2]) / 2.0,
                mean_ratio=sum(ratios) / n,
                max_ratio=ratios[-1],
            )
        return out

    def to_dict(self) -> dict:
        """JSON-compatible form (consumed by the CLI's ``--json``)."""
        return {
            "baseline_time": self.baseline_time,
            "distribution": self.distribution(),
            "ranking": [
                {
                    "kind": e.kind,
                    "element": list(e.element) if e.kind == "link" else e.element,
                    "status": e.status,
                    "repaired_time": None if math.isinf(e.repaired_time)
                        else e.repaired_time,
                    "ratio": None if math.isinf(e.ratio) else e.ratio,
                    "moved_tasks": e.moved_tasks,
                    "rerouted": e.rerouted,
                    "kept_routes": e.kept_routes,
                    "migration_cost": e.migration_cost,
                    "strategy": e.strategy,
                    "error": e.error,
                }
                for e in self.ranking()
            ],
        }


def _impact_task(payload) -> FaultImpact:
    """Top-level single-fault worker (picklable for process pools)."""
    tg, mapping, topology, kind, element, model, state_volume, baseline = payload
    fault = (
        FaultSet.proc(element) if kind == "proc" else FaultSet.link(*element)
    )
    try:
        report = repair_mapping(
            tg, mapping, topology, fault, model=model, state_volume=state_volume
        )
    except DisconnectedTopologyError:
        return FaultImpact(kind=kind, element=element, status="disconnects")
    sim = simulate(report.mapping, model)
    return FaultImpact(
        kind=kind,
        element=element,
        status="ok",
        repaired_time=sim.total_time,
        ratio=sim.total_time / baseline if baseline > 0 else math.inf,
        moved_tasks=report.n_moved,
        rerouted=report.n_rerouted,
        kept_routes=report.kept_routes,
        migration_cost=report.migration_cost,
        strategy=report.strategy,
    )


def failure_sweep(
    tg: TaskGraph,
    topology: Topology,
    *,
    mapping: Mapping | None = None,
    elements: str = "processors",
    model: CostModel | None = None,
    state_volume: float = 1.0,
    executor: str = "serial",
    max_workers: int | None = None,
    deadline: float | None = None,
    retry=None,
    chaos=None,
    resume: str = "off",
    cache=None,
) -> SweepResult:
    """Measure the single-fault impact of every processor and/or link.

    Parameters
    ----------
    tg, topology:
        The computation and the pristine machine.
    mapping:
        The pre-fault mapping to repair in each trial; computed with
        ``map_computation(tg, topology)`` when omitted.
    elements:
        ``"processors"`` (default), ``"links"``, or ``"both"``.
    model, state_volume:
        Simulation cost model and per-task migration state volume.
    executor, max_workers:
        Fan-out control (``"serial"`` / ``"thread"`` / ``"process"``).
        Entries, rankings and every number in them are identical for every
        executor and worker count.
    deadline:
        Per-fault wall-clock budget in seconds; a trial that blows it is
        killed and recorded as a ``failed`` row.
    retry:
        A :class:`~repro.runtime.RetryPolicy` for crashed / transiently
        failing trial workers (default: single attempt).
    chaos, resume, cache:
        See :func:`repro.runtime.run_supervised` / ``resume_journal``.
        *cache* holds the journal only (``None``: no journal); each
        fault's own work runs uncached.

    Returns
    -------
    A :class:`SweepResult`; ``ranking()`` gives the criticality order and
    ``distribution()`` the degradation statistics.  Toolchain failures
    never abort the sweep -- they are explicit ``failed`` rows.
    """
    from repro import io
    from repro.runtime import resume_journal, run_supervised

    if elements not in _ELEMENTS:
        raise ValueError(
            f"unknown elements {elements!r}; choose from {_ELEMENTS}"
        )
    model = model or CostModel()
    with perf.span("resilience.failure_sweep"):
        if mapping is None:
            mapping = map_computation(tg, topology)
        baseline = simulate(mapping, model).total_time

        targets: list[tuple[str, object]] = []
        if elements in ("processors", "both"):
            targets.extend(("proc", p) for p in topology.processors)
        if elements in ("links", "both"):
            targets.extend(
                ("link", tuple(sorted(link, key=repr)))
                for link in topology.links
            )
        payloads = [
            (tg, mapping, topology, kind, element, model, state_volume, baseline)
            for kind, element in targets
        ]
        keys = [
            f"proc {element}" if kind == "proc"
            else f"link {element[0]}-{element[1]}"
            for kind, element in targets
        ]

        journal = resume_journal(resume, cache, lambda: {
            "kind": "failure-sweep-run",
            "task_graph": tg.fingerprint(),
            "topology": topology.fingerprint(),
            "mapping": io.mapping_to_dict(mapping),
            "elements": elements,
            "model": model.fingerprint_payload(),
            "state_volume": state_volume,
        })
        results = run_supervised(
            _impact_task,
            payloads,
            executor=executor,
            max_workers=max_workers,
            keys=keys,
            deadline=deadline,
            retry=retry,
            chaos=chaos,
            journal=journal,
        )
        entries = [
            r.value if r.ok else FaultImpact(
                kind=kind, element=element, status="failed", error=str(r.error)
            )
            for (kind, element), r in zip(targets, results)
        ]
    perf.count("resilience.sweep.faults", len(entries))
    return SweepResult(baseline_time=baseline, entries=entries)
