"""Interactive mapping-modification sessions.

METRICS "allows the user to inspect and modify the mapping ... using click
and drag mouse operations.  The user can reassign tasks to processors or
re-route communication edges, and METRICS will display the modified
assignment and recompute performance metrics."  This class is that loop in
programmatic form: :meth:`move_task`, :meth:`reroute`, metric recomputation
after every edit, and :meth:`undo`.
"""

from __future__ import annotations

from repro.mapper.mapping import Mapping, RouteTable
from repro.mapper.routing.mm_route import mm_route
from repro.metrics.analysis import MappingMetrics, analyze
from repro.metrics.report import render_report
from repro.sim.model import CostModel

__all__ = ["EditSession"]


class EditSession:
    """An editable mapping with automatic metric recomputation and undo."""

    def __init__(self, mapping: Mapping, model: CostModel | None = None):
        mapping.validate(require_routes=True)
        self.mapping = mapping
        self.model = model or CostModel()
        self._history: list[tuple[dict, RouteTable]] = []
        self._metrics: tuple = ((), None)  # (mapping.edits, metrics)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MappingMetrics:
        """Current metrics (recomputed lazily after each edit)."""
        if self._metrics[0] != self.mapping.edits:
            self._metrics = (self.mapping.edits, analyze(self.mapping, self.model))
        return self._metrics[1]

    def report(self) -> str:
        """The current text report."""
        return render_report(self.mapping, self.metrics)

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        # A route table's copy shares its read-only arrays with the mapping's.
        self._history.append((dict(self.mapping.assignment), self.mapping.routes.copy()))

    def move_task(self, task, proc) -> MappingMetrics:
        """Reassign one task to another processor and re-route its traffic.

        Only the phases touching the moved task are re-routed (with
        MM-Route); everything else keeps its routes, like the incremental
        update a user sees after one drag.
        """
        if task not in self.mapping.assignment:
            raise KeyError(f"unknown task {task!r}")
        if proc not in set(self.mapping.topology.processors):
            raise KeyError(f"unknown processor {proc!r}")
        self._snapshot()
        self.mapping.assignment[task] = proc
        tg = self.mapping.task_graph
        touched = {
            name
            for name, phase in tg.comm_phases.items()
            if any(task in (e.src, e.dst) for e in phase.edges)
        }
        if touched:
            fresh = mm_route(tg, self.mapping.topology, self.mapping.assignment)
            self.mapping.routes.update(
                {key: route for key, route in fresh.routes.items() if key[0] in touched})
        self.mapping.validate(require_routes=True)
        return self.metrics

    def reroute(self, phase: str, edge_index: int, route: list) -> MappingMetrics:
        """Manually replace one edge's route (validated against the network)."""
        edge = self.mapping.task_graph.comm_phase(phase).edges[edge_index]
        if not self.mapping.topology.is_valid_route(route):
            raise ValueError("proposed route is not a path in the network")
        if (
            route[0] != self.mapping.proc_of(edge.src)
            or route[-1] != self.mapping.proc_of(edge.dst)
        ):
            raise ValueError("proposed route does not connect the edge's processors")
        self._snapshot()
        self.mapping.routes[(phase, edge_index)] = list(route)
        return self.metrics

    def undo(self) -> MappingMetrics:
        """Revert the most recent edit."""
        if not self._history:
            raise RuntimeError("nothing to undo")
        assignment, routes = self._history.pop()
        self.mapping.assignment = assignment
        self.mapping.routes = routes
        return self.metrics

    @property
    def edits(self) -> int:
        """Number of undoable edits applied so far."""
        return len(self._history)
