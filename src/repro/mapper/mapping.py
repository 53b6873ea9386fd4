"""The :class:`Mapping` result type shared by all MAPPER algorithms.

A mapping records the outcome of all three steps:

* **assignment** -- task label -> processor (contraction + embedding
  combined: the cluster structure is recoverable as the fibres of the
  assignment);
* **routes** -- for each directed message edge ``(phase, edge_index)``, the
  processor path its messages take (length-1 path for intra-processor
  messages);
* **provenance** -- which MAPPER path produced it (``"canned"``,
  ``"group"``, ``"mwm"``, ...), for METRICS displays and the dispatch
  benchmarks.

The assignment and the routes stamp their own writes (:class:`StampedDict`),
so a table derived from a mapping keys on :attr:`Mapping.edits` and no
editor has to drop it.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Mapping as AbcMapping

from repro.arch.capacity import CapacityContext
from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.util.fingerprint import encode_label
from repro.util.validation import ValidationError

__all__ = ["Mapping", "NotApplicableError"]

Task = Hashable
Proc = Hashable
RouteKey = tuple[str, int]  # (phase name, edge index within phase)


class NotApplicableError(Exception):
    """A specialised MAPPER algorithm does not apply to this input.

    The dispatcher catches this and falls through to the next, more general
    strategy (e.g. a non-Cayley graph falls from the group-theoretic path to
    MWM-Contract).
    """


_STAMPS = itertools.count()


class StampedDict(dict):
    """A dict that takes a fresh ``stamp`` from one process-wide clock when
    created and on every write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamp = next(_STAMPS)

    def __reduce__(self):  # pickles carry a plain dict: stamps are per process
        return dict, (dict(self),)

    def _stamped(write):
        def stamped(self, *args, **kwargs):
            self.stamp = next(_STAMPS)
            return write(self, *args, **kwargs)
        return stamped

    __setitem__, __delitem__, update, pop = map(
        _stamped, (dict.__setitem__, dict.__delitem__, dict.update, dict.pop))
    popitem, clear, setdefault, __ior__ = map(
        _stamped, (dict.popitem, dict.clear, dict.setdefault, dict.__ior__))


class Mapping:
    """A complete mapping of a task graph onto a topology."""

    #: Pipeline annotations (MM-Route's round count, the group-theoretic
    #: diagnostics, the strategy's counters); ``None`` on a mapping built
    #: by hand or pickled before the class declared them.
    routing_rounds: int | None = None
    group_contraction = None
    map_stats: dict | None = None

    def __init__(
        self,
        task_graph: TaskGraph,
        topology: Topology,
        assignment: AbcMapping[Task, Proc],
        routes: dict[RouteKey, list[Proc]] | None = None,
        *,
        provenance: str = "manual",
    ):
        self.task_graph = task_graph
        self.topology = topology
        self.assignment: dict[Task, Proc] = assignment
        self.routes: dict[RouteKey, list[Proc]] = routes or {}
        self.provenance = provenance

    def __setattr__(self, name, value):
        # Whoever binds the tables binds a stamped copy of them.
        if name in ("assignment", "routes"):
            value = StampedDict(value)
        object.__setattr__(self, name, value)

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    @property
    def edits(self) -> tuple:
        """Moves on every write to the assignment, routes or task graph."""
        tg = self.task_graph
        return self.assignment.stamp, self.routes.stamp, tg._version, tg.n_edges

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def proc_of(self, task: Task) -> Proc:
        """The processor a task is assigned to."""
        return self.assignment[task]

    def tasks_on(self, proc: Proc) -> list[Task]:
        """All tasks assigned to a processor (the cluster)."""
        return [t for t, p in self.assignment.items() if p == proc]

    def clusters(self) -> dict[Proc, list[Task]]:
        """The contraction as a processor -> task-list mapping."""
        out: dict[Proc, list[Task]] = {}
        for t, p in self.assignment.items():
            out.setdefault(p, []).append(t)
        return out

    def used_procs(self) -> set[Proc]:
        """Processors with at least one task."""
        return set(self.assignment.values())

    def dilation(self, phase: str, edge_index: int) -> int:
        """Hops of one message edge's route (0 for intra-processor)."""
        return len(self.routes[(phase, edge_index)]) - 1

    def copy(self) -> "Mapping":
        """A copy safe to mutate independently.

        Fresh assignment/route dicts; the task graph, topology and
        annotations are shared (immutable in practice).
        """
        dup = Mapping.__new__(Mapping)
        dup.__setstate__(self.__dict__)
        return dup

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, *, require_routes: bool = False) -> None:
        """Raise :class:`ValueError` when structurally inconsistent.

        Checks: every graph task assigned to an existing processor; no
        assignment entry for a task the graph does not have (a dangling
        entry would silently corrupt cluster and load-balance accounting);
        every route connects the assigned endpoints of its edge along
        existing links; with *require_routes*, every inter-processor edge
        has a route.

        On a machine with capacity vectors (``topology.capacities``), also
        checks every processor's consumed demand against its capacity in
        every resource.  A violation raises
        :class:`~repro.util.validation.ValidationError` whose ``payload``
        lists each overflowing ``(processor, resource)`` pair with the
        exact demand and capacity, so callers see *which* budget burst,
        not just that one did.
        """
        procs = set(self.topology.processors)
        tasks = set(self.task_graph.nodes)
        for task in tasks:
            if task not in self.assignment:
                raise ValueError(f"task {task!r} is unassigned")
            if self.assignment[task] not in procs:
                raise ValueError(
                    f"task {task!r} assigned to unknown processor "
                    f"{self.assignment[task]!r}"
                )
        unknown_tasks = [t for t in self.assignment if t not in tasks]
        if unknown_tasks:
            raise ValidationError(
                f"assignment contains tasks not in the graph: "
                f"{sorted(unknown_tasks, key=repr)!r}"
            )
        for (phase, idx), route in self.routes.items():
            edges = self.task_graph.comm_phase(phase).edges
            if not (0 <= idx < len(edges)):
                raise ValueError(f"route key ({phase!r}, {idx}) matches no edge")
            edge = edges[idx]
            if not self.topology.is_valid_route(route):
                raise ValueError(f"route for ({phase!r}, {idx}) is not a network path")
            if route[0] != self.assignment[edge.src] or route[-1] != self.assignment[edge.dst]:
                raise ValueError(
                    f"route for ({phase!r}, {idx}) does not connect the "
                    f"assigned processors of {edge}"
                )
        if require_routes:
            for phase_name, phase in self.task_graph.comm_phases.items():
                for idx, edge in enumerate(phase.edges):
                    if (phase_name, idx) not in self.routes:
                        raise ValueError(
                            f"missing route for edge {idx} of phase {phase_name!r}"
                        )
        capacity = CapacityContext.of(self.task_graph, self.topology)
        overflows = capacity.overflows(self.assignment)
        if overflows:
            first = overflows[0]
            raise ValidationError(
                f"mapping overflows {len(overflows)} processor capacit"
                f"{'y' if len(overflows) == 1 else 'ies'}: e.g. resource "
                f"{first['resource']!r} on processor "
                f"{first['processor']!r} needs {first['demand']:g} of "
                f"{first['capacity']:g}",
                payload={"kind": "capacity_overflow", "overflows": [
                    {**o, "processor": encode_label(o["processor"])}
                    for o in overflows
                ]},
            )

    def __repr__(self) -> str:
        return (
            f"<Mapping {self.task_graph.name!r} -> {self.topology.name!r} "
            f"({self.provenance}): {len(self.assignment)} tasks on "
            f"{len(self.used_procs())} processors, {len(self.routes)} routes>"
        )
