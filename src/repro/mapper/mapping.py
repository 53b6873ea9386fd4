"""The :class:`Mapping` result type shared by all MAPPER algorithms.

A mapping records the outcome of all three steps:

* **assignment** -- task label -> processor (contraction + embedding
  combined: the cluster structure is recoverable as the fibres of the
  assignment);
* **routes** -- for each directed message edge ``(phase, edge_index)``, the
  processor path its messages take (length-1 path for intra-processor
  messages).  A router hands them over as a :class:`RouteTable`: per phase
  one ``(ptr, hops)`` pair of index arrays instead of a dict entry and a
  label list per edge.  The simulator, validation and METRICS read those
  arrays (:meth:`Mapping.index_paths`); everything else sees a dict;
* **provenance** -- which MAPPER path produced it (``"canned"``,
  ``"group"``, ``"mwm"``, ...), for METRICS displays and the dispatch
  benchmarks.

The assignment and the routes stamp their own writes (:class:`StampedDict`),
so a table derived from a mapping keys on :attr:`Mapping.edits` and no
editor has to drop it.  A route table's first write turns it into such a
dict, in the same iteration order, so editors write routes as they always
did.  Pickles carry plain dicts either way.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Hashable, ItemsView, Mapping as AbcMapping, MutableMapping

import numpy as np

from repro.arch.capacity import CapacityContext
from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.util.fingerprint import encode_label
from repro.util.validation import ValidationError

__all__ = ["Mapping", "NotApplicableError", "RouteTable"]

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


def pack_paths(paths) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, hops)`` of index paths, one per edge: path ``i`` is
    ``hops[ptr[i]:ptr[i + 1]]``, and an empty path is an edge without a
    route."""
    ptr = np.zeros(len(paths) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, paths), np.int64, len(paths)), out=ptr[1:])
    hops = np.fromiter(
        itertools.chain.from_iterable(paths), np.int32, int(ptr[-1])
    )
    return ptr, hops


class RouteTable(MutableMapping):
    """``(phase, edge index) -> processor path``, held as index arrays.

    Per phase one ``(ptr, hops)`` pair of :func:`pack_paths`, over the
    processor list *procs*: int64 offsets and int32 processor indices,
    read-only.  Reads build label lists, a phase at a time when iterating.
    The first write turns the table into a :class:`StampedDict` of the same
    items in the same order, which it wraps from then on.  :meth:`copy`
    shares the arrays of an unwritten table and returns the dict's copy
    once it is written; pickles and deep copies are plain dicts.
    """

    def __init__(self, procs: list, phases: dict[str, tuple[np.ndarray, np.ndarray]]):
        for arrays in phases.values():
            for array in arrays:
                array.setflags(write=False)
        self._procs = procs
        self._phases = phases
        self._dict: StampedDict | None = None
        self._stamp = next(_STAMPS)
        self._len = sum(
            int(np.count_nonzero(ptr[1:] > ptr[:-1])) for ptr, _ in phases.values()
        )

    @property
    def stamp(self) -> int:
        return self._stamp if self._dict is None else self._dict.stamp

    def arrays(self, phase: str, procs: list) -> tuple[np.ndarray, np.ndarray] | None:
        """*phase*'s ``(ptr, hops)`` while the table is unwritten and indexes
        the processor list *procs*; ``None`` otherwise."""
        if self._dict is None and (self._procs is procs or self._procs == procs):
            return self._phases.get(phase)
        return None

    def _path(self, key) -> np.ndarray | None:
        hash(key)  # an unhashable key raises as a dict's would
        try:
            phase, idx = key
            ptr, hops = self._phases[phase]
            i = operator.index(idx)
        except (TypeError, ValueError, KeyError):
            return None
        if 0 <= i < ptr.size - 1 and ptr[i] < ptr[i + 1]:
            return hops[ptr[i]:ptr[i + 1]]
        return None

    def _items(self):
        if self._dict is not None:
            return iter(self._dict.items())
        return itertools.chain.from_iterable(map(self._phase_items, self._phases.items()))

    def _phase_items(self, entry):
        phase, (ptr, hops) = entry
        labels = list(map(self._procs.__getitem__, hops.tolist()))
        bounds = ptr.tolist()
        routes = map(labels.__getitem__, map(slice, bounds, bounds[1:]))
        # An empty slice is an edge without a route.
        return filter(operator.itemgetter(1), zip(
            zip(itertools.repeat(phase), itertools.count()), routes))

    def __getitem__(self, key):
        if self._dict is not None:
            return self._dict[key]
        path = self._path(key)
        if path is None:
            raise KeyError(key)
        procs = self._procs
        return [procs[k] for k in path.tolist()]

    def __contains__(self, key) -> bool:
        if self._dict is not None:
            return key in self._dict
        return self._path(key) is not None

    def __iter__(self):
        if self._dict is not None:
            return iter(self._dict)
        return itertools.chain.from_iterable(
            zip(itertools.repeat(phase), np.flatnonzero(ptr[1:] > ptr[:-1]).tolist())
            for phase, (ptr, _) in self._phases.items()
        )

    def __len__(self) -> int:
        return self._len if self._dict is None else len(self._dict)

    def items(self):
        return self._dict.items() if self._dict is not None else _RouteItems(self)

    def _materialize(self) -> StampedDict:
        if self._dict is None:
            self._dict = StampedDict(self._items())
            self._phases = {}
        return self._dict

    def _on_dict(write):
        def on_dict(self, *args, **kwargs):
            return write(self._materialize(), *args, **kwargs)
        return on_dict

    __setitem__, __delitem__, update, pop = map(_on_dict, (
        StampedDict.__setitem__, StampedDict.__delitem__, StampedDict.update,
        StampedDict.pop))
    popitem, clear, setdefault = map(_on_dict, (
        StampedDict.popitem, StampedDict.clear, StampedDict.setdefault))

    def __ior__(self, other):
        self._materialize().__ior__(other)
        return self

    def copy(self):
        if self._dict is not None:
            return StampedDict(self._dict)
        return RouteTable(self._procs, self._phases)

    def __reduce__(self):  # pickles carry a plain dict, as StampedDict's do
        return dict, (dict(self.items()),)

    def __repr__(self) -> str:
        return f"RouteTable({dict(self.items())!r})"


class _RouteItems(ItemsView):
    def __iter__(self):
        return self._mapping._items()


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
        self.routes: MutableMapping[RouteKey, list[Proc]] = routes or {}
        self.provenance = provenance

    def __setattr__(self, name, value):
        # Whoever binds the tables binds a stamped copy of them; a route
        # table's copy shares its arrays.
        if name == "routes" and isinstance(value, RouteTable):
            value = value.copy()
        elif name in ("assignment", "routes"):
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

    def index_paths(self, phase: str) -> tuple[np.ndarray, np.ndarray]:
        """*phase*'s routes as processor indices, the one way the simulator,
        validation and METRICS read them: ``(ptr, hops)`` with one offset
        per edge plus one, edge ``i``'s route ``hops[ptr[i]:ptr[i + 1]]``
        and an empty range where it has none.  A router's table answers
        with its own arrays; a dict is converted once, a label the machine
        lacks reading -1 and an empty route as none."""
        n = len(self.task_graph.comm_phase(phase).edges)
        routes = self.routes
        if isinstance(routes, RouteTable):
            packed = routes.arrays(phase, self.topology.processors)
            if packed is not None and packed[0].size == n + 1:
                return packed
        index = self.topology.proc_indices
        get = routes.get
        paths = []
        for i in range(n):
            route = get((phase, i))
            paths.append([index.get(p, -1) for p in route] if route else ())
        return pack_paths(paths)

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
        tg, topo = self.task_graph, self.topology
        n_edges = {name: len(phase.edges) for name, phase in tg.comm_phases.items()}
        for phase, idx in self.routes:
            n = n_edges.get(phase)
            if n is None:
                n = len(tg.comm_phase(phase).edges)  # raises on no such phase
            if not (0 <= idx < n):
                raise ValueError(f"route key ({phase!r}, {idx}) matches no edge")
        index, assignment = topo.proc_indices, self.assignment
        missing = None
        for name, phase in tg.comm_phases.items():
            edges = phase.edges
            ptr, hops = self.index_paths(name)
            broken = topo.path_link_ids(ptr, hops)[2]
            present = np.flatnonzero(ptr[1:] > ptr[:-1])
            src, dst = (
                np.fromiter((index[assignment[t]] for t in ends), np.int64, len(edges))
                for ends in ((e.src for e in edges), (e.dst for e in edges))
            )
            wrong = np.zeros(len(edges), dtype=bool)
            wrong[present] = (hops[ptr[present]] != src[present]) | (
                hops[ptr[present + 1] - 1] != dst[present])
            bad = np.flatnonzero(broken | wrong)
            if bad.size:
                i = int(bad[0])
                if broken[i]:
                    raise ValueError(f"route for ({name!r}, {i}) is not a network path")
                raise ValueError(
                    f"route for ({name!r}, {i}) does not connect the "
                    f"assigned processors of {edges[i]}"
                )
            if require_routes and missing is None and present.size < len(edges):
                missing = (name, int(np.argmin(ptr[1:] > ptr[:-1])))
        if missing is not None:
            raise ValueError(f"missing route for edge {missing[1]} of phase {missing[0]!r}")
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
