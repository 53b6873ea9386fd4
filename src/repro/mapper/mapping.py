"""The :class:`Mapping` result type shared by all MAPPER algorithms.

A mapping records the outcome of all three steps:

* **assignment** -- task label -> processor (contraction + embedding
  combined: the cluster structure is recoverable as the fibres of the
  assignment);
* **routes** -- for each directed message edge ``(phase, edge_index)``, the
  processor path its messages take (length-1 path for intra-processor
  messages), held as a :class:`RouteTable` of per-phase index arrays.  The
  simulator, validation and METRICS read those arrays
  (:meth:`Mapping.index_paths`); everything else reads and writes the
  table as a dict of label lists;
* **provenance** -- which MAPPER path produced it (``"canned"``,
  ``"group"``, ``"mwm"``, ...), for METRICS displays and the dispatch
  benchmarks.

The assignment (a :class:`StampedDict`) and the route table stamp their
own writes, so a table derived from a mapping keys on
:attr:`Mapping.edits` and no editor has to drop it.  Binding a dict as the
routes packs it once; pickles carry plain dicts either way.
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


def _frozen(ptr: np.ndarray, hops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ptr.setflags(write=False)
    hops.setflags(write=False)
    return ptr, hops


_UNROUTED = _frozen(*pack_paths([]))


class RouteTable(MutableMapping):
    """``(phase, edge index) -> processor path`` of one task graph on one
    machine, held as index arrays.

    Per phase one read-only ``(ptr, hops)`` pair of :func:`pack_paths` over
    ``topology.processors``, which a :meth:`copy` shares.  Reads build label
    lists, iteration runs phase-major in the graph's declaration order.  A
    write rebuilds its phase's arrays, each phase once per :meth:`update`,
    and takes a fresh ``stamp``.  A key that is no edge of the live graph, a
    label that is no processor or an empty path raises :class:`ValueError`
    (:meth:`Mapping.validate`'s message) and leaves the table as it was.
    Pickles and deep copies are plain dicts.
    """

    def __init__(self, tg: TaskGraph, topology: Topology, phases=None):
        self._tg, self._topo = tg, topology
        self._procs = topology.processors
        self._phases = {name: _frozen(*arrays) for name, arrays in (phases or {}).items()}
        self.stamp = next(_STAMPS)

    def _arrays(self, phase: str) -> tuple[np.ndarray, np.ndarray]:
        """*phase*'s ``(ptr, hops)``, one offset per live edge plus one."""
        n = len(self._tg.comm_phase(phase).edges)  # raises on no such phase
        ptr, hops = self._phases.get(phase, _UNROUTED)
        if ptr.size <= n:  # edges the phase gained since its last write
            pad = np.full(n + 1 - ptr.size, ptr[-1])
            ptr = _frozen(np.concatenate([ptr, pad]), hops)[0]
        return ptr, hops

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

    def _ordered(self):
        """The routed phases' ``(name, arrays)`` in declaration order."""
        phases = self._phases
        return ((name, phases[name]) for name in self._tg.comm_phases if name in phases)

    def _phase_items(self, entry):
        phase, (ptr, hops) = entry
        labels = list(map(self._procs.__getitem__, hops.tolist()))
        bounds = ptr.tolist()
        routes = map(labels.__getitem__, map(slice, bounds, bounds[1:]))
        # An empty slice is an edge without a route.
        return filter(operator.itemgetter(1), zip(
            zip(itertools.repeat(phase), itertools.count()), routes))

    def __getitem__(self, key):
        path = self._path(key)
        if path is None:
            raise KeyError(key)
        procs = self._procs
        return [procs[k] for k in path.tolist()]

    def __contains__(self, key) -> bool:
        return self._path(key) is not None

    def __iter__(self):
        return itertools.chain.from_iterable(
            zip(itertools.repeat(phase), np.flatnonzero(ptr[1:] > ptr[:-1]).tolist())
            for phase, (ptr, _) in self._ordered()
        )

    def __len__(self) -> int:
        return sum(np.count_nonzero(np.diff(ptr)) for ptr, _ in self._phases.values())

    def items(self):
        return _RouteItems(self)

    def _write(self, items) -> None:
        """Check every ``(key, route)``, then rebuild each phase touched once."""
        phases: dict[str, dict[int, list[int]]] = {}
        index = self._topo.proc_indices
        for key, route in items:
            hash(key)
            try:
                phase, idx = key
                i, n = operator.index(idx), len(self._tg.comm_phase(phase).edges)
            except (TypeError, ValueError, KeyError):
                i = n = 0
            if not 0 <= i < n:
                raise ValueError(f"route key {key!r} matches no edge")
            try:
                path = [index[p] for p in route]
            except (KeyError, TypeError):
                path = None
            if not path:
                raise ValueError(f"route for {(phase, i)!r} is not a network path")
            phases.setdefault(phase, {})[i] = path
        for phase, paths in phases.items():
            self._patch(phase, paths)

    def _patch(self, phase: str, paths: dict[int, list[int]]) -> None:
        """Rebuild *phase*'s arrays with edge ``i``'s path ``paths[i]`` (an
        empty one unroutes it) and every other edge's kept."""
        ptr, hops = self._arrays(phase)
        flat, bounds = hops.tolist(), ptr.tolist()
        edges = list(map(flat.__getitem__, map(slice, bounds, bounds[1:])))
        for i, path in paths.items():
            edges[i] = path
        self._phases[phase] = _frozen(*pack_paths(edges))
        self.stamp = next(_STAMPS)

    def __setitem__(self, key, route) -> None:
        self._write([(key, route)])

    def update(self, other=(), /, **kwargs) -> None:
        self._write(itertools.chain(dict(other).items(), kwargs.items()))

    def __ior__(self, other):
        self.update(other)
        return self

    def __delitem__(self, key) -> None:
        if key not in self:
            raise KeyError(key)
        self._patch(key[0], {operator.index(key[1]): []})

    def popitem(self):
        for key in reversed(list(self)):
            return key, self.pop(key)
        raise KeyError("popitem(): dictionary is empty")

    def clear(self) -> None:
        self._phases, self.stamp = {}, next(_STAMPS)

    def copy(self) -> "RouteTable":
        return RouteTable(self._tg, self._topo, self._phases)  # shares the arrays

    def __reduce__(self):  # pickles carry a plain dict, as StampedDict's do
        return dict, (dict(self.items()),)

    def __repr__(self) -> str:
        return f"RouteTable({dict(self.items())!r})"


class _RouteItems(ItemsView):
    def __iter__(self):
        table = self._mapping
        return itertools.chain.from_iterable(map(table._phase_items, table._ordered()))


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
        routes: AbcMapping[RouteKey, list[Proc]] | None = None,
        *,
        provenance: str = "manual",
    ):
        self.task_graph = task_graph
        self.topology = topology
        self.assignment: dict[Task, Proc] = assignment
        self.routes: RouteTable = routes
        self.provenance = provenance

    def __setattr__(self, name, value):
        # Whoever binds the tables binds a stamped copy of them: a route
        # table of this graph and machine shares its arrays, anything else
        # is packed once.
        if name == "routes":
            tg, topo = self.task_graph, self.topology
            if isinstance(value, RouteTable) and value._tg is tg and value._topo is topo:
                value = value.copy()
            else:
                value, routes = RouteTable(tg, topo), value
                value.update(routes or ())
        elif name == "assignment":
            value = StampedDict(value)
        elif name in ("task_graph", "topology") and "routes" in self.__dict__:
            # The route table and every table keyed on ``edits`` hang off
            # the graph and machine the routes were bound to.
            raise AttributeError(
                f"a Mapping's {name} is fixed once its routes are bound; "
                f"build a new Mapping for another {name}"
            )
        object.__setattr__(self, name, value)

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            if name != "routes":
                setattr(self, name, value)
        self.routes = state["routes"]  # onto the graph and machine set above

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
        validation and METRICS read them: the route table's own read-only
        ``(ptr, hops)``, with one offset per edge plus one, edge ``i``'s
        route ``hops[ptr[i]:ptr[i + 1]]`` and an empty range where it has
        none."""
        return self.routes._arrays(phase)

    def copy(self) -> "Mapping":
        """A copy safe to mutate independently.

        Fresh assignment and route tables, the latter sharing its arrays;
        the graph, topology and annotations are shared (immutable in practice).
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
