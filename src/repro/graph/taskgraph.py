"""The colored, weighted task-graph model ``G = (V, E_1, .., E_c)``.

Nodes are task labels: plain ints for one-dimensional labelings (the n-body
ring) or tuples of ints for multi-dimensional ones (a Jacobi grid).  Each
:class:`CommPhase` is one edge set / color; each :class:`ExecPhase` carries
per-task execution cost estimates.  The optional phase expression records the
computation's dynamic behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable, Mapping
from types import MappingProxyType

from repro.graph.phase_expr import PhaseExpr
from repro.util.fingerprint import LabelTable, encode_label, sort_encoded, stable_digest

__all__ = ["CommEdge", "CommPhase", "ExecPhase", "TaskGraph"]

Node = Hashable


@dataclass(frozen=True, slots=True)
class CommEdge:
    """One directed message: *src* sends *volume* units to *dst* in a phase.

    Slotted, and pickled as a constructor call.  Pickles written before the
    slots (cache entries, checkpoints) carry the instance dict, which
    :func:`_edge_setstate` reads by field name.
    """

    src: Node
    dst: Node
    volume: float = 1.0

    def __reduce__(self):
        return CommEdge, (self.src, self.dst, self.volume)

    def reversed(self) -> "CommEdge":
        """The same message flowing the other way."""
        return CommEdge(self.dst, self.src, self.volume)


def _edge_setstate(self: CommEdge, state: dict) -> None:
    """Read a pre-slots pickle's instance dict by name, not by position."""
    for name in ("src", "dst", "volume"):
        object.__setattr__(self, name, state[name])


# Set after the decorator: ``slots=True`` on CPython 3.10 to 3.11.3 installs
# its own positional ``__setstate__`` over one written in the class body.
CommEdge.__setstate__ = _edge_setstate


@dataclass
class CommPhase:
    """A communication phase: one synchronous, colored edge set ``E_k``."""

    name: str
    edges: list[CommEdge] = field(default_factory=list)

    def add(self, src: Node, dst: Node, volume: float = 1.0) -> None:
        """Append a directed message edge to this phase."""
        self.edges.append(CommEdge(src, dst, volume))

    @property
    def total_volume(self) -> float:
        """Sum of message volumes in this phase."""
        return sum(e.volume for e in self.edges)

    def pairs(self) -> list[tuple[Node, Node]]:
        """The (src, dst) pairs without volumes."""
        return [(e.src, e.dst) for e in self.edges]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass
class ExecPhase:
    """An execution phase: code bracketed by two communication phases.

    *cost* is the default per-task execution cost estimate; *costs* holds
    per-task overrides (the paper allows costs estimated by the user, the
    compiler, or runtime monitoring).
    """

    name: str
    cost: float = 1.0
    costs: dict[Node, float] = field(default_factory=dict)

    def cost_of(self, node: Node) -> float:
        """Execution cost of one task in this phase."""
        return self.costs.get(node, self.cost)


class TaskGraph:
    """A parallel computation: tasks, phased communication, phase expression.

    Parameters
    ----------
    name:
        Algorithm name (e.g. ``"nbody"``).
    family:
        Optional ``(family_name, params)`` tag set by the graph-family
        generators; MAPPER's dispatcher uses it for the canned-mapping
        lookup of nameable task graphs.
    """

    def __init__(
        self,
        name: str = "taskgraph",
        *,
        family: tuple[str, tuple] | None = None,
        node_symmetric_hint: bool = False,
    ):
        self.name = name
        self.family = family
        self.node_symmetric_hint = node_symmetric_hint
        self._nodes: dict[Node, float] = {}  # node -> weight
        self._comm_phases: dict[str, CommPhase] = {}
        self._exec_phases: dict[str, ExecPhase] = {}
        self.phase_expr: PhaseExpr | None = None
        # Mutation counter: bumped by every structural mutator so derived
        # structures (CSR view, phase-name sets) can cache behind it.
        self._version = 0
        self._csr_cache: tuple[tuple[int, int], object] | None = None
        self._index_cache: tuple[int, dict[Node, int]] | None = None
        self._name_cache: tuple[int, frozenset[str], frozenset[str]] | None = None
        self._fingerprint_cache: tuple[tuple, str] | None = None

    def __getstate__(self) -> dict:
        # Pickles (cache entries, checkpoints, worker result pipes) carry
        # content; the derived views are rebuilt on first use.
        return {**self.__dict__, "_csr_cache": None, "_index_cache": None,
                "_name_cache": None}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, weight: float = 1.0) -> None:
        """Add a task with an execution-time weight (idempotent on the node)."""
        self._nodes[node] = weight
        self._version += 1

    def add_nodes(self, nodes: Iterable[Node], weight: float = 1.0) -> None:
        """Add several tasks with a common weight."""
        for n in nodes:
            self.add_node(n, weight)

    def add_comm_phase(self, name: str) -> CommPhase:
        """Declare a new (empty) communication phase and return it."""
        if name in self._comm_phases or name in self._exec_phases:
            raise ValueError(f"phase name {name!r} already declared")
        phase = CommPhase(name)
        self._comm_phases[name] = phase
        self._version += 1
        return phase

    def add_edge(self, phase: str, src: Node, dst: Node, volume: float = 1.0) -> None:
        """Add one message edge to an existing phase; endpoints must be tasks."""
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"edge ({src!r}, {dst!r}) references undeclared task")
        self._comm_phases[phase].add(src, dst, volume)
        self._version += 1

    def add_exec_phase(
        self,
        name: str,
        cost: float = 1.0,
        costs: Mapping[Node, float] | None = None,
    ) -> ExecPhase:
        """Declare an execution phase with default and per-task costs."""
        if name in self._comm_phases or name in self._exec_phases:
            raise ValueError(f"phase name {name!r} already declared")
        phase = ExecPhase(name, cost, dict(costs or {}))
        self._exec_phases[name] = phase
        self._version += 1
        return phase

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Node]:
        """All task labels, in insertion order."""
        return list(self._nodes)

    @property
    def n_tasks(self) -> int:
        """Number of tasks ``|V|``."""
        return len(self._nodes)

    def node_weight(self, node: Node) -> float:
        """The execution-time weight of a task."""
        return self._nodes[node]

    @property
    def comm_phases(self) -> Mapping[str, CommPhase]:
        """Read-only live view of communication phases (insertion order).

        The view is backed by the internal dict, so repeated accesses in hot
        loops (the simulator reads this once per step) cost nothing; declare
        phases through :meth:`add_comm_phase`, not by writing into the view.
        """
        return MappingProxyType(self._comm_phases)

    @property
    def exec_phases(self) -> Mapping[str, ExecPhase]:
        """Read-only live view of execution phases (insertion order)."""
        return MappingProxyType(self._exec_phases)

    def _phase_name_sets(self) -> tuple[frozenset[str], frozenset[str]]:
        """Cached ``(comm names, exec names)`` frozensets.

        Phase declarations only happen through ``add_*_phase`` (which bump
        the mutation counter), so the counter alone keys this cache.
        """
        cached = self._name_cache
        if cached is None or cached[0] != self._version:
            comm = frozenset(self._comm_phases)
            exc = frozenset(self._exec_phases)
            self._name_cache = (self._version, comm, exc)
            return comm, exc
        return cached[1], cached[2]

    @property
    def comm_phase_names(self) -> frozenset[str]:
        """Cached frozenset of communication-phase names."""
        return self._phase_name_sets()[0]

    @property
    def exec_phase_names(self) -> frozenset[str]:
        """Cached frozenset of execution-phase names."""
        return self._phase_name_sets()[1]

    def comm_phase(self, name: str) -> CommPhase:
        """Look up one communication phase by name."""
        return self._comm_phases[name]

    def exec_phase(self, name: str) -> ExecPhase:
        """Look up one execution phase by name."""
        return self._exec_phases[name]

    @property
    def phase_names(self) -> list[str]:
        """All declared phase names, communication phases first."""
        return list(self._comm_phases) + list(self._exec_phases)

    def all_edges(self) -> list[tuple[str, CommEdge]]:
        """Every message edge across all phases, tagged with its phase name."""
        return [
            (name, e) for name, ph in self._comm_phases.items() for e in ph.edges
        ]

    @property
    def n_edges(self) -> int:
        """Total directed message edges across all phases."""
        return sum(len(ph) for ph in self._comm_phases.values())

    def total_volume(self) -> float:
        """Total message volume across all phases."""
        return sum(ph.total_volume for ph in self._comm_phases.values())

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def static_graph(self):
        """Undirected aggregate ``networkx.Graph``: weight = volume both ways.

        The *static task graph* (Stone / Bokhari style): phase colors are
        forgotten and volumes of parallel and antiparallel messages
        accumulate on a single undirected edge.  A conversion for callers
        that want graph algorithms, built afresh on every call; the
        mappers read the same aggregate from :meth:`csr`.
        """
        import networkx as nx

        g = nx.Graph()
        for node, w in self._nodes.items():
            g.add_node(node, weight=w)
        for ph in self._comm_phases.values():
            for e in ph.edges:
                if e.src == e.dst:
                    continue
                if g.has_edge(e.src, e.dst):
                    g[e.src][e.dst]["weight"] += e.volume
                else:
                    g.add_edge(e.src, e.dst, weight=e.volume)
        return g

    def task_index(self) -> dict[Node, int]:
        """Task label -> dense index, in declaration order (cached).

        The stable task<->index bijection shared by every array kernel --
        the task-side twin of the Topology vector core's
        :meth:`~repro.arch.topology.Topology.proc_indices`.
        """
        cached = self._index_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        index = {t: i for i, t in enumerate(self._nodes)}
        self._index_cache = (self._version, index)
        return index

    def csr(self):
        """Array-native static view: the cached :class:`~repro.graph.csr.CSRGraph`.

        The undirected aggregate weights (parallel and antiparallel
        volumes accumulated in declaration order) plus the raw directed
        edge stream, as numpy arrays over :meth:`task_index`.  Cached
        behind the mutation counter plus the total edge count (which also
        catches edges appended directly to a :class:`CommPhase` by the
        family generators); the bundle's arrays are read-only.
        """
        from repro.graph.csr import build_csr

        key = (self._version, self.n_edges)
        if self._csr_cache is not None and self._csr_cache[0] == key:
            return self._csr_cache[1]
        bundle = build_csr(self)
        self._csr_cache = (key, bundle)
        return bundle

    def phase_digraph(self, phase: str):
        """A single communication phase as a fresh ``networkx.DiGraph``."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._nodes)
        for e in self._comm_phases[phase].edges:
            g.add_edge(e.src, e.dst, volume=e.volume)
        return g

    # ------------------------------------------------------------------
    # regular-structure hooks
    # ------------------------------------------------------------------
    def comm_function(self, phase: str) -> dict[Node, Node] | None:
        """The phase's edges as a function ``src -> dst``, if it is one.

        Returns ``None`` when some task sends to more than one destination
        in the phase (then the phase is a relation, not a function).  The
        group-theoretic contraction additionally requires the function to be
        a bijection on the node set.
        """
        mapping: dict[Node, Node] = {}
        for e in self._comm_phases[phase].edges:
            if e.src in mapping and mapping[e.src] != e.dst:
                return None
            mapping[e.src] = e.dst
        return mapping

    def integer_nodes(self) -> list[int] | None:
        """The node labels as ints ``0..n-1``, or ``None`` if not so labeled."""
        if all(isinstance(n, int) for n in self._nodes):
            labels = sorted(self._nodes)
            if labels == list(range(len(labels))):
                return labels
        return None

    # ------------------------------------------------------------------
    # content fingerprint
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A stable content digest of the graph (hash-seed independent).

        Two processes building the same graph the same way -- any
        ``PYTHONHASHSEED``, any platform -- get the same hex string, and any
        semantic mutation (a node weight, an edge, a volume, a phase, the
        phase expression, the family tag) changes it.  Node and edge
        *declaration order* is part of the content: the mapping heuristics
        iterate tasks in insertion order, so graphs that differ only in
        declaration order may legitimately map differently and must not
        share cache entries.  Orders that are construction artefacts with
        no behavioural effect (per-task exec-cost dicts) are canonicalised.

        The digest keys the pipeline's content-addressed artifact cache
        (:mod:`repro.pipeline.cache`); it is cached behind the mutation
        counter like :meth:`csr`; the phase expression, the name, the
        family tag and the symmetry hint (plain attributes, assigned
        directly -- ``stdlib.load`` sets ``family`` after construction)
        are part of the cache key so re-assigning them is picked up too.
        """
        expr = str(self.phase_expr) if self.phase_expr is not None else None
        key = (self._version, self.n_edges, expr,
               self.name, self.family, self.node_symmetric_hint)
        if self._fingerprint_cache is not None and self._fingerprint_cache[0] == key:
            return self._fingerprint_cache[1]
        enc = LabelTable()
        payload = {
            "kind": "taskgraph",
            "name": self.name,
            "family": [self.family[0], [encode_label(p) for p in self.family[1]]]
            if self.family
            else None,
            "node_symmetric_hint": self.node_symmetric_hint,
            "nodes": [[enc[n], w] for n, w in self._nodes.items()],
            "comm_phases": [
                [name, [[enc[e.src], enc[e.dst], e.volume] for e in ph.edges]]
                for name, ph in self._comm_phases.items()
            ],
            "exec_phases": [
                [
                    name,
                    ph.cost,
                    sort_encoded([enc[t], c] for t, c in ph.costs.items()),
                ]
                for name, ph in self._exec_phases.items()
            ],
            "phase_expr": expr,
        }
        digest = stable_digest(payload)
        self._fingerprint_cache = (key, digest)
        return digest

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ValueError` on structurally inconsistent graphs."""
        for name, ph in self._comm_phases.items():
            for e in ph.edges:
                if e.src not in self._nodes or e.dst not in self._nodes:
                    raise ValueError(
                        f"phase {name!r} references undeclared task in {e}"
                    )
                if e.volume < 0:
                    raise ValueError(f"negative volume in phase {name!r}: {e}")
        if self.phase_expr is not None:
            declared = set(self.phase_names)
            for ref in self.phase_expr.phase_names():
                if ref not in declared:
                    raise ValueError(
                        f"phase expression references undeclared phase {ref!r}"
                    )

    def __repr__(self) -> str:
        return (
            f"<TaskGraph {self.name!r}: {self.n_tasks} tasks, "
            f"{len(self._comm_phases)} comm phases, {self.n_edges} edges>"
        )
