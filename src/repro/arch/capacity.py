"""Multi-resource processor capacities: the SpiNNTools-style machine model.

The paper's machines are homogeneous -- the only placement constraint is
the scalar load bound B (at most B tasks per processor).  Real targets
carry per-processor budgets in several currencies at once: memory bytes,
compute slots, SDRAM banks.  :class:`Capacities` widens the machine model
to a *vector* of named resources per processor:

* each **resource** has a name and a *demand rule* saying what one task
  consumes of it -- ``"unit"`` (every task consumes 1, the multi-resource
  generalisation of the load bound) or ``"weight"`` (a task consumes its
  computation weight, the natural rule for memory-like budgets);
* each **processor** has a capacity vector, one entry per resource, in
  the declared resource order.

A :class:`Capacities` instance attaches to a :class:`~repro.arch.Topology`
at construction (``Topology(..., capacities=...)``) and rides along
through ``degrade`` (restricted to the survivors), the content
fingerprint (a topology with capacities digests differently from the same
shape without -- while capacity-free topologies keep their pre-existing
digests bit-identical), and serialization.

The mapping layers consume capacities through a :class:`CapacityContext`
-- the (task graph, machine) binding that precomputes the ``(N, R)``
demand matrix and ``(P, R)`` capacity matrix once and answers the
placement-unknown questions ("could this cluster fit on **some**
processor?" -- :meth:`CapacityContext.cluster_fits`) and the validation
ones (:meth:`CapacityContext.overflows`).  Placement-known work keeps a
:class:`Headroom` ledger of consumed demand: label-space for the online
reactions (an arriving task, a spawned child, a task relocated off a dead
processor), index-space for the offline array kernels (refinement,
packing, rebalance).  A scalar load bound and capacity vectors are
enforced *together*.

Capacity is a property of the machine, never of a mode: a caller who wants
the scalar behaviour on a capacity machine maps onto
``with_capacities(machine, None)``.  Every (graph, machine) pair has a
context; a capacity-free machine is the R = 0 case, where every question
answers "fits" without a numpy call.  This module is the only place that
case is told apart, and R = 0 reproduces the paper's scalar paths exactly
-- which is what keeps the homogeneous golden fixtures bit-identical.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import Any

import numpy as np

from repro.util.fingerprint import decode_label, encode_label

__all__ = ["Capacities", "CapacityContext", "Headroom", "DEMAND_RULES"]

#: The recognised per-task demand rules.
DEMAND_RULES = ("unit", "weight")

#: Feasibility tolerance: demand may exceed capacity by at most this much
#: before a processor counts as overflowed (guards float summation noise).
_TOL = 1e-9


def _exists_fit(cap: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Per row of *need* ``(K, R)``: does any row of *cap* ``(P, R)`` hold it?"""
    return (cap[None, :, :] + _TOL >= need[:, None, :]).all(axis=2).any(axis=1)


class Capacities:
    """Named multi-resource capacity vectors, one per processor.

    Parameters
    ----------
    resources:
        Resource declarations, in order: each item is either a bare name
        (demand rule defaults to ``"unit"``) or a ``(name, rule)`` pair
        with rule in :data:`DEMAND_RULES`.
    caps:
        Mapping of processor label to its capacity vector (a sequence
        with one non-negative number per declared resource; a bare number
        is accepted for single-resource models).
    """

    def __init__(
        self,
        resources: Iterable[Any],
        caps: Mapping[Hashable, Any],
    ):
        names: list[str] = []
        rules: list[str] = []
        for item in resources:
            if isinstance(item, str):
                name, rule = item, "unit"
            else:
                name, rule = item
            if not isinstance(name, str) or not name:
                raise ValueError(f"resource name must be a non-empty string, got {name!r}")
            if rule not in DEMAND_RULES:
                raise ValueError(
                    f"resource {name!r} has unknown demand rule {rule!r}; "
                    f"choose from {DEMAND_RULES!r}"
                )
            if name in names:
                raise ValueError(f"duplicate resource name {name!r}")
            names.append(name)
            rules.append(rule)
        if not names:
            raise ValueError("capacities need at least one resource")
        self._names: tuple[str, ...] = tuple(names)
        self._rules: tuple[str, ...] = tuple(rules)

        per_proc: dict[Hashable, tuple[float, ...]] = {}
        for proc, vec in caps.items():
            if isinstance(vec, (int, float)) and not isinstance(vec, bool):
                vec = (vec,)
            vec = tuple(float(x) for x in vec)
            if len(vec) != len(self._names):
                raise ValueError(
                    f"processor {proc!r} has {len(vec)} capacity entries for "
                    f"{len(self._names)} declared resources {self._names!r}"
                )
            if any(x < 0 or not np.isfinite(x) for x in vec):
                raise ValueError(
                    f"processor {proc!r} capacity {vec!r} must be finite and "
                    "non-negative"
                )
            per_proc[proc] = vec
        if not per_proc:
            raise ValueError("capacities need at least one processor")
        self._caps = per_proc

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        """Resource names, in declared order."""
        return self._names

    @property
    def rules(self) -> tuple[str, ...]:
        """Per-resource demand rules, parallel to :attr:`names`."""
        return self._rules

    @property
    def n_resources(self) -> int:
        """Number of declared resources."""
        return len(self._names)

    @property
    def procs(self) -> list[Hashable]:
        """Processors with declared capacities, in declaration order."""
        return list(self._caps)

    def cap_for(self, proc) -> tuple[float, ...]:
        """The capacity vector of one processor."""
        return self._caps[proc]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Capacities):
            return NotImplemented
        return (
            self._names == other._names
            and self._rules == other._rules
            and self._caps == other._caps
        )

    def __repr__(self) -> str:
        return (
            f"<Capacities {len(self._caps)} procs x "
            f"{list(zip(self._names, self._rules))}>"
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, resources, procs, vector) -> "Capacities":
        """Identical capacity *vector* on every processor in *procs*."""
        if isinstance(vector, (int, float)) and not isinstance(vector, bool):
            vector = (vector,)
        vector = tuple(float(x) for x in vector)
        return cls(resources, {p: vector for p in procs})

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], procs) -> "Capacities":
        """Build from the machine-file shorthand (see ``docs/machines.md``).

        *spec* maps resource name to either a bare number (uniform cap,
        demand rule ``"unit"``) or an object::

            {"demand": "weight", "cap": 16.0,
             "per_proc": [[<label>, <cap>], ...]}   # optional overrides

        ``per_proc`` labels use the JSON label encoding (tuples as lists).
        """
        if not isinstance(spec, Mapping) or not spec:
            raise ValueError("capacity spec must be a non-empty object")
        procs = list(procs)
        resources: list[tuple[str, str]] = []
        columns: list[dict[Hashable, float]] = []
        for name, raw in spec.items():
            if isinstance(raw, (int, float)) and not isinstance(raw, bool):
                raw = {"cap": raw}
            if not isinstance(raw, Mapping):
                raise ValueError(
                    f"resource {name!r} spec must be a number or an object, "
                    f"got {raw!r}"
                )
            unknown = set(raw) - {"demand", "cap", "per_proc"}
            if unknown:
                raise ValueError(
                    f"resource {name!r} spec has unknown keys {sorted(unknown)!r}"
                )
            rule = raw.get("demand", "unit")
            if "cap" not in raw:
                raise ValueError(f"resource {name!r} spec needs a 'cap'")
            cap = float(raw["cap"])
            column = {p: cap for p in procs}
            for entry in raw.get("per_proc") or []:
                label, value = entry
                label = decode_label(label)
                if label not in column:
                    raise ValueError(
                        f"resource {name!r} per_proc override names unknown "
                        f"processor {label!r}"
                    )
                column[label] = float(value)
            resources.append((name, rule))
            columns.append(column)
        caps = {
            p: tuple(col[p] for col in columns) for p in procs
        }
        return cls(resources, caps)

    # ------------------------------------------------------------------
    # machine plumbing
    # ------------------------------------------------------------------
    def validate_against(self, procs: Iterable[Hashable]) -> None:
        """Check the capacity table covers exactly the given processors."""
        procs = list(procs)
        missing = [p for p in procs if p not in self._caps]
        if missing:
            raise ValueError(
                f"capacities missing for processors {missing[:8]!r}"
            )
        extra = set(self._caps) - set(procs)
        if extra:
            raise ValueError(
                f"capacities declared for unknown processors "
                f"{sorted(extra, key=repr)[:8]!r}"
            )

    def restrict(self, survivors: Iterable[Hashable]) -> "Capacities":
        """The capacities of the surviving processors (for ``degrade``)."""
        survivors = list(survivors)
        return Capacities(
            zip(self._names, self._rules),
            {p: self._caps[p] for p in survivors},
        )

    def cap_array(self, topology) -> np.ndarray:
        """The ``(P, R)`` capacity matrix in *topology*'s stable index order."""
        self.validate_against(topology.processors)
        return np.array(
            [self._caps[p] for p in topology.processors], dtype=np.float64
        )

    def demand_matrix(self, tg) -> np.ndarray:
        """The ``(N, R)`` per-task demand matrix in ``tg.csr()`` row order."""
        weights = np.asarray(tg.csr().node_weights, dtype=np.float64)
        return np.stack([
            np.ones_like(weights) if rule == "unit" else weights
            for rule in self._rules
        ], axis=1)

    def context(self, tg, topology) -> "CapacityContext":
        """Bind these capacities to one (task graph, machine) pair."""
        return CapacityContext(self, tg, topology)

    # ------------------------------------------------------------------
    # serialization / fingerprint
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible form (inverse of :meth:`from_dict`)."""
        return {
            "resources": [list(pair) for pair in zip(self._names, self._rules)],
            "caps": [
                [encode_label(p), list(vec)] for p, vec in self._caps.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Capacities":
        """Rebuild from :meth:`to_dict` output."""
        resources = [tuple(pair) for pair in data["resources"]]
        caps = {
            decode_label(label): tuple(vec) for label, vec in data["caps"]
        }
        return cls(resources, caps)

    def fingerprint_payload(self) -> dict:
        """Canonical payload for :meth:`Topology.fingerprint`.

        Processor order follows the caller's stable numbering, so the
        payload is built from the declaration order here and sorted by
        encoded label -- hash-seed independent either way.
        """
        return {
            "resources": [list(pair) for pair in zip(self._names, self._rules)],
            "caps": sorted(
                ([encode_label(p), list(vec)] for p, vec in self._caps.items()),
                key=lambda item: str(item[0]),
            ),
        }


class CapacityContext:
    """Demand/capacity arrays bound to one (task graph, machine) pair.

    Build it with :meth:`of`, for any machine: on a capacity-free one
    R = 0, ``cap`` is ``(P, 0)`` and ``dem`` ``(N, 0)``.
    ``CapacityContext(None, tg)`` is the R = 0 context on no machine in
    particular, for the kernels given only a processor count.

    Attributes
    ----------
    capacities:
        The machine's :class:`Capacities` (``None`` when R = 0).
    cap:
        ``(P, R)`` capacity matrix in the topology's stable index order.
    dem:
        ``(N, R)`` per-task demand matrix in ``tg.csr()`` row order.
    """

    __slots__ = ("capacities", "topology", "cap", "dem", "_r", "_index")

    def __init__(self, capacities: Capacities | None, tg, topology=None):
        self.capacities = capacities
        self.topology = topology
        if capacities is None:
            self._r = 0
            self.cap = np.zeros((topology.n_processors if topology else 0, 0))
            self.dem = np.zeros((tg.n_tasks, 0))
        else:
            self._r = capacities.n_resources
            self.cap = capacities.cap_array(topology)
            self.dem = capacities.demand_matrix(tg)
            self._index = tg.csr().index

    @classmethod
    def of(cls, tg, topology) -> "CapacityContext":
        """The context of *tg* on *topology*, capacity-free or not."""
        capacities = topology.capacities
        return (capacities.context(tg, topology) if capacities is not None
                else cls(None, tg, topology))

    def demand_of(self, task) -> np.ndarray:
        """The demand vector of one task."""
        return self.dem[self._index[task]] if self._r else np.zeros(0)

    def cluster_demand(self, tasks: Iterable) -> np.ndarray:
        """The summed demand vector of a set of tasks."""
        rows = [self._index[t] for t in tasks] if self._r else []
        if not rows:
            return np.zeros(self._r)
        return self.dem[rows].sum(axis=0)

    def fits_somewhere(self, vec) -> bool:
        """True when *vec* fits on at least one processor (exists-fit)."""
        return bool(_exists_fit(self.cap, np.asarray(vec)[None])[0])

    def cluster_fits(self, *clusters) -> bool:
        """True when the union of *clusters* fits on at least one processor
        -- contraction's test: no embedding places a cluster nothing holds."""
        if not self._r:
            return True
        return self.fits_somewhere(
            self.cluster_demand(t for c in clusters for t in c)
        )

    def unplaceable(self) -> list[int]:
        """Task indices whose own demand fits on no processor."""
        if not self._r:
            return []
        return np.flatnonzero(~_exists_fit(self.cap, self.dem)).tolist()

    def feasible_mask(self, vec) -> np.ndarray:
        """Boolean ``(P,)`` mask of processors where *vec* fits."""
        return np.all(self.cap + _TOL >= vec, axis=1)

    def cluster_masks(self, clusters) -> np.ndarray:
        """Boolean ``(C, P)``: ``[c, p]`` says cluster *c*'s demand fits *p*."""
        if not self._r:
            return np.ones((len(clusters), len(self.cap)), dtype=bool)
        return np.stack([
            self.feasible_mask(self.cluster_demand(cluster))
            for cluster in clusters
        ])

    def proc_load(self, assignment: Mapping) -> np.ndarray:
        """``(P, R)`` consumed-demand matrix of a task -> processor map."""
        load = np.zeros_like(self.cap)
        if self._r and assignment:
            rows = [self._index[t] for t in assignment]
            procs = [self.topology.index_of(p) for p in assignment.values()]
            np.add.at(load, procs, self.dem[rows])
        return load

    def overflows(self, assignment: Mapping) -> list[dict]:
        """Structured overflow report of a task -> processor map.

        Returns one entry per (processor, resource) pair whose consumed
        demand exceeds capacity, ordered by stable processor index then
        resource order::

            {"processor": <label>, "resource": <name>,
             "demand": <float>, "capacity": <float>}
        """
        if not self._r:
            return []
        load = self.proc_load(assignment)
        return [{
            "processor": self.topology.proc_by_index(int(pi)),
            "resource": self.capacities.names[int(ri)],
            "demand": float(load[pi, ri]),
            "capacity": float(self.cap[pi, ri]),
        } for pi, ri in zip(*np.nonzero(load > self.cap + _TOL))]


class Headroom:
    """What each processor of a machine still has room for.

    One ``(P, R)`` consumed-demand ledger with two faces; at R = 0 every
    question answers "fits" and no update does arithmetic.  The label
    face (this constructor; :meth:`add`, :meth:`fits`, :meth:`candidates`)
    serves the online reactions -- arrival, spawn, repair -- one task of a
    given weight at a time, with per-processor task counts for the paper's
    scalar load *bound*, enforced on top of the vectors.  The index face
    (:meth:`of_nodes`) serves the offline array kernels.

    Parameters
    ----------
    topology:
        The machine; its ``capacities`` (if any) are the vectors enforced.
    bound:
        Optional scalar load bound, enforced on top of the vectors.
    placed:
        ``(processor, task weight)`` pairs already on the machine, added
        in iteration order.
    """

    def __init__(self, topology, bound: int | None = None, placed=()):
        self.topology = topology
        self.bound = bound
        #: Tasks per processor, in the machine's stable processor order.
        self.count: dict[Hashable, int] = {p: 0 for p in topology.processors}
        capacities = topology.capacities
        self._rules = () if capacities is None else capacities.rules
        self._r = len(self._rules)
        if self._r:
            self._cap = capacities.cap_array(topology)
            self._used = np.zeros_like(self._cap)
        for proc, weight in placed:
            self.add(proc, weight)

    @classmethod
    def of_nodes(cls, cap: np.ndarray, dem: np.ndarray, where=()) -> "Headroom":
        """Index-space ledger: node ``v`` demands ``dem[v]`` (an ``(n, R)``
        matrix) and starts in row ``where[v]`` of *cap* ``(P, R)``; with
        no *where*, nothing is placed yet (:meth:`put`)."""
        room = cls.__new__(cls)
        room._cap, room._dem, room._r = cap, dem, dem.shape[1]
        room._used = np.zeros_like(cap)
        if room._r and len(where):
            np.add.at(room._used, where, dem)
        return room

    def _demand(self, weight: float) -> np.ndarray:
        """What one task of *weight* consumes of each declared resource."""
        return np.array(
            [1.0 if rule == "unit" else float(weight) for rule in self._rules]
        )

    def add(self, proc, weight: float) -> None:
        """Record one task of *weight* on *proc*."""
        self.count[proc] += 1
        if self._r:
            self._used[self.topology.index_of(proc)] += self._demand(weight)

    def fits(self, proc, weight: float) -> bool:
        """True when *proc* has headroom for one more task of *weight*."""
        if self.bound is not None and self.count[proc] >= self.bound:
            return False
        if not self._r:
            return True
        k = self.topology.index_of(proc)
        return bool(
            (self._used[k] + self._demand(weight) <= self._cap[k] + _TOL).all()
        )

    def candidates(self, weight: float) -> list:
        """Processors with headroom for a task of *weight*, in stable order."""
        return [p for p in self.count if self.fits(p, weight)]

    # Index space: rows are processor indices, or cluster ids while packing
    # (exists_fit, fits_anywhere), and masks span the rows.
    def fits_move(self, v: int, q: int) -> bool:
        """Processor row *q* holds node *v* on top of what it has."""
        if not self._r:
            return True
        return bool((self._used[q] + self._dem[v] <= self._cap[q] + _TOL).all())

    def fits_swap(self, v: int, u: int, p: int, q: int) -> bool:
        """Node *v* (on row *p*) and node *u* (on row *q*) may trade rows."""
        if not self._r:
            return True
        used, dem, cap = self._used, self._dem, self._cap
        return bool(
            (used[p] - dem[v] + dem[u] <= cap[p] + _TOL).all()
            and (used[q] - dem[u] + dem[v] <= cap[q] + _TOL).all()
        )

    def holding(self, mask: np.ndarray, v: int) -> np.ndarray:
        """*mask* less the processor rows that cannot take node *v*."""
        if not self._r:
            return mask
        return mask & (self._used + self._dem[v] <= self._cap + _TOL).all(axis=1)

    def over(self, p: int) -> bool:
        """Processor row *p* holds more than its capacity somewhere."""
        return bool(self._r) and bool((self._used[p] > self._cap[p] + _TOL).any())

    def over_rows(self, mask: np.ndarray) -> np.ndarray:
        """*mask* plus every processor row that is :meth:`over`."""
        if not self._r:
            return mask
        return mask | (self._used > self._cap + _TOL).any(axis=1)

    def pairs_fit(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per ``k``: nodes ``a[k]`` and ``b[k]`` together fit some processor."""
        if not self._r:
            return np.ones(len(a), dtype=bool)
        return _exists_fit(self._cap, self._dem[a] + self._dem[b])

    def exists_fit(self, mask: np.ndarray, v: int) -> np.ndarray:
        """*mask* less the cluster rows that node *v* would make fit nowhere."""
        if not self._r:
            return mask
        return mask & _exists_fit(self._cap, self._used[:mask.size] + self._dem[v])

    def fits_anywhere(self, g: int) -> bool:
        """Cluster row *g* fits on some processor."""
        return not self._r or bool(_exists_fit(self._cap, self._used[g:g + 1])[0])

    def put(self, v: int, q: int) -> None:
        """Node *v*, not yet placed, joins row *q*."""
        if self._r:
            self._used[q] += self._dem[v]

    def move(self, v: int, p: int, q: int) -> None:
        """Node *v* leaves row *p* for row *q*."""
        if self._r:
            self._used[p] -= self._dem[v]
            self._used[q] += self._dem[v]

    def swap(self, v: int, u: int, p: int, q: int) -> None:
        """Nodes *v* (on row *p*) and *u* (on row *q*) trade rows."""
        if self._r:
            self._used[p] += self._dem[u] - self._dem[v]
            self._used[q] += self._dem[v] - self._dem[u]
