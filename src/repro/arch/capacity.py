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

The offline mapping layers consume capacities through a
:class:`CapacityContext` -- the (task graph, machine) binding that
precomputes the ``(N, R)`` demand matrix and ``(P, R)`` capacity matrix
once and answers the two feasibility questions the algorithms ask:

* *placement-unknown* (contraction): "could this cluster fit on **some**
  processor?" -- :meth:`CapacityContext.fits_somewhere`;
* *placement-known* (embedding, refinement, validation): "where does this
  demand fit, given what is there?" -- :meth:`CapacityContext.feasible_mask`
  and :meth:`CapacityContext.overflows`.

The online reactions -- an arriving task, a spawned child, a task
relocated off a dead processor -- place one task at a time against what is
already there, and share one :class:`Headroom` ledger for it: task counts
on every machine, the consumed-demand matrix only where the machine
declares capacities, the paper's scalar load bound as an optional extra
row.  A bound and capacity vectors are enforced *together*.

Capacity is a property of the machine, never of a mode: a caller who wants
the scalar behaviour on a capacity machine maps onto
``with_capacities(machine, None)``.  The pipeline builds a
:class:`CapacityContext` only when ``topology.capacities`` is set, so a
capacity-free machine takes the paper's scalar paths -- which is what keeps
the homogeneous golden fixtures bit-identical.
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
        csr = tg.csr()
        cols = []
        for rule in self._rules:
            if rule == "unit":
                cols.append(np.ones(csr.n, dtype=np.float64))
            else:
                cols.append(np.asarray(csr.node_weights, dtype=np.float64))
        return np.stack(cols, axis=1) if cols else np.zeros((csr.n, 0))

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

    Attributes
    ----------
    cap:
        ``(P, R)`` capacity matrix in the topology's stable index order.
    dem:
        ``(N, R)`` per-task demand matrix in ``tg.csr()`` row order.
    """

    __slots__ = ("capacities", "topology", "cap", "dem", "_index")

    def __init__(self, capacities: Capacities, tg, topology):
        self.capacities = capacities
        self.topology = topology
        self.cap = capacities.cap_array(topology)
        self.dem = capacities.demand_matrix(tg)
        self._index = tg.csr().index

    def demand_of(self, task) -> np.ndarray:
        """The demand vector of one task."""
        return self.dem[self._index[task]]

    def cluster_demand(self, tasks: Iterable) -> np.ndarray:
        """The summed demand vector of a set of tasks."""
        rows = [self._index[t] for t in tasks]
        if not rows:
            return np.zeros(self.dem.shape[1])
        return self.dem[rows].sum(axis=0)

    def fits_somewhere(self, vec) -> bool:
        """True when *vec* fits on at least one processor (exists-fit).

        The placement-unknown test contraction uses: a cluster no single
        processor could hold can never be embedded, whatever NN-Embed does.
        """
        return bool(np.any(np.all(self.cap + _TOL >= vec, axis=1)))

    def feasible_mask(self, vec) -> np.ndarray:
        """Boolean ``(P,)`` mask of processors where *vec* fits."""
        return np.all(self.cap + _TOL >= vec, axis=1)

    def proc_load(self, assignment: Mapping) -> np.ndarray:
        """``(P, R)`` consumed-demand matrix of a task -> processor map."""
        index_of = self.topology.index_of
        load = np.zeros_like(self.cap)
        rows = []
        procs = []
        for task, proc in assignment.items():
            rows.append(self._index[task])
            procs.append(index_of(proc))
        if rows:
            np.add.at(load, np.asarray(procs), self.dem[np.asarray(rows)])
        return load

    def overflows(self, assignment: Mapping) -> list[dict]:
        """Structured overflow report of a task -> processor map.

        Returns one entry per (processor, resource) pair whose consumed
        demand exceeds capacity, ordered by stable processor index then
        resource order::

            {"processor": <label>, "resource": <name>,
             "demand": <float>, "capacity": <float>}
        """
        load = self.proc_load(assignment)
        over = load > self.cap + _TOL
        report = []
        for pi, ri in zip(*np.nonzero(over)):
            report.append({
                "processor": self.topology.proc_by_index(int(pi)),
                "resource": self.capacities.names[int(ri)],
                "demand": float(load[pi, ri]),
                "capacity": float(self.cap[pi, ri]),
            })
        return report


class Headroom:
    """What each processor of a machine still has room for, one task at a time.

    The ledger of the placement-known online reactions (arrival, spawn,
    repair): per-processor task counts always, the ``(P, R)``
    consumed-demand matrix only when *topology* declares capacities, and
    the paper's scalar load *bound* (at most that many tasks per
    processor) as an optional degenerate row.  A processor has headroom
    for a task when every one of those admits it.

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
        self._rules = self._cap = self._used = None
        if capacities is not None:
            self._rules = capacities.rules
            self._cap = capacities.cap_array(topology)
            self._used = np.zeros_like(self._cap)
        for proc, weight in placed:
            self.add(proc, weight)

    def _demand(self, weight: float) -> np.ndarray:
        """What one task of *weight* consumes of each declared resource."""
        return np.array(
            [1.0 if rule == "unit" else float(weight) for rule in self._rules]
        )

    def add(self, proc, weight: float) -> None:
        """Record one task of *weight* on *proc*."""
        self.count[proc] += 1
        if self._used is not None:
            self._used[self.topology.index_of(proc)] += self._demand(weight)

    def fits(self, proc, weight: float) -> bool:
        """True when *proc* has headroom for one more task of *weight*."""
        if self.bound is not None and self.count[proc] >= self.bound:
            return False
        if self._used is None:
            return True
        k = self.topology.index_of(proc)
        return bool(
            (self._used[k] + self._demand(weight) <= self._cap[k] + _TOL).all()
        )

    def candidates(self, weight: float) -> list:
        """Processors with headroom for a task of *weight*, in stable order."""
        return [p for p in self.count if self.fits(p, weight)]
