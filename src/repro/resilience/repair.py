"""Incremental mapping repair: relocate and re-route only what a fault broke.

Recomputing the whole mapping after a fault throws away almost everything
MAPPER already decided: on a 64-processor machine losing one processor, 63
processors' worth of placement and the vast majority of routes are still
valid.  :func:`repair_mapping` keeps them:

1. **Relocation** -- only tasks assigned to failed processors move.  Each
   gets the nearest surviving spare (hop distance from its dead processor,
   scored via the pre-fault topology's cached distance matrix), with
   deterministic tie-breaks: fewest tasks already on the candidate, then
   lowest stable processor index.  Relocated tasks are processed in task
   order, so the result is reproducible.
2. **Re-routing** -- only routes that cross dead or degraded links, or
   whose endpoints moved, are re-routed, using the MM-Route table kernel on
   the degraded topology's fresh next-hop tables.  The kept routes' traffic
   seeds the per-link load counters so rerouted messages steer around links
   that are already busy.
3. **Accounting** -- the state of every moved task is charged with the
   volume x hops model of :func:`repro.mapper.migration.migration_time`
   (hop distances on the pre-fault topology, the last machine on which the
   dead processor was reachable).

When the incremental path cannot produce a valid mapping (e.g. the
surviving machine cannot hold the load bound), it falls back to a full
``map_computation`` on the degraded topology; the report records which
strategy ran and exactly what was touched.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.arch.capacity import Headroom
from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import Mapping
from repro.mapper.migration import migration_time
from repro.mapper.routing.mm_route import route_edges
from repro.sim.model import CostModel
from repro.util import perf

from repro.resilience.faults import FaultSet

__all__ = ["RepairReport", "repair_mapping"]

Task = Hashable
Proc = Hashable
RouteKey = tuple[str, int]

_MODES = ("auto", "incremental", "full")


@dataclass
class RepairReport:
    """What a repair did and what it cost.

    Attributes
    ----------
    mapping:
        The repaired mapping, on the degraded topology.
    degraded:
        The surviving machine (``topology.degrade(faults)``).
    faults:
        The fault set that was repaired against.
    strategy:
        ``"incremental"`` (relocate + re-route), ``"full"`` (fallback
        remap), or ``"noop"`` (empty fault set / nothing affected).
    moved_tasks:
        task -> (old processor, new processor), for every relocated task.
    rerouted:
        The route keys that were re-routed, sorted.
    kept_routes:
        Number of routes carried over untouched.
    migration_cost:
        The volume x hops time of moving the relocated tasks' state.
    fallback_reason:
        Why the incremental path was abandoned (``None`` otherwise).
    """

    mapping: Mapping
    degraded: Topology
    faults: FaultSet
    strategy: str
    moved_tasks: dict[Task, tuple[Proc, Proc]] = field(default_factory=dict)
    rerouted: list[RouteKey] = field(default_factory=list)
    kept_routes: int = 0
    migration_cost: float = 0.0
    fallback_reason: str | None = None

    @property
    def n_moved(self) -> int:
        """Number of relocated tasks."""
        return len(self.moved_tasks)

    @property
    def n_rerouted(self) -> int:
        """Number of re-routed message edges."""
        return len(self.rerouted)

    def __repr__(self) -> str:
        return (
            f"<RepairReport {self.strategy}: {self.n_moved} moved, "
            f"{self.n_rerouted} rerouted, {self.kept_routes} kept, "
            f"migration cost {self.migration_cost:g}>"
        )


def _relocate(
    tg: TaskGraph,
    mapping: Mapping,
    topology: Topology,
    degraded: Topology,
    faults: FaultSet,
) -> tuple[dict[Task, Proc], dict[Task, tuple[Proc, Proc]]]:
    """Move tasks off failed processors onto nearest surviving spares.

    Candidates are the survivors with headroom for the relocated task on
    the :class:`~repro.arch.capacity.Headroom` ledger of the degraded
    machine (all of them on a capacity-free machine); when none has it,
    the relocation raises -- ``mode="auto"`` then falls back to a full
    capacity-aware remap of the degraded machine.
    """
    failed = set(faults.failed_procs)
    assignment = dict(mapping.assignment)
    ledger = Headroom(
        degraded,
        placed=(
            (proc, tg.node_weight(task))
            for task, proc in assignment.items() if proc not in failed
        ),
    )
    dist = topology.distance_matrix()  # pre-fault, cached

    moved: dict[Task, tuple[Proc, Proc]] = {}
    for task in tg.nodes:  # task order: deterministic relocation sequence
        old = assignment.get(task)
        if old not in failed:
            continue
        oi = topology.index_of(old)
        weight = tg.node_weight(task)
        # Repair's own ranking: nearest the dead processor first, then
        # least loaded, then lowest surviving index.
        new = min(
            ledger.candidates(weight),
            key=lambda p: (
                dist[oi, topology.index_of(p)],
                ledger.count[p],
                degraded.index_of(p),
            ),
            default=None,
        )
        if new is None:
            raise ValueError(
                f"no surviving processor has capacity headroom for "
                f"task {task!r}"
            )
        assignment[task] = new
        ledger.add(new, weight)
        moved[task] = (old, new)
    return assignment, moved


def _affected_routes(
    tg: TaskGraph,
    mapping: Mapping,
    faults: FaultSet,
    moved: dict[Task, tuple[Proc, Proc]],
) -> tuple[list[RouteKey], dict[RouteKey, list[Proc]]]:
    """Split routes into (must re-route, can keep verbatim)."""
    dead_links = faults.dead_links_on(mapping.topology)
    degraded_links = {l for l, _ in faults.degraded_links}
    bad_pairs = {tuple(sorted(l, key=repr)) for l in dead_links | degraded_links}

    def crosses_bad(route: list[Proc]) -> bool:
        return any(
            tuple(sorted((a, b), key=repr)) in bad_pairs
            for a, b in zip(route, route[1:])
        )

    affected: list[RouteKey] = []
    kept: dict[RouteKey, list[Proc]] = {}
    for (phase, idx), route in mapping.routes.items():
        edge = tg.comm_phase(phase).edges[idx]
        if edge.src in moved or edge.dst in moved or crosses_bad(route):
            affected.append((phase, idx))
        else:
            kept[(phase, idx)] = route
    return sorted(affected), kept


def _repair_incremental(
    tg: TaskGraph,
    mapping: Mapping,
    topology: Topology,
    degraded: Topology,
    faults: FaultSet,
    model: CostModel,
    state_volume: float,
) -> RepairReport:
    assignment, moved = _relocate(tg, mapping, topology, degraded, faults)
    affected, kept = _affected_routes(tg, mapping, faults, moved)

    routes = dict(kept)
    if affected:
        rerouted = route_edges(tg, degraded, assignment, affected, kept_routes=kept)
        routes.update(rerouted.routes)

    repaired = Mapping(
        tg,
        degraded,
        assignment,
        routes,
        provenance=mapping.provenance + "+repaired",
    )
    # Only demand complete routes when the input mapping had them (the
    # migration machinery's segment mappings legitimately route a subset).
    # A route table holds only edges of its graph, so counting suffices.
    had_all_routes = len(mapping.routes) == tg.n_edges
    repaired.validate(require_routes=had_all_routes)

    cost = migration_time(
        topology, list(moved.values()), state_volume, model
    )
    strategy = "incremental" if (moved or affected) else "noop"
    return RepairReport(
        mapping=repaired,
        degraded=degraded,
        faults=faults,
        strategy=strategy,
        moved_tasks=moved,
        rerouted=affected,
        kept_routes=len(kept),
        migration_cost=cost,
    )


def _repair_full(
    tg: TaskGraph,
    mapping: Mapping,
    topology: Topology,
    degraded: Topology,
    faults: FaultSet,
    model: CostModel,
    state_volume: float,
    reason: str | None,
    **map_kwargs,
) -> RepairReport:
    # A full remap is a fresh, uncached pipeline run on the degraded
    # machine: a sweep or a session that repeats it journals the repair.
    from repro.pipeline.config import RunConfig
    from repro.pipeline.engine import run_pipeline

    config = RunConfig.mapping_only(**map_kwargs)
    remapped = run_pipeline(tg, degraded, config).mapping
    remapped.provenance += "+full-repair"
    moved = {
        t: (mapping.assignment[t], p)
        for t, p in remapped.assignment.items()
        if t in mapping.assignment and mapping.assignment[t] != p
    }
    # Moves off *surviving* processors still carry state across the live
    # network; moves off dead processors are recoveries, charged the same.
    cost = migration_time(topology, list(moved.values()), state_volume, model)
    return RepairReport(
        mapping=remapped,
        degraded=degraded,
        faults=faults,
        strategy="full",
        moved_tasks=moved,
        rerouted=sorted(remapped.routes),
        kept_routes=0,
        migration_cost=cost,
        fallback_reason=reason,
    )


def repair_mapping(
    tg: TaskGraph,
    mapping: Mapping,
    topology: Topology,
    faults: FaultSet,
    *,
    mode: str = "auto",
    model: CostModel | None = None,
    state_volume: float = 1.0,
    **map_kwargs,
) -> RepairReport:
    """Repair *mapping* against *faults*; relocate and re-route minimally.

    Parameters
    ----------
    tg:
        The task graph of *mapping* (passed explicitly so repairs compose
        with the migration machinery's segment graphs).
    mapping:
        The pre-fault mapping to repair; not modified.
    topology:
        The pre-fault topology the mapping was produced for.
    faults:
        The fault set to repair against (must reference only hardware of
        *topology*).
    mode:
        ``"auto"`` (default) tries the incremental path and falls back to a
        full remap when it fails; ``"incremental"`` / ``"full"`` force one
        path (the forced incremental path propagates its errors).
    model, state_volume:
        Cost model and per-task state volume for the migration-cost charge.
    map_kwargs:
        Forwarded to :func:`repro.mapper.map_computation` on the full-remap
        path (``strategy=``, ``load_bound=``, ...).

    Returns
    -------
    A :class:`RepairReport` whose ``mapping`` lives on the degraded
    topology, assigns no task to failed hardware, and routes nothing over
    dead links.

    Raises
    ------
    DisconnectedTopologyError
        When the fault set disconnects the machine -- no mapping of a
        connected task graph can survive that; partition-level operation
        is the caller's decision, not a silent repair.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")
    model = model or CostModel()
    faults.validate_against(topology)
    with perf.span("resilience.repair"):
        degraded = topology.degrade(faults)
        if faults.is_empty:
            same = Mapping(
                tg,
                degraded,
                dict(mapping.assignment),
                mapping.routes,
                provenance=mapping.provenance,
            )
            return RepairReport(
                mapping=same,
                degraded=degraded,
                faults=faults,
                strategy="noop",
                kept_routes=len(mapping.routes),
            )
        if mode == "full":
            return _repair_full(
                tg, mapping, topology, degraded, faults, model,
                state_volume, None, **map_kwargs,
            )
        try:
            report = _repair_incremental(
                tg, mapping, topology, degraded, faults, model, state_volume
            )
        except Exception as exc:
            if mode == "incremental":
                raise
            perf.count("resilience.repair.fallback")
            return _repair_full(
                tg, mapping, topology, degraded, faults, model,
                state_volume, f"{type(exc).__name__}: {exc}", **map_kwargs,
            )
        perf.count("resilience.repair.incremental")
        return report
