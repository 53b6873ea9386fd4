"""Phase-shift remapping analysis (§6, "Mapping algorithms").

"algorithms that consider migrating processes at run time in order to
accommodate phase shifts (as opposed to our current approach of finding
one mapping that accommodates all the phases)".

:func:`evaluate_migration` quantifies that trade-off: split the phase
expression into segments, map each segment *only for the phases it uses*,
charge the task-state volume moved between consecutive segment mappings
(volume x hop distance), and compare against the single static mapping.
The result says whether migrating between phase regimes pays for this
computation on this machine -- the decision procedure the paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.dispatch import map_computation
from repro.mapper.mapping import Mapping
from repro.sim.engine import simulate
from repro.sim.model import CostModel

__all__ = [
    "MigrationPlan",
    "evaluate_migration",
    "migration_time",
    "segment_mappings",
]


@dataclass
class MigrationPlan:
    """Outcome of the static-vs-migratory comparison.

    Attributes
    ----------
    static_time: simulated completion time of the single mapping.
    migratory_time: summed per-segment times plus migration costs.
    migration_cost: total time spent moving task state between segments.
    segments: the phase-name sets of each segment.
    mappings: one mapping per segment.
    worthwhile: migratory strictly faster than static.
    """

    static_time: float
    migratory_time: float
    migration_cost: float
    segments: list[set[str]]
    mappings: list[Mapping] = field(default_factory=list)

    @property
    def worthwhile(self) -> bool:
        return self.migratory_time < self.static_time


def _segment_graph(tg: TaskGraph, comm_names: set[str]) -> TaskGraph:
    """A copy of *tg* keeping only the given communication phases.

    The segment graph drives the per-segment mapping: contraction and
    embedding only see the traffic that actually flows in that regime.
    """
    seg = TaskGraph(tg.name + "-segment")
    for node in tg.nodes:
        seg.add_node(node, tg.node_weight(node))
    for name, phase in tg.comm_phases.items():
        if name in comm_names:
            p = seg.add_comm_phase(name)
            for e in phase.edges:
                p.add(e.src, e.dst, e.volume)
    for name, phase in tg.exec_phases.items():
        seg.add_exec_phase(name, phase.cost, phase.costs)
    return seg


def segment_mappings(
    tg: TaskGraph,
    topology: Topology,
    segments: list[set[str]],
    **map_kwargs,
) -> list[Mapping]:
    """One mapping per phase segment, each optimised for its own traffic."""
    mappings: list[Mapping] = []
    comm_names = set(tg.comm_phases)
    for seg_phases in segments:
        seg = _segment_graph(tg, seg_phases & comm_names)
        seg_mapping = map_computation(seg, topology, route=False, **map_kwargs)
        # Carry the assignment back onto the full graph and route only the
        # segment's phases.
        mapping = Mapping(
            tg, topology, seg_mapping.assignment, provenance="migratory"
        )
        from repro.mapper.routing.mm_route import mm_route

        routing = mm_route(seg, topology, mapping.assignment)
        mapping.routes = routing.routes
        mappings.append(mapping)
    return mappings


def evaluate_migration(
    tg: TaskGraph,
    topology: Topology,
    segments: list[set[str]],
    *,
    state_volume: float = 1.0,
    model: CostModel | None = None,
    max_steps: int = 100_000,
    **map_kwargs,
) -> MigrationPlan:
    """Compare one static mapping against per-segment mappings + migration.

    Parameters
    ----------
    segments:
        Disjoint covering of the task graph's phase names; each set is one
        execution regime (e.g. ``[{"ring", "compute1"}, {"chordal",
        "compute2"}]``).  Steps of the phase expression are attributed to
        the first segment containing any of their phases.
    state_volume:
        Units of task state that must move when a task changes processor
        between segments (charged ``state_volume * hops * byte_time +
        hop_latency`` per moved task, serialised per link like any other
        traffic -- approximated here as the max over moved tasks of the
        direct-path time, plus queueing via total volume / link count).
    """
    if tg.phase_expr is None:
        raise ValueError("migration analysis needs a phase expression")
    declared = set(tg.phase_names)
    covered = set().union(*segments) if segments else set()
    if not segments or covered - declared:
        raise ValueError("segments must name declared phases")
    model = model or CostModel()

    static = map_computation(tg, topology, **map_kwargs)
    static_time = simulate(static, model, max_steps=max_steps).total_time

    mappings = segment_mappings(tg, topology, segments, **map_kwargs)

    # Per-segment execution time: simulate the full phase expression but
    # attribute each step to its segment's mapping.
    steps = tg.phase_expr.linearize(max_steps=max_steps)

    def segment_of(step) -> int:
        for i, seg in enumerate(segments):
            if step & seg:
                return i
        return 0  # pure-exec steps run wherever the current regime is

    migratory_time = 0.0
    current = None
    migration_cost = 0.0
    for step in steps:
        i = segment_of(step)
        if current is not None and i != current:
            migration_cost += _migration_time(
                tg, topology, mappings[current], mappings[i], state_volume, model
            )
        current = i
        # Time of this step under its segment's mapping.
        sub = _single_step_time(mappings[i], step, model)
        migratory_time += sub
    migratory_time += migration_cost

    return MigrationPlan(
        static_time=static_time,
        migratory_time=migratory_time,
        migration_cost=migration_cost,
        segments=[set(s) for s in segments],
        mappings=mappings,
    )


def _single_step_time(mapping: Mapping, step, model: CostModel) -> float:
    """Duration of one synchronous step under a given mapping."""
    from repro.sim import step_cost

    tg = mapping.task_graph
    # Segment mappings only carry routes for their own phases; a step can
    # still mention a phase from another regime with zero traffic here.
    routable = {
        n
        for n in step
        if n in tg.comm_phase_names
        and all((n, i) in mapping.routes for i in range(len(tg.comm_phase(n).edges)))
    }
    execs = {n for n in step if n in tg.exec_phase_names}
    return step_cost(mapping, model, routable | execs)


def migration_time(
    topology: Topology,
    moves: list[tuple[object, object]],
    state_volume: float,
    model: CostModel,
) -> float:
    """The volume x hops cost of a batch of task-state relocations.

    *moves* are ``(old_proc, new_proc)`` pairs, one per relocated task.
    Each move is charged ``hops * (hop_latency + state_volume * byte_time)``
    (the store-and-forward per-hop time over the shortest path), and the
    batch pays the longest individual move plus the average serialisation
    pressure of the total moved volume over the network's links.  Shared by
    the phase-shift analysis here and the fault-repair accounting in
    :mod:`repro.resilience.repair` (where hop distances are measured on the
    pre-fault topology, the last machine on which the dead processor was
    reachable).
    """
    per_task = []
    total_volume = 0.0
    for a, b in moves:
        if a != b:
            hops = topology.distance(a, b)
            per_task.append(hops * model.transfer_time(state_volume))
            total_volume += state_volume * hops
    if not per_task:
        return 0.0
    # Longest individual move, plus average serialisation pressure.
    serialisation = total_volume * model.byte_time / max(1, topology.n_links)
    return max(per_task) + serialisation


def _migration_time(
    tg: TaskGraph,
    topology: Topology,
    before: Mapping,
    after: Mapping,
    state_volume: float,
    model: CostModel,
) -> float:
    """Cost of moving every relocated task's state between two mappings."""
    moves = [(before.proc_of(t), after.proc_of(t)) for t in tg.nodes]
    return migration_time(topology, moves, state_volume, model)
