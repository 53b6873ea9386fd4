"""The pipeline's stage protocol and the stage table.

OREGAMI's toolchain is a pipeline by construction -- LaRCS hands a task
graph to MAPPER (contract, embed, route), MAPPER hands a mapping to METRICS
and the simulator.  This module makes that structure explicit and
introspectable: a **stage** is one named step operating on a shared
:class:`PipelineContext` (``contract`` / ``embed`` / ``refine`` /
``route`` / ``simulate`` / ``analyze``); :data:`STAGES` lists the six, and
the engine executes the ones a :class:`~repro.pipeline.RunConfig` names,
in the order it names them.

The ``contract`` stage is MAPPER's Fig 3 dispatch: it walks the strategy
table, :data:`repro.mapper.dispatch.STRATEGIES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from repro.arch.capacity import CapacityContext
from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.dispatch import STRATEGIES, get_strategy
from repro.mapper.mapping import Mapping, NotApplicableError
from repro.util import perf

__all__ = [
    "PipelineContext",
    "Stage",
    "STAGES",
    "get_stage",
    "stage_names",
    "all_stages",
]


# ----------------------------------------------------------------------
# the shared context stages read and write
# ----------------------------------------------------------------------

@dataclass
class PipelineContext:
    """Everything one pipeline run accumulates, stage by stage.

    Inputs (``tg``, ``topology``, ``config``) are set by the engine;
    each stage fills in the fields listed as its products.  A stage's
    ``requires`` names context fields that must be non-``None`` before it
    may run, which is how the engine rejects ill-ordered stage lists
    up front instead of crashing mid-run.
    """

    tg: TaskGraph
    topology: Topology
    config: Any  # RunConfig; typed loosely to avoid an import cycle

    # contract
    provenance: str | None = None
    clusters: list | None = None
    group_contraction: Any | None = None
    map_stats: dict | None = None
    # embed (also set directly by contract for pre-placed strategies)
    assignment: dict | None = None
    mapping: Mapping | None = None
    # route
    routing_rounds: int | None = None
    # simulate / analyze
    sim: Any | None = None
    metrics: Any | None = None

    @cached_property
    def capacity(self) -> CapacityContext:
        """The machine's capacity context bound to this graph.

        Capacity-free machines included (R = 0, where every feasibility
        question answers "fits" at once).  Built once per run: contract,
        embed and refine share it.
        """
        return CapacityContext.of(self.tg, self.topology)


# ----------------------------------------------------------------------
# the stage protocol
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One named pipeline step.

    Attributes
    ----------
    name:
        The ``RunConfig.stages`` entry and the ``pipeline.<name>``
        perf-span label.
    run:
        The implementation; mutates the :class:`PipelineContext`.
    requires:
        Context field names that must be non-``None`` before this stage
        runs -- the engine checks them and raises a clear error for
        ill-ordered stage lists.
    description:
        One line for introspection (``docs/architecture.md``).
    """

    name: str
    run: Callable[[PipelineContext], None]
    requires: tuple[str, ...] = ()
    description: str = ""


# ----------------------------------------------------------------------
# the stages
# ----------------------------------------------------------------------

def _run_contract(ctx: PipelineContext) -> None:
    """Pick and run a mapping strategy (MAPPER's Fig 3 dispatch).

    ``strategy="auto"`` tries the table's auto strategies in rank order,
    falling through on :class:`NotApplicableError`; the last one's error
    propagates.  A named strategy runs alone, so its error propagates
    directly.
    """
    cfg = ctx.config.map
    if cfg.strategy == "auto":
        candidates = [s for s in STRATEGIES if s.auto]
    else:
        candidates = [get_strategy(cfg.strategy)]
    with perf.span("mapper.strategy"):
        for strategy in candidates:
            try:
                result = strategy.run(ctx.tg, ctx.capacity, cfg.load_bound)
                break
            except NotApplicableError:
                if strategy is candidates[-1]:
                    raise
    perf.count(f"mapper.strategy.{result.provenance}")
    ctx.provenance = result.provenance
    ctx.clusters = result.clusters
    ctx.assignment = result.assignment
    ctx.group_contraction = result.group_contraction
    ctx.map_stats = result.stats


def _run_embed(ctx: PipelineContext) -> None:
    """Place clusters with Algorithm NN-Embed and build the Mapping.

    Strategies that assign directly (canned) skip the placement; either
    way this stage is where the :class:`Mapping` object is born.
    """
    if ctx.assignment is None:
        from repro.mapper.embedding.nn_embed import (
            _nn_embed,
            assignment_from_clusters,
        )

        placement = _nn_embed(ctx.tg, ctx.clusters, ctx.capacity)
        ctx.assignment = assignment_from_clusters(ctx.clusters, placement)
    mapping = Mapping(
        ctx.tg, ctx.topology, ctx.assignment, provenance=ctx.provenance
    )
    mapping.group_contraction = ctx.group_contraction  # METRICS diagnostics
    mapping.map_stats = ctx.map_stats  # strategy counters for METRICS
    ctx.mapping = mapping


def _run_refine(ctx: PipelineContext) -> None:
    """Refinement post-pass, selected by ``MapConfig.refine``.

    ``False``/``"none"`` no-ops; ``True``/``"kl"`` runs the
    Kernighan-Lin-style contraction/embedding passes; ``"delta_gain"``
    runs the vectorized delta-gain kernel on the finished mapping.
    Canned mappings are left untouched (their structure is the point),
    as are empty graphs.
    """
    method = ctx.config.map.refine
    if not method or method == "none":
        return
    mapping = ctx.mapping
    if mapping.provenance == "canned" or ctx.tg.n_tasks == 0:
        return
    if method == "delta_gain":
        from repro.mapper.refine import refine

        refined = refine(
            mapping, "delta_gain", load_bound=ctx.config.map.load_bound,
        )
        ctx.assignment = refined.assignment
        ctx.mapping = refined
        ctx.provenance = refined.provenance
        ctx.map_stats = refined.map_stats
        return
    import math

    from repro.mapper.embedding.nn_embed import (
        _nn_embed,
        assignment_from_clusters,
    )
    from repro.mapper.refine import _refine_embedding, refine_contraction

    with perf.span("mapper.refine"):
        tg, topology = ctx.tg, ctx.topology
        load_bound = ctx.config.map.load_bound
        bound = load_bound if load_bound is not None else math.ceil(
            max(tg.n_tasks, 1) / topology.n_processors
        )
        # Canonicalise each cluster by the graph's task-declaration order
        # (a total order over labels by construction).  The previous
        # repr-sort keyed mixed-type labels lexically -- '10' < '2' -- so
        # refinement outcomes depended on label spelling.
        index = {t: i for i, t in enumerate(tg.nodes)}
        clusters = [
            sorted(ts, key=index.__getitem__)
            for ts in mapping.clusters().values()
        ]
        capacity = ctx.capacity
        clusters = refine_contraction(
            tg, clusters, load_bound=bound, capacity=capacity
        )
        placement = _nn_embed(tg, clusters, capacity)
        placement = _refine_embedding(tg, clusters, placement, capacity)
        ctx.assignment = assignment_from_clusters(clusters, placement)
        refined = Mapping(
            tg,
            topology,
            ctx.assignment,
            provenance=mapping.provenance + "+refined",
        )
        ctx.mapping = refined
        ctx.provenance = refined.provenance


def _run_route(ctx: PipelineContext) -> None:
    """Run Algorithm MM-Route and attach routes to the mapping."""
    from repro.mapper.routing.mm_route import mm_route

    with perf.span("mapper.route"):
        routing = mm_route(ctx.tg, ctx.topology, ctx.mapping.assignment)
        ctx.mapping.routes = routing.routes
        ctx.mapping.routing_rounds = routing.rounds
        ctx.routing_rounds = routing.rounds


def _run_simulate(ctx: PipelineContext) -> None:
    """Run the discrete-event simulator under the config's cost model."""
    from repro.sim.engine import simulate

    ctx.sim = simulate(ctx.mapping, ctx.config.sim)


def _run_analyze(ctx: PipelineContext) -> None:
    """Compute the METRICS suite, reusing the simulate stage's result."""
    from repro.metrics.analysis import analyze

    ctx.metrics = analyze(ctx.mapping, ctx.config.sim, sim=ctx.sim)


STAGES: tuple[Stage, ...] = (
    Stage("contract", _run_contract, (),
          "pick a mapping strategy and partition tasks into clusters"),
    Stage("embed", _run_embed, ("provenance",),
          "place clusters on processors (NN-Embed) -> Mapping"),
    Stage("refine", _run_refine, ("mapping",),
          "KL-style contraction/embedding post-passes (when enabled)"),
    Stage("route", _run_route, ("mapping",),
          "route every message edge (MM-Route)"),
    Stage("simulate", _run_simulate, ("mapping",),
          "discrete-event simulation under the config's cost model"),
    Stage("analyze", _run_analyze, ("mapping",),
          "METRICS suite (load balance, link metrics, completion time)"),
)


def get_stage(name: str) -> Stage:
    """Look up a stage by name; unknown names raise ValueError."""
    for stage in STAGES:
        if stage.name == name:
            return stage
    raise ValueError(
        f"unknown pipeline stage {name!r}; choose from {stage_names()}"
    )


def stage_names() -> tuple[str, ...]:
    """All stage names, in pipeline order."""
    return tuple(stage.name for stage in STAGES)


def all_stages() -> tuple[Stage, ...]:
    """All stages, in pipeline order (introspection)."""
    return STAGES
