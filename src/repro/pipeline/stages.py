"""The pipeline's stage protocol and the stage/strategy registries.

OREGAMI's toolchain is a pipeline by construction -- LaRCS hands a task
graph to MAPPER (contract, embed, route), MAPPER hands a mapping to METRICS
and the simulator.  This module makes that structure explicit and
introspectable:

* a **stage** is one named step operating on a shared
  :class:`PipelineContext` (``contract`` / ``embed`` / ``refine`` /
  ``route`` / ``simulate`` / ``analyze``), registered via
  :func:`register_stage` and executed in the order a
  :class:`~repro.pipeline.RunConfig` declares;
* a **mapping strategy** is one way the ``contract`` stage can partition
  tasks (``canned`` / ``group`` / ``mwm``), registered via
  :func:`register_strategy` with a rank that fixes both the ``auto``
  fall-through order and the portfolio tie-break order.

The strategy *implementations* live in :mod:`repro.mapper.dispatch` (next
to the algorithms they compose) and register themselves when that module
imports; :func:`_ensure_strategies` imports it lazily so the registry is
populated however the pipeline is reached.  Strategy order is data -- the
portfolio and the dispatcher both read :func:`default_portfolio` /
:func:`strategy_names` instead of hard-coding tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import Mapping, NotApplicableError
from repro.util import perf

__all__ = [
    "PipelineContext",
    "Contraction",
    "Stage",
    "register_stage",
    "get_stage",
    "stage_names",
    "all_stages",
    "MappingStrategy",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "default_portfolio",
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


@dataclass(frozen=True)
class Contraction:
    """What a mapping strategy hands the ``embed`` stage.

    Either ``clusters`` (a task partition still needing placement by
    NN-Embed) or ``assignment`` (a strategy that places directly, like the
    canned registry) -- exactly one is set.  ``group_contraction`` carries
    the group-theoretic diagnostics METRICS displays; ``stats`` carries
    strategy counters (multilevel's coarsening levels and refinement
    moves/gain) that flow through the mapping into the metrics JSON.
    """

    provenance: str
    clusters: list | None = None
    assignment: dict | None = None
    group_contraction: Any | None = None
    stats: dict | None = None

    def __post_init__(self):
        if (self.clusters is None) == (self.assignment is None):
            raise ValueError(
                "a Contraction carries exactly one of clusters/assignment"
            )


# ----------------------------------------------------------------------
# stage registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One named pipeline step.

    Attributes
    ----------
    name:
        Registry key; also the ``RunConfig.stages`` entry and the
        ``pipeline.<name>`` perf-span label.
    run:
        The implementation; mutates the :class:`PipelineContext`.
    requires:
        Context field names that must be non-``None`` before this stage
        runs -- the engine checks them and raises a clear error for
        ill-ordered stage lists.
    description:
        One line for introspection (``repro run --list-stages`` style
        tooling and :mod:`docs/architecture.md`).
    """

    name: str
    run: Callable[[PipelineContext], None]
    requires: tuple[str, ...] = ()
    description: str = ""


_STAGE_REGISTRY: dict[str, Stage] = {}


def register_stage(
    name: str,
    run: Callable[[PipelineContext], None],
    *,
    requires: tuple[str, ...] = (),
    description: str = "",
) -> Stage:
    """Register a pipeline stage (last registration wins, enabling tests
    to substitute instrumented stages)."""
    stage = Stage(name, run, tuple(requires), description)
    _STAGE_REGISTRY[name] = stage
    return stage


def get_stage(name: str) -> Stage:
    """Look up a registered stage; unknown names raise ValueError."""
    try:
        return _STAGE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown pipeline stage {name!r}; choose from {stage_names()}"
        ) from None


def stage_names() -> tuple[str, ...]:
    """All registered stage names, in registration order."""
    return tuple(_STAGE_REGISTRY)


def all_stages() -> tuple[Stage, ...]:
    """All registered stages, in registration order (introspection)."""
    return tuple(_STAGE_REGISTRY.values())


# ----------------------------------------------------------------------
# mapping-strategy registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MappingStrategy:
    """One way the ``contract`` stage can partition-and-seed a mapping.

    Attributes
    ----------
    name:
        Registry key (``"canned"`` / ``"group"`` / ``"mwm"``).
    run:
        ``(tg, topology, load_bound, capacity) -> Contraction``; raises
        :class:`~repro.mapper.NotApplicableError` when the strategy does
        not fit the input.  *capacity* is the machine's bound
        :class:`~repro.arch.capacity.CapacityContext`, or ``None`` on a
        capacity-free machine.
    rank:
        Total order over strategies: the ``auto`` fall-through tries
        ascending rank, and the portfolio breaks completion-time ties by
        it.  This replaces the strategy tuples previously hard-coded in
        both ``dispatch`` and ``portfolio``.
    auto:
        Whether ``strategy="auto"`` may try this strategy.
    refinable:
        Whether the KL-style post-passes apply, i.e. whether the default
        portfolio also tries ``"<name>+refine"``.
    portfolio:
        Whether :func:`default_portfolio` includes this strategy.
        Opt-in strategies (multilevel, which targets graphs far beyond
        the portfolio benchmarks) register with ``portfolio=False`` so
        the pinned portfolio winners stay untouched while the strategy
        remains addressable by name everywhere else.
    """

    name: str
    run: Callable[[TaskGraph, Topology, int | None, Any], Contraction]
    rank: int
    auto: bool = True
    refinable: bool = False
    portfolio: bool = True


_STRATEGY_REGISTRY: dict[str, MappingStrategy] = {}


def register_strategy(
    name: str,
    run: Callable[[TaskGraph, Topology, int | None, Any], Contraction],
    *,
    rank: int,
    auto: bool = True,
    refinable: bool = False,
    portfolio: bool = True,
) -> MappingStrategy:
    """Register a mapping strategy (last registration wins)."""
    strategy = MappingStrategy(name, run, rank, auto, refinable, portfolio)
    _STRATEGY_REGISTRY[name] = strategy
    return strategy


def _ensure_strategies() -> None:
    """Populate the registry with the built-in MAPPER strategies.

    The implementations live in :mod:`repro.mapper.dispatch` (which
    imports this module, so the import must be lazy) and register
    themselves at import time.
    """
    if not _STRATEGY_REGISTRY:
        import repro.mapper.dispatch  # noqa: F401  (registers strategies)


def _ranked() -> list[MappingStrategy]:
    _ensure_strategies()
    return sorted(_STRATEGY_REGISTRY.values(), key=lambda s: s.rank)


def get_strategy(name: str) -> MappingStrategy:
    """Look up a registered strategy; unknown names raise ValueError."""
    _ensure_strategies()
    try:
        return _STRATEGY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from "
            f"{('auto', *strategy_names())}"
        ) from None


def strategy_names() -> tuple[str, ...]:
    """Registered strategy names in rank order (excludes ``"auto"``)."""
    return tuple(s.name for s in _ranked())


def default_portfolio() -> tuple[str, ...]:
    """The portfolio's default strategy list, derived from the registry.

    Every portfolio-eligible strategy in rank order, followed by
    ``"<name>+refine"`` for each refinable one -- today
    ``("canned", "group", "mwm", "mwm+refine")``.  Registering a new
    strategy extends the portfolio automatically unless it opts out with
    ``portfolio=False``.
    """
    ranked = [s for s in _ranked() if s.portfolio]
    base = tuple(s.name for s in ranked)
    refined = tuple(f"{s.name}+refine" for s in ranked if s.refinable)
    return base + refined


# ----------------------------------------------------------------------
# the built-in stages
# ----------------------------------------------------------------------

def _resolve_capacity(ctx: PipelineContext):
    """The run's bound capacity context, or ``None``.

    ``None`` on a capacity-free machine and for an empty graph -- every
    consumer treats ``None`` as "run the paper's scalar paths", which
    keeps homogeneous machines bit-identical to the pre-capacity pipeline.
    """
    capacities = ctx.topology.capacities
    if capacities is None or ctx.tg.n_tasks == 0:
        return None
    return capacities.context(ctx.tg, ctx.topology)


def _run_contract(ctx: PipelineContext) -> None:
    """Pick and run a mapping strategy (MAPPER's Fig 3 dispatch).

    ``strategy="auto"`` tries registered auto strategies in rank order,
    falling through on :class:`NotApplicableError`; the last one's error
    propagates.  A named strategy runs alone and its error propagates
    directly, preserving the legacy forced-strategy semantics.
    """
    cfg = ctx.config.map
    capacity = _resolve_capacity(ctx)
    with perf.span("mapper.strategy"):
        if cfg.strategy == "auto":
            candidates = [s for s in _ranked() if s.auto]
            if not candidates:
                raise NotApplicableError("no auto-eligible strategies registered")
            result = None
            for strategy in candidates[:-1]:
                try:
                    result = strategy.run(
                        ctx.tg, ctx.topology, cfg.load_bound, capacity
                    )
                    break
                except NotApplicableError:
                    continue
            if result is None:
                result = candidates[-1].run(
                    ctx.tg, ctx.topology, cfg.load_bound, capacity
                )
        else:
            result = get_strategy(cfg.strategy).run(
                ctx.tg, ctx.topology, cfg.load_bound, capacity
            )
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
            assignment_from_clusters,
            nn_embed,
        )

        placement = nn_embed(
            ctx.tg, ctx.clusters, ctx.topology,
            capacity=_resolve_capacity(ctx),
        )
        ctx.assignment = assignment_from_clusters(ctx.clusters, placement)
    mapping = Mapping(
        ctx.tg, ctx.topology, ctx.assignment, provenance=ctx.provenance
    )
    if ctx.group_contraction is not None:
        mapping.group_contraction = ctx.group_contraction  # METRICS diagnostics
    if ctx.map_stats is not None:
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
        assignment_from_clusters,
        nn_embed,
    )
    from repro.mapper.refine import refine_contraction, refine_embedding

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
        capacity = _resolve_capacity(ctx)
        clusters = refine_contraction(
            tg, clusters, load_bound=bound, capacity=capacity
        )
        placement = nn_embed(tg, clusters, topology, capacity=capacity)
        placement = refine_embedding(
            tg, clusters, placement, topology, capacity=capacity
        )
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
    """Run the discrete-event simulator under ``SimConfig``'s machine."""
    from repro.sim.engine import simulate

    ctx.sim = simulate(ctx.mapping, ctx.config.sim.cost_model())


def _run_analyze(ctx: PipelineContext) -> None:
    """Compute the METRICS suite, reusing the simulate stage's result."""
    from repro.metrics.analysis import analyze

    ctx.metrics = analyze(
        ctx.mapping, ctx.config.sim.cost_model(), sim=ctx.sim
    )


register_stage(
    "contract", _run_contract,
    description="pick a mapping strategy and partition tasks into clusters",
)
register_stage(
    "embed", _run_embed, requires=("provenance",),
    description="place clusters on processors (NN-Embed) -> Mapping",
)
register_stage(
    "refine", _run_refine, requires=("mapping",),
    description="KL-style contraction/embedding post-passes (when enabled)",
)
register_stage(
    "route", _run_route, requires=("mapping",),
    description="route every message edge (MM-Route)",
)
register_stage(
    "simulate", _run_simulate, requires=("mapping",),
    description="discrete-event simulation under the SimConfig cost model",
)
register_stage(
    "analyze", _run_analyze, requires=("mapping",),
    description="METRICS suite (load balance, link metrics, completion time)",
)
