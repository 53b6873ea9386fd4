"""MAPPER's mapping strategies (Fig 3) and the one-call mapping shim.

Fig 3 is a fixed dispatch over a library, so it is a table:
:data:`STRATEGIES` lists the dispatch paths in rank order, and a
strategy's rank *is* its position there -- the ``auto`` fall-through
order and the portfolio's tie-break order, declared once:

1. **canned** -- the task graph and topology both carry family names and
   the canned registry has an entry that fits: constant-time lookup.
2. **group** -- the communication functions generate a regular group
   action: group-theoretic contraction to perfectly balanced cosets, then
   NN-Embed places the quotient graph.
3. **mwm** (refinable) -- everything else: Algorithm MWM-Contract +
   Algorithm NN-Embed.
4. **multilevel** (opt-in) -- matching-based coarsening + NN-Embed +
   per-level delta-gain refinement for 10^5..10^6-task graphs.  Never
   chosen by ``auto`` and excluded from the default portfolio: at
   blossom-matching scales MWM-Contract is the quality reference, and the
   pinned golden results must not shift.

The pipeline's ``contract`` stage (:mod:`repro.pipeline.stages`) walks the
table; the portfolio and every ``--strategy`` choice read
:func:`default_portfolio` / :func:`strategy_names` off it.

:func:`map_computation` remains the one-call entry point, a thin shim
over :func:`repro.pipeline.run_pipeline` (stages ``contract`` / ``embed``
/ ``refine`` / ``route``).  Its outputs are bit-identical to the
pre-pipeline implementation -- pinned by ``tests/test_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.arch.capacity import CapacityContext
from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.canned.registry import canned_assignment
from repro.mapper.contraction.group import group_contract
from repro.mapper.contraction.mwm import mwm_contract
from repro.mapper.mapping import Mapping, NotApplicableError
from repro.util import perf

__all__ = [
    "Contraction",
    "MappingStrategy",
    "STRATEGIES",
    "get_strategy",
    "strategy_names",
    "default_portfolio",
    "map_computation",
]


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


@dataclass(frozen=True)
class MappingStrategy:
    """One way the ``contract`` stage can partition-and-seed a mapping.

    Attributes
    ----------
    name:
        ``"canned"`` / ``"group"`` / ``"mwm"`` / ``"multilevel"``.
    run:
        ``(tg, capacity, load_bound) -> Contraction``; raises
        :class:`~repro.mapper.NotApplicableError` when the strategy does
        not fit the input.  *capacity* is the
        :class:`~repro.arch.capacity.CapacityContext` binding *tg* to the
        machine (``capacity.topology``), capacity-free or not.
    auto:
        Whether ``strategy="auto"`` may try this strategy.
    refinable:
        Whether the KL-style post-passes apply, i.e. whether the default
        portfolio also tries ``"<name>+refine"``.
    portfolio:
        Whether :func:`default_portfolio` includes this strategy.
        Multilevel targets graphs far beyond the portfolio benchmarks and
        stays out, so the pinned portfolio winners stay untouched while
        the strategy remains addressable by name everywhere else.
    """

    name: str
    run: Callable[[TaskGraph, CapacityContext, int | None], Contraction]
    auto: bool = True
    refinable: bool = False
    portfolio: bool = True


# ----------------------------------------------------------------------
# strategy implementations (tabled below)
# ----------------------------------------------------------------------

def _canned(tg: TaskGraph, capacity: CapacityContext, load_bound) -> Contraction:
    # Canned mappings place directly -- no separate embedding step.  Their
    # assignment is fixed by structure, so on a capacity-constrained
    # machine the only option is to check it and fall through when it
    # overflows any resource budget.
    assignment = canned_assignment(tg, capacity.topology)
    if capacity.overflows(assignment):
        raise NotApplicableError(
            "the canned mapping overflows the machine's capacity vectors"
        )
    return Contraction(provenance="canned", assignment=assignment)


def _group(tg: TaskGraph, capacity: CapacityContext, load_bound) -> Contraction:
    # allow_residual: "almost node symmetric" graphs (a few non-bijective
    # phases, e.g. a synthesised aggregation) still take the group path,
    # with the residual traffic folded into the subgroup choice.
    contraction = group_contract(
        tg, capacity.topology.n_processors, allow_residual=True
    )
    if load_bound is not None and any(
        len(c) > load_bound for c in contraction.clusters
    ):
        raise NotApplicableError(
            "group contraction's coset size exceeds the requested load bound"
        )
    if not all(capacity.cluster_fits(c) for c in contraction.clusters):
        raise NotApplicableError(
            "a group-contraction coset's demand vector fits no processor"
        )
    return Contraction(
        provenance="group",
        clusters=contraction.clusters,
        group_contraction=contraction,  # diagnostics for METRICS
    )


def _mwm(tg: TaskGraph, capacity: CapacityContext, load_bound) -> Contraction:
    clusters = mwm_contract(
        tg, capacity.topology.n_processors, load_bound=load_bound,
        capacity=capacity,
    )
    return Contraction(provenance="mwm", clusters=clusters)


def _multilevel(tg: TaskGraph, capacity: CapacityContext, load_bound) -> Contraction:
    # Lazy import: the multilevel module pulls in the refinement kernel,
    # which most runs never touch.
    from repro.mapper.contraction.multilevel import _multilevel_assignment

    assignment, stats = _multilevel_assignment(tg, capacity, load_bound)
    return Contraction(
        provenance="multilevel", assignment=assignment, stats=stats
    )


#: Fig 3 as data, in rank order.
STRATEGIES: tuple[MappingStrategy, ...] = (
    MappingStrategy("canned", _canned),
    MappingStrategy("group", _group),
    MappingStrategy("mwm", _mwm, refinable=True),
    MappingStrategy("multilevel", _multilevel, auto=False, portfolio=False),
)


def strategy_names() -> tuple[str, ...]:
    """The strategy names in rank order (excludes ``"auto"``)."""
    return tuple(s.name for s in STRATEGIES)


def get_strategy(name: str) -> MappingStrategy:
    """Look up a strategy by name; unknown names raise ValueError."""
    for strategy in STRATEGIES:
        if strategy.name == name:
            return strategy
    raise ValueError(
        f"unknown strategy {name!r}; choose from {('auto', *strategy_names())}"
    )


def default_portfolio() -> tuple[str, ...]:
    """The portfolio's default strategy list, read off the table.

    Every portfolio-eligible strategy in rank order, followed by
    ``"<name>+refine"`` for each refinable one:
    ``("canned", "group", "mwm", "mwm+refine")``.
    """
    eligible = [s for s in STRATEGIES if s.portfolio]
    return (
        *(s.name for s in eligible),
        *(f"{s.name}+refine" for s in eligible if s.refinable),
    )


# ----------------------------------------------------------------------
# the one-call entry point (a pipeline shim)
# ----------------------------------------------------------------------

def map_computation(
    tg: TaskGraph,
    topology: Topology,
    *,
    strategy: str = "auto",
    load_bound: int | None = None,
    route: bool = True,
    refine: bool | str = False,
) -> Mapping:
    """Map a task graph onto a topology: contraction, embedding, routing.

    A thin shim over :func:`repro.pipeline.run_pipeline` -- same results
    as ever, one execution path underneath.  Runs uncached: callers that
    want memoised repeat runs use the pipeline directly and get the
    artifact cache for free.

    Parameters
    ----------
    tg:
        The task graph (e.g. from :func:`repro.larcs.compile_larcs` or
        :mod:`repro.graph.families`).
    topology:
        The target architecture.
    strategy:
        ``"auto"`` (default) tries the strategy table in rank
        order -- canned, then group-theoretic, then MWM-Contract; or
        force one by name (``"canned"`` / ``"group"`` / ``"mwm"``), in
        which case a non-fitting input raises
        :class:`~repro.mapper.NotApplicableError`.
    load_bound:
        Optional balance constraint ``B`` (max tasks per processor);
        defaults to ``ceil(n_tasks / n_processors)``.
    route:
        When true (default), run Algorithm MM-Route and attach routes.
    refine:
        ``True`` or ``"kl"`` runs the Kernighan-Lin-style post-passes
        (:mod:`repro.mapper.refine`) on heuristic mappings -- task moves
        between clusters, then placement 2-opt.  ``"delta_gain"`` runs
        the vectorized delta-gain kernel instead (the large-graph path).
        Canned mappings are left untouched (their structure is the
        point).  Default ``False``/``"none"``: no refinement.

    Returns
    -------
    A validated :class:`repro.mapper.Mapping`.
    """
    # Lazy: repro.pipeline.engine may still be mid-import when this module
    # loads (pipeline -> cache -> io -> mapper -> here); by call time it
    # is complete.
    from repro.pipeline.config import RunConfig
    from repro.pipeline.engine import run_pipeline

    config = RunConfig.mapping_only(
        strategy=strategy, load_bound=load_bound, refine=refine, route=route,
    )
    with perf.span("mapper.map_computation"):
        return run_pipeline(tg, topology, config).mapping
