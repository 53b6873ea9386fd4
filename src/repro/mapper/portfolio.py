"""A parallel mapping-strategy portfolio (run several mappers, keep the best).

Fast static-mapping toolkits get robustness the same way: run a portfolio
of heuristics on the same (task graph, topology) instance and keep the
winner by the objective.  This module does that on top of MAPPER's
strategies, with the supervised runtime (:mod:`repro.runtime`) supplying
the parallelism.

:func:`run_portfolio` maps one (graph, topology) pair with every
applicable strategy, simulates each candidate mapping, and selects the best
by completion time with deterministic tie-breaks (strategy order).  Its
strategies fan out over a thread or process pool (``executor=``).  Many
instances under one config are one ``run_supervised(pipeline_task, ...)``
call (see :func:`repro.pipeline.engine.pipeline_task`); many instances
each under a portfolio are one ``run_portfolio`` call apiece.

Strategy names are :func:`repro.mapper.map_computation` strategies, with
an optional ``+refine`` suffix enabling the Kernighan-Lin-style
post-passes (``"mwm+refine"`` contracts with MWM then refines).
Strategies that raise :class:`~repro.mapper.NotApplicableError` are
recorded as skipped, not errors.

Supervision: a per-strategy ``deadline`` bounds wall-clock (hung process
workers are killed), a :class:`~repro.runtime.RetryPolicy` retries
crashed/transiently-failing workers with deterministic backoff, and a
strategy that still fails becomes a first-class failed
:class:`Candidate` -- the portfolio picks its winner among the
*survivors* and raises only when nothing survived
(:class:`~repro.errors.AllStrategiesFailed` if anything actually failed,
:class:`NotApplicableError` when every strategy was merely
inapplicable).  With ``resume="auto"`` and a ``cache``, finished
strategies checkpoint into that store and a re-invoked portfolio resumes
from the journal; the strategies' own pipeline runs are never cached.

Determinism: each candidate's completion time comes from the deterministic
simulator, and the winner is ``min((time, strategy_rank))`` over the
declared strategy order -- never over completion order -- so serial,
thread-backed, and process-backed runs of the same inputs pick the same
winner, with or without injected chaos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.arch.topology import Topology
from repro.errors import AllStrategiesFailed
from repro.graph.taskgraph import TaskGraph
from repro.mapper.dispatch import default_portfolio, get_strategy
from repro.mapper.mapping import Mapping, NotApplicableError
from repro.sim.model import CostModel
from repro.util import perf

__all__ = ["Candidate", "PortfolioResult", "run_portfolio"]


@dataclass
class Candidate:
    """One strategy's outcome inside a portfolio run.

    ``mapping`` is ``None`` when the strategy produced nothing:
    ``skipped`` holds the :class:`NotApplicableError` message when it was
    inapplicable, ``failed`` the supervision failure summary (timeout,
    worker crash, retries exhausted -- see ``error_kind``) when it died.
    """

    strategy: str
    mapping: Mapping | None = None
    completion_time: float = float("inf")
    skipped: str | None = None
    failed: str | None = None
    error_kind: str | None = None

    @property
    def ok(self) -> bool:
        """True when the strategy produced a mapping."""
        return self.mapping is not None


@dataclass
class PortfolioResult:
    """All candidates of one portfolio run plus the selected winner."""

    candidates: list[Candidate] = field(default_factory=list)
    best: Candidate | None = None

    @property
    def mapping(self) -> Mapping:
        """The winning mapping."""
        assert self.best is not None and self.best.mapping is not None
        return self.best.mapping

    @property
    def winner(self) -> str:
        """The winning strategy name."""
        assert self.best is not None
        return self.best.strategy

    @property
    def completion_time(self) -> float:
        """Simulated completion time of the winning mapping."""
        assert self.best is not None
        return self.best.completion_time

    def to_dict(self) -> dict:
        """JSON-compatible summary (the CLI's ``run --portfolio`` output)."""
        return {
            "winner": self.winner,
            "completion_time": self.completion_time,
            "candidates": [
                {
                    "strategy": c.strategy,
                    "ok": c.ok,
                    "completion_time": None if not c.ok else c.completion_time,
                    "skipped": c.skipped,
                    "failed": c.failed,
                    "error_kind": c.error_kind,
                }
                for c in self.candidates
            ],
        }


def split_strategy(strategy) -> tuple[str, bool]:
    """A portfolio entry ``"<name>"`` / ``"<name>+refine"`` as (name, refine).

    The name must be ``"auto"`` or in the strategy table; anything else raises
    :class:`ValueError`.
    """
    if not isinstance(strategy, str):
        raise ValueError(f"a strategy must be a string, got {strategy!r}")
    base, _, suffix = strategy.partition("+")
    if suffix not in ("", "refine"):
        raise ValueError(f"unknown strategy suffix {suffix!r} in {strategy!r}")
    if base != "auto":
        get_strategy(base)
    return base, suffix == "refine"


def _run_strategy(
    tg: TaskGraph,
    topology: Topology,
    strategy: str,
    model: CostModel,
    load_bound: int | None,
) -> Candidate:
    """Map + simulate one strategy; inapplicable strategies become skips.

    One uncached pipeline run per strategy (stages through ``simulate``):
    the portfolio's journal already records each strategy's candidate.
    """
    from repro.pipeline.config import DEFAULT_STAGES, MapConfig, RunConfig
    from repro.pipeline.engine import run_pipeline

    base, refine = split_strategy(strategy)
    config = RunConfig(
        map=MapConfig(strategy=base, load_bound=load_bound, refine=refine),
        sim=model,
        stages=DEFAULT_STAGES[:-1],  # no METRICS: the winner is by time
    )
    try:
        result = run_pipeline(tg, topology, config)
    except NotApplicableError as exc:
        return Candidate(strategy, skipped=str(exc))
    return Candidate(strategy, result.mapping, result.sim.total_time)


def _select_best(candidates: Sequence[Candidate]) -> Candidate:
    """The winner among survivors: min time, ties by strategy order.

    No survivor at all raises :class:`AllStrategiesFailed` when at least
    one strategy genuinely failed (a runtime problem), and
    :class:`NotApplicableError` when every strategy was merely
    inapplicable (an input problem).
    """
    viable = [
        (c.completion_time, rank, c)
        for rank, c in enumerate(candidates)
        if c.ok
    ]
    if not viable:
        summary = "; ".join(
            f"{c.strategy}: {c.failed or c.skipped}" for c in candidates
        )
        if any(c.failed for c in candidates):
            raise AllStrategiesFailed(
                f"no portfolio strategy survived: {summary}"
            )
        raise NotApplicableError(
            "no portfolio strategy produced a mapping: " + summary
        )
    return min(viable, key=lambda v: (v[0], v[1]))[2]


def _failure_kind(result) -> str:
    """The taxonomy label of a failed TaskResult (its last attempt)."""
    return result.attempts[-1].outcome if result.attempts else "exception"


def run_portfolio(
    tg: TaskGraph,
    topology: Topology,
    *,
    strategies: Sequence[str] | None = None,
    model: CostModel | None = None,
    load_bound: int | None = None,
    executor: str = "serial",
    max_workers: int | None = None,
    deadline: float | None = None,
    retry=None,
    chaos=None,
    resume: str = "off",
    cache=None,
) -> PortfolioResult:
    """Map one (graph, topology) pair with every strategy; keep the best.

    Parameters
    ----------
    strategies:
        Strategy names tried, in tie-break order (default:
        :func:`~repro.pipeline.default_portfolio`).
        ``"<base>+refine"`` enables the refinement post-passes on
        ``<base>``.
    executor:
        ``"serial"`` (default) runs strategies in-process; ``"thread"`` /
        ``"process"`` fan them out under the supervised runtime.  The
        winner is identical for every executor and worker count.
    max_workers:
        Concurrency bound for the parallel executors (default: one per
        strategy).
    deadline:
        Per-strategy wall-clock budget in seconds; a strategy that blows
        it becomes a failed candidate instead of stalling the portfolio.
    retry:
        A :class:`~repro.runtime.RetryPolicy` for crashed / transiently
        failing strategy workers (default: single attempt).
    chaos, resume, cache:
        See :func:`repro.runtime.run_supervised` / ``resume_journal``.
        *cache* holds the journal only (``None``: no journal); each
        strategy's own work runs uncached.
    """
    from repro.runtime import resume_journal, run_supervised

    if strategies is None:
        strategies = default_portfolio()
    strategies = tuple(strategies)
    if not strategies:
        raise ValueError("portfolio needs at least one strategy")
    model = model or CostModel()
    journal = resume_journal(resume, cache, lambda: {
        "kind": "portfolio-run",
        "task_graph": tg.fingerprint(),
        "topology": topology.fingerprint(),
        "strategies": list(strategies),
        "model": model.fingerprint_payload(),
        "load_bound": load_bound,
    })

    with perf.span("mapper.portfolio"):
        results = run_supervised(
            _portfolio_task,
            [(tg, topology, s, model, load_bound) for s in strategies],
            executor=executor,
            max_workers=len(strategies) if max_workers is None else max_workers,
            keys=strategies,
            deadline=deadline,
            retry=retry,
            chaos=chaos,
            journal=journal,
        )
        candidates = [
            r.value if r.ok else Candidate(
                strategy,
                failed=str(r.error),
                error_kind=_failure_kind(r),
            )
            for strategy, r in zip(strategies, results)
        ]
        best = _select_best(candidates)
    perf.count(f"mapper.portfolio.winner.{best.strategy}")
    return PortfolioResult(candidates, best)


def _portfolio_task(payload) -> Candidate:
    """Top-level worker (picklable for process pools)."""
    return _run_strategy(*payload)
