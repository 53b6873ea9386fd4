"""``run_pipeline`` -- the single execution path for every mapping run.

Every caller in the stack (``map_computation``, the portfolio, the
resilience layer, the CLI, the benchmarks) funnels through this function:
it executes the stage list a :class:`~repro.pipeline.RunConfig` declares,
times each stage, validates the result, and -- when its caller hands it
an :class:`~repro.pipeline.ArtifactCache` -- serves repeat runs from that
content-addressed store instead of recomputing them.  It reads no other
store: only the ``repro`` front doors pick the process default.

The cache key is a digest over the *content* of all four inputs
(``TaskGraph.fingerprint()``, ``Topology.fingerprint()``, optional
``FaultSet.fingerprint()``, ``RunConfig.fingerprint()``), so two
differently-constructed but equal instances share one entry, and any
semantic change -- a task weight, an edge, a dead link, a config knob --
misses cleanly.  Without a store no fingerprinting happens at all,
keeping ``map_computation``'s hot path free of hashing overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import Mapping
from repro.pipeline.cache import KEY_SCHEMA, ArtifactCache
from repro.pipeline.config import RunConfig
from repro.pipeline.stages import PipelineContext, get_stage
from repro.sim.engine import validated_by_simulate
from repro.util import perf
from repro.util.fingerprint import stable_digest

__all__ = ["PipelineResult", "cached_run", "run_pipeline", "pipeline_key"]

#: The ``repro run`` JSON output format tag.
RESULT_FORMAT = "oregami-pipeline-result-v1"


@dataclass
class PipelineResult:
    """Everything one pipeline run produced.

    ``sim``/``metrics``/``routing_rounds`` are ``None`` when the config's
    stage list skipped the producing stage.  ``cache_hit``/``cache_tier``
    describe how *this* result was obtained; ``stage_seconds`` always
    describes the original computation (it rides along on cache hits, so
    provenance of a served artifact is never lost).
    """

    mapping: Mapping
    config: RunConfig
    stages: tuple[str, ...]
    stage_seconds: dict[str, float] = field(default_factory=dict)
    strategy: str | None = None
    routing_rounds: int | None = None
    sim: Any | None = None
    metrics: Any | None = None
    fingerprints: dict[str, str] = field(default_factory=dict)
    cache_key: str | None = None
    cache_hit: bool = False
    cache_tier: str | None = None

    @property
    def completion_time(self) -> float | None:
        """Simulated completion time (``None`` without a simulate stage)."""
        return self.sim.total_time if self.sim is not None else None

    def to_dict(self) -> dict:
        """A JSON-compatible dict (the ``repro run`` output format)."""
        from repro import io
        from repro.metrics.analysis import metrics_to_dict

        sim_summary = None
        if self.sim is not None:
            sim_summary = {
                "total_time": self.sim.total_time,
                "steps": len(self.sim.step_times),
                "messages": self.sim.messages,
            }
        return {
            "format": RESULT_FORMAT,
            "config": self.config.to_dict(),
            "stages": list(self.stages),
            "stage_seconds": dict(self.stage_seconds),
            "strategy": self.strategy,
            "routing_rounds": self.routing_rounds,
            "fingerprints": dict(self.fingerprints),
            "cache": {
                "key": self.cache_key,
                "hit": self.cache_hit,
                "tier": self.cache_tier,
            },
            "mapping": io.mapping_to_dict(self.mapping),
            "sim": sim_summary,
            "metrics": (
                metrics_to_dict(self.metrics, self.mapping)
                if self.metrics is not None
                else None
            ),
        }


def pipeline_key(
    tg: TaskGraph,
    topology: Topology,
    config: RunConfig,
    faults=None,
) -> tuple[str, dict[str, str]]:
    """The cache key for a run, plus the per-input fingerprints.

    Content-addressed: equal content gives equal keys in every process
    under every ``PYTHONHASHSEED``, which is what makes the disk tier
    shareable across runs and machines.
    """
    fingerprints = {
        "task_graph": tg.fingerprint(),
        "topology": topology.fingerprint(),
        "config": config.fingerprint(),
    }
    if faults is not None:
        fingerprints["faults"] = faults.fingerprint()
    key = stable_digest({
        "kind": "pipeline-run",
        "schema": KEY_SCHEMA,
        **fingerprints,
        "faults": fingerprints.get("faults"),
    })
    return key, fingerprints


def run_pipeline(
    tg: TaskGraph,
    topology: Topology,
    config: RunConfig | None = None,
    *,
    faults=None,
    cache: ArtifactCache | None = None,
) -> PipelineResult:
    """Execute one staged mapping run, or serve it from *cache*.

    Parameters
    ----------
    tg, topology:
        The instance to map.  With *faults*, the run targets
        ``topology.degrade(faults)`` and the fault set joins the cache
        key, so pristine and degraded runs never collide.
    config:
        The :class:`RunConfig` (defaults to a full-pipeline default run).
    cache:
        The one :class:`ArtifactCache` this run reads and writes.
        ``None`` (default) means none: the run is computed and nothing is
        stored, whatever ``config.cache`` says -- that flag is read by the
        front doors that pick a store (``repro run``, ``/v1/map``).

    Returns
    -------
    A :class:`PipelineResult`.  A cache hit is decoded afresh from the
    stored bytes, so every part of it is safe to mutate;
    ``cache_hit``/``cache_tier`` say where it came from.
    """
    config = config if config is not None else RunConfig()
    return cached_run(
        cache, tg, topology, config,
        lambda: _execute(tg, topology, config, faults), faults=faults,
    )


def cached_run(
    cache: ArtifactCache | None,
    tg: TaskGraph,
    topology: Topology,
    config: RunConfig,
    compute,
    *,
    faults=None,
) -> PipelineResult:
    """The run's result from *cache*, or from *compute* and then stored.

    *compute* returns the uncached :class:`PipelineResult` of the same
    run, here or in a supervised worker (``repro run --deadline``): the
    store stays with the caller that holds it, under every executor.
    """
    if cache is None:
        return compute()
    key, fingerprints = pipeline_key(tg, topology, config, faults)
    hit = cache.get(key)
    if hit is not None:
        # Decoded afresh from the stored bytes: the caller owns all of it.
        result, tier = hit
        result.cache_hit, result.cache_tier = True, tier
        return result
    result = compute()
    result.fingerprints, result.cache_key = fingerprints, key
    # put pickles the result: the caller owns the returned object.
    cache.put(key, result)
    return result


def _execute(tg, topology, config, faults) -> PipelineResult:
    if faults is not None and not faults.is_empty:
        topology = topology.degrade(faults)
    with perf.span("pipeline.run"):
        tg.validate()
        ctx = PipelineContext(tg=tg, topology=topology, config=config)
        stage_seconds: dict[str, float] = {}
        executed: list[str] = []
        for name in config.stages:
            stage = get_stage(name)
            missing = [r for r in stage.requires if getattr(ctx, r) is None]
            if missing:
                raise ValueError(
                    f"stage {name!r} requires {missing!r} but no earlier "
                    f"stage produced them; stage order was {config.stages!r}"
                )
            with perf.span(f"pipeline.{name}"):
                start = time.perf_counter()
                stage.run(ctx)
                stage_seconds[name] = time.perf_counter() - start
            executed.append(name)
        if ctx.mapping is None:
            raise ValueError(
                f"stage list {config.stages!r} never built a mapping "
                f"(include 'contract' and 'embed')"
            )
        # The simulate stage validated the mapping it ran -- routes required,
        # capacities checked -- a few ms ago; the closing walk is for a
        # mapping no simulate stage vouches for.
        if not ("simulate" in executed and validated_by_simulate(ctx.mapping)):
            ctx.mapping.validate(require_routes="route" in executed)
    return PipelineResult(
        mapping=ctx.mapping,
        config=config,
        stages=tuple(executed),
        stage_seconds=stage_seconds,
        strategy=ctx.provenance,
        routing_rounds=ctx.routing_rounds,
        sim=ctx.sim,
        metrics=ctx.metrics,
    )


def pipeline_task(payload) -> PipelineResult:
    """The supervised worker: one ``(tg, topology, config[, faults])`` run.

    Module-level, so the process executor can pickle it.  It is also the
    batch API: ``run_supervised(pipeline_task, [(tg, topology, config), ...])``
    returns one :class:`repro.runtime.TaskResult` per instance in input
    order, and a hung or broken instance fails alone.  ``repro run
    --deadline`` and a cold ``/v1/map`` request make that call with one
    instance; ``journal=resume_journal("auto", cache, run_key)`` makes it
    resumable.
    The worker holds no store: its caller looks the run up and records it.
    """
    tg, topology, config, *faults = payload
    return run_pipeline(tg, topology, config, faults=faults[0] if faults else None)
