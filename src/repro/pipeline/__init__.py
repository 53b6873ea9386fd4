"""The staged mapping pipeline: typed configs, stages, cache, engine.

This package is the single execution path for every mapping run in the
stack.  The legacy entry points (:func:`repro.mapper.map_computation`,
the portfolio, the resilience layer, the CLI) are thin shims over
:func:`run_pipeline`, which executes the stage list a :class:`RunConfig`
declares and serves repeat runs from the content-addressed artifact cache
its caller hands it, if any (see :mod:`repro.pipeline.cache` for the
store and ``docs/architecture.md`` for the full picture).

>>> from repro.graph import families
>>> from repro.arch import networks
>>> from repro.pipeline import run_pipeline, RunConfig, MapConfig
>>> result = run_pipeline(
...     families.ring(16), networks.hypercube(3),
...     RunConfig(map=MapConfig(strategy="auto")),
... )
>>> result.strategy, result.sim.total_time  # doctest: +SKIP
('canned', 34.0)
"""

from repro.mapper.dispatch import (
    Contraction,
    MappingStrategy,
    default_portfolio,
    get_strategy,
    strategy_names,
)
from repro.pipeline.cache import (
    ArtifactCache,
    cache_dir,
    default_cache,
    reset_default_cache,
)
from repro.pipeline.config import (
    DEFAULT_STAGES,
    MapConfig,
    RunConfig,
    SimConfig,
)
from repro.pipeline.engine import (
    PipelineResult,
    pipeline_key,
    run_pipeline,
)
from repro.pipeline.stages import (
    PipelineContext,
    Stage,
    all_stages,
    get_stage,
    stage_names,
)

__all__ = [
    "MapConfig",
    "SimConfig",
    "RunConfig",
    "DEFAULT_STAGES",
    "run_pipeline",
    "PipelineResult",
    "pipeline_key",
    "ArtifactCache",
    "default_cache",
    "reset_default_cache",
    "cache_dir",
    "Stage",
    "PipelineContext",
    "Contraction",
    "MappingStrategy",
    "get_stage",
    "get_strategy",
    "stage_names",
    "strategy_names",
    "all_stages",
    "default_portfolio",
]
