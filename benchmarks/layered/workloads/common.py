"""What every workload shares: the run context, the outcome record, the
repeated set-up, and the one pipeline operation (plain and traced)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from benchmarks.layered import checks
from benchmarks.layered.harness import (
    TempRoot,
    Tracer,
    geomean,
    median,
    percentile,
    samples_beyond,
)

#: Set-up is repeated until it has taken this long in total, or this often.
_SETUP_BUDGET_S = 2.0
_SETUP_MOST = 9


@dataclass
class Context:
    """One run's arguments."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tmp: TempRoot
    #: A cut-down instance set for the harness self-tests: the same code
    #: paths in a second or two, with no claim that the numbers mean much.
    smoke: bool = False


@dataclass
class Outcome:
    """What one run of one workload measured."""

    e2e: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)     # first few messages
    isolation: dict = field(default_factory=dict)    # claim -> bool
    instances: list = field(default_factory=list)    # one row per instance
    extras: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    tracer: Tracer | None = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(message)


def repeated_setup(build, teardown=None, *, once=False):
    """Run *build* several times (see the budget above; at least once);
    returns ``(the last state, the median of the builds' seconds)``.
    *teardown* releases a state that is about to be rebuilt."""
    times, state = [], None
    while True:
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
        if once or len(times) >= _SETUP_MOST or sum(times) >= _SETUP_BUDGET_S:
            return state, median(times)
        if teardown is not None:
            teardown(state)


def topology_from_spec(spec: str):
    """``mesh:4x4`` -> ``repro.arch.networks.mesh(4, 4)``."""
    from repro.arch import networks

    name, _, params = spec.partition(":")
    return getattr(networks, name)(*(int(p) for p in params.split("x")))


def with_distances(topology):
    """*topology* with its distance matrix computed (set-up work)."""
    topology.distance_matrix()
    return topology


def fingerprint_probes(probes, tg, topology) -> None:
    """First-call times of the content fingerprints and the cache key on
    objects fresh from set-up (both fingerprints memoize)."""
    from repro.pipeline import RunConfig, pipeline_key

    probes.time("graph.fingerprint_ms", tg.fingerprint)
    probes.time("arch.fingerprint_ms", topology.fingerprint)
    probes.time("pipeline.key_ms", lambda: pipeline_key(tg, topology, RunConfig()))


def quality_metrics(out: Outcome) -> None:
    """The two quality metrics from the instance rows."""
    out.e2e["comm_cost_geomean"] = geomean(r["comm_cost"] for r in out.instances)
    out.e2e["completion_time_geomean"] = geomean(
        r["completion_time"] for r in out.instances)


def span_coverage_claim(out: Outcome, tracer: Tracer) -> None:
    """Child spans must account for an operation's time."""
    out.extras["span_coverage"] = tracer.coverage("op")
    out.isolation["child spans cover >= 95% of each op"] = (
        out.extras["span_coverage"] >= 0.95)
    out.tracer = tracer


def best_of(samples_by_instance: dict) -> dict:
    """Each instance's fastest observation: what ``timeit`` recommends for
    deterministic work, and on a shared host the one reading per instance
    that bursts of slowness do not reach."""
    return {key: min(times) for key, times in samples_by_instance.items() if times}


def latency_metrics(out: Outcome, op_seconds: list, per_instance: dict) -> None:
    """The timing metrics of a closed loop on one thread, as it ran:
    operations per second of the time spent in them, the median and the
    tail over every operation.  *per_instance* maps each distinct instance
    to the one time that stands for it (``instance_geomean_ms``)."""
    ms = [s * 1e3 for s in op_seconds]
    out.e2e["throughput_ops_s"] = len(op_seconds) / sum(op_seconds)
    out.e2e["latency_p50_ms"] = median(ms)
    out.e2e["latency_p99_ms"] = percentile(ms, 99)
    out.e2e["instance_geomean_ms"] = geomean(per_instance.values()) * 1e3
    out.extras.update({
        "ops": len(op_seconds),
        "timed_s": sum(op_seconds),
        "samples_beyond_p99": samples_beyond(len(ms), 99),
        "latency_p95_ms": percentile(ms, 95),
    })


def finish(out: Outcome, rss_mb: float) -> Outcome:
    """*rss_mb* is a ``VmHWM`` the workload read after a fixed amount of
    work: the program keeps every mapping it ever simulated alive, so its
    memory grows with the number of operations, and a reading taken when
    the time is up would measure the host's speed."""
    out.e2e["peak_rss_mb"] = rss_mb
    out.e2e["failed_share"] = out.failed / max(out.attempted, 1)
    return out


# ----------------------------------------------------------------------
# the pipeline operation
# ----------------------------------------------------------------------

@dataclass
class PipelineOutput:
    """The fields of one pipeline run the benchmark reads."""

    mapping: object
    sim: object
    strategy: str
    stage_seconds: dict
    route_rounds: int
    refine_moves: float

    @property
    def total_time(self) -> float:
        return self.sim.total_time


def _rounds(routing_rounds) -> int:
    if isinstance(routing_rounds, dict):
        return sum(len(v) for v in routing_rounds.values())
    return int(routing_rounds or 0)


def _refine_moves(mapping) -> float:
    return float((getattr(mapping, "map_stats", None) or {}).get("map.refine_moves", 0))


def pipeline_plain(tg, topology, config) -> PipelineOutput:
    """The operation as a user runs it: one ``run_pipeline`` call."""
    from repro.pipeline import run_pipeline

    result = run_pipeline(tg, topology, config)
    return PipelineOutput(
        result.mapping, result.sim, result.strategy,
        dict(result.stage_seconds), _rounds(result.routing_rounds),
        _refine_moves(result.mapping),
    )


def pipeline_traced(tracer: Tracer, tg, topology, config) -> PipelineOutput:
    """The same operation as a stage loop, one span per stage."""
    from repro.pipeline import PipelineContext, get_stage

    with tracer.span("pipeline.validate"):
        tg.validate()
    ctx = PipelineContext(tg=tg, topology=topology, config=config)
    stage_seconds = {}
    for name in config.stages:
        stage = get_stage(name)
        row = len(tracer.rows)
        with tracer.span(f"pipeline.{name}"):
            stage.run(ctx)
        stage_seconds[name] = tracer.rows[row][2] - tracer.rows[row][1]
    with tracer.span("pipeline.validate"):
        ctx.mapping.validate(require_routes=True)
    return PipelineOutput(
        ctx.mapping, ctx.sim, ctx.provenance, stage_seconds,
        _rounds(ctx.routing_rounds), _refine_moves(ctx.mapping),
    )


def check_pipeline_output(output: PipelineOutput, config) -> list[str]:
    """The independent checks on one pipeline run."""
    sim_cfg = config.sim
    return checks.check_mapping(
        checks.from_mapping(output.mapping),
        output.total_time,
        output.sim.phase_time,
        hop_latency=sim_cfg.hop_latency, byte_time=sim_cfg.byte_time,
        switching=sim_cfg.switching,
    )


def reference_rows(out: Outcome, labels, reference, configs) -> None:
    """Check each instance's first result independently and record its
    row and the quality metrics."""
    from repro.metrics import comm_cost

    for label, ref, config in zip(labels, reference, configs):
        problems = check_pipeline_output(ref, config)
        out.attempted += 1
        if problems:
            out.fail(f"{label}: {problems[0]}")
        out.instances.append({
            "instance": label, "tasks": ref.mapping.task_graph.n_tasks,
            "strategy": ref.strategy, "comm_cost": comm_cost(ref.mapping),
            "completion_time": ref.total_time,
        })
    quality_metrics(out)


def same_output(output: PipelineOutput, reference: PipelineOutput) -> bool:
    """Same assignment and the same simulated completion time.  The
    compared output then lets go of its mapping and simulation, so that a
    run's memory does not grow with the number of operations."""
    same = (output.mapping.assignment == reference.mapping.assignment
            and output.total_time == reference.total_time)
    output.mapping = output.sim = None
    return same


def pipeline_layer_metrics(out: Outcome, records: list) -> None:
    """Per-layer numbers of the ``pipeline`` and ``mapper`` layers.

    *records* holds one ``(instance, PipelineOutput)`` per operation.  A
    stage's number is its mean over every operation as it ran, so the
    stages (with compile, validation and overhead) add up to the mean
    operation, ``1000 / throughput_ops_s``.
    """
    ops = len(records)
    strategy = {i: output.strategy for i, output in records}

    def mean_ms(stage, among=None):
        took = [o.stage_seconds.get(stage, 0.0) for i, o in records
                if among is None or strategy[i] == among]
        return sum(took) / len(took) * 1e3 if took else 0.0

    for stage in ("contract", "embed", "refine", "route", "simulate", "analyze"):
        out.per_layer[f"pipeline.{stage}_ms"] = mean_ms(stage)
    for name in ("canned", "group", "mwm", "multilevel"):
        out.per_layer[f"mapper.contract_ms.{name}"] = mean_ms("contract", name)
        out.per_layer[f"mapper.strategy_count.{name}"] = sum(
            1 for s in strategy.values() if s == name)
    out.per_layer["mapper.route_rounds"] = sum(o.route_rounds for _i, o in records) / ops
    out.per_layer["mapper.refine_moves"] = sum(o.refine_moves for _i, o in records) / ops
    total = sum(sum(o.stage_seconds.values()) for _i, o in records)

    def share(*stages):
        return sum(o.stage_seconds.get(st, 0.0) for _i, o in records for st in stages) / total

    out.extras["contract_share"] = share("contract")
    out.extras["sim_metrics_share"] = share("simulate", "analyze")


def traced_pipeline_metrics(out: Outcome, tracer: Tracer, overhead: list,
                            ops: int) -> None:
    """What only the traced stage loop and the first plain runs can tell:
    validation time, and ``run_pipeline``'s wall minus its stages."""
    validate = tracer.totals()["pipeline.validate"]["total_s"]
    out.per_layer["pipeline.validate_ms"] = validate / ops * 1e3
    out.per_layer["pipeline.overhead_ms"] = sum(overhead) / len(overhead) * 1e3
    span_coverage_claim(out, tracer)
