"""``online_churn``: a mapping session kept healthy under an event stream.

In-process ``MappingSession`` on jacobi8x8 / hypercube:5 with the default
``SessionConfig``: it checkpoints after every event into a temporary
``ArtifactCache``, and the process-default cache is off.  One operation is
one ``session.apply(event)``; the run applies the 1000 events of
``generate_scenario(seed)`` once each, in one session.  Afterwards the
served mapping's ``comm_cost`` is compared with a from-scratch
``map_computation`` of the final graph on the final machine.

The reaction path and the synchronous remap portfolio split the wall time
roughly evenly: some 3-4% of the events trigger a remap, and 1000 events
leave ten samples beyond the 99th percentile.

This workload is sized in events, not in seconds.  A session's events get
slower as it ages (the graph grows and every checkpoint holds the whole
trace), so a session cut off by the clock would hold a different mix of
cheap and dear events on a faster program, and its median would not
compare.  No event is replayed: the program memoizes distance matrices by
machine structure process-wide, so a second play would find every fault's
matrix already computed, which a real session never does.
"""

from __future__ import annotations

import os
import shutil
import time

from benchmarks.layered import checks
from benchmarks.layered.harness import Tracer, median, peak_rss_mb
from benchmarks.layered.workloads.common import (
    Context,
    Outcome,
    finish,
    latency_metrics,
    repeated_setup,
)

EVENTS = 1000
_KINDS = ("arrival", "departure", "drift", "fault", "recovery")


class _TimedCache:
    """The cache surface a session checkpoints through, with each ``put``
    recorded as a span (traced runs only)."""

    def __init__(self, cache, tracer: Tracer):
        self._cache = cache
        self._tracer = tracer

    def get(self, key, **kwargs):
        return self._cache.get(key, **kwargs)

    def put(self, key, value):
        with self._tracer.span("online.checkpoint"):
            self._cache.put(key, value)


def run(ctx: Context) -> Outcome:
    """Runs with the process-default cache off: a session's remap portfolio
    goes through ``run_pipeline``, and a default cache left by an earlier
    run would answer it."""
    from repro.pipeline import reset_default_cache

    previous = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "off"
    reset_default_cache()
    try:
        return _run(ctx)
    finally:
        if previous is None:
            del os.environ["REPRO_CACHE"]
        else:
            os.environ["REPRO_CACHE"] = previous
        reset_default_cache()


def _run(ctx: Context) -> Outcome:
    from repro.arch import networks
    from repro.larcs import stdlib
    from repro.mapper import map_computation
    from repro.metrics import comm_cost
    from repro.online import MappingSession, generate_scenario
    from repro.pipeline import ArtifactCache
    from repro.sim import simulate

    out = Outcome()
    tracer = Tracer() if ctx.trace else None
    n_events = 40 if ctx.smoke else EVENTS

    def open_session(tg, topology, *, traced=False):
        directory = ctx.tmp.fresh("journal")
        cache = ArtifactCache(directory)
        if traced:
            cache = _TimedCache(cache, tracer)
        return MappingSession(tg, topology, cache=cache), directory

    def build():
        tg = stdlib.load("jacobi", rows=8, cols=8)
        topology = networks.hypercube(5)
        topology.distance_matrix()
        scenario = generate_scenario(tg, topology, seed=ctx.seed, n_events=n_events)
        session, directory = open_session(tg, topology, traced=tracer is not None)
        return tg, topology, scenario, session, directory

    (tg, topology, scenario, session, directory), build_s = repeated_setup(
        build, lambda state: shutil.rmtree(state[4], ignore_errors=True),
        once=ctx.smoke)
    out.e2e["setup_s"] = build_s

    # Warm-up: a few events through a throwaway session on another
    # machine, so lazy imports and first-call costs are paid before timing
    # and no matrix of the measured machine is computed ahead of its fault.
    warm_start = time.perf_counter()
    other = networks.hypercube(4)
    warm, warm_dir = open_session(tg, other)
    for event in generate_scenario(tg, other, seed=ctx.seed, n_events=30).events:
        warm.apply(event)
    shutil.rmtree(warm_dir, ignore_errors=True)
    out.extras["warmup_s"] = time.perf_counter() - warm_start

    # Quality of the mapping a session serves before any event: the same
    # instance at every seed, so it repeats exactly.
    out.e2e["comm_cost_geomean"] = comm_cost(session.mapping)
    out.e2e["completion_time_geomean"] = simulate(session.mapping).total_time

    op_seconds = []
    for n, event in enumerate(scenario.events):
        if tracer is None:
            start = time.perf_counter()
            session.apply(event)
            took = time.perf_counter() - start
        else:
            tracer.op = n
            start = time.perf_counter()
            with tracer.span("op"):
                with tracer.span("online.apply"):
                    session.apply(event)
            took = time.perf_counter() - start
        op_seconds.append(took)
    out.attempted += len(op_seconds)
    rss_mb = peak_rss_mb()
    shutil.rmtree(directory, ignore_errors=True)

    by_kind = {kind: [] for kind in _KINDS}
    remap_seconds, faults, incremental = [], 0, 0
    for took, record in zip(op_seconds, session.trace):
        if record.remap is not None:
            remap_seconds.append(took)
        else:
            by_kind[record.kind].append(took)
        if record.kind == "fault":
            faults += 1
            incremental += "incremental" in record.action

    served = session.mapping
    problems = checks.check_mapping(checks.from_mapping(served))
    if problems:
        out.fail(f"served mapping: {problems[0]}", len(op_seconds))
    oracle = map_computation(served.task_graph, served.topology)
    out.e2e["cost_vs_oracle"] = comm_cost(served) / comm_cost(oracle)
    fingerprint = session.trace_fingerprint()
    out.instances.append({
        "instance": f"scenario(seed={ctx.seed})", "tasks": served.task_graph.n_tasks,
        "remaps": len(remap_seconds), "cost_vs_oracle": out.e2e["cost_vs_oracle"],
        "trace_fingerprint": fingerprint,
    })

    # One "instance" per kind of work: the five reactions and the remap.
    typical = {kind: median(times) for kind, times in by_kind.items() if times}
    if remap_seconds:
        typical["remap"] = median(remap_seconds)
    latency_metrics(out, op_seconds, typical)
    out.extras.update({
        "events": len(op_seconds), "remaps": len(remap_seconds),
        "trace_fingerprints": [fingerprint],
        "remap_time_share": sum(remap_seconds) / sum(op_seconds),
    })
    out.isolation[">= 10 remaps"] = len(remap_seconds) >= 10
    out.isolation[">= 10 samples beyond p99"] = out.extras["samples_beyond_p99"] >= 10

    if tracer is not None:
        totals = tracer.totals()
        for kind in _KINDS:
            out.per_layer[f"online.apply_ms.{kind}"] = typical.get(kind, 0.0) * 1e3
        checkpoint = totals.get("online.checkpoint", {"calls": 0, "total_s": 0.0})
        out.per_layer.update({
            "online.remap_ms": typical.get("remap", 0.0) * 1e3,
            "online.remap_count": len(remap_seconds),
            "online.swap_count": session.counters.get("swaps", 0),
            "online.remap_time_share": out.extras["remap_time_share"],
            "online.checkpoint_ms": (
                checkpoint["total_s"] / checkpoint["calls"] * 1e3
                if checkpoint["calls"] else 0.0),
            "online.incremental_repair_share": incremental / faults if faults else 0.0,
        })
        out.extras["span_coverage"] = tracer.coverage("op")
        out.extras["checkpoint_time_share"] = (
            checkpoint["total_s"] / totals["online.apply"]["total_s"])
        out.tracer = tracer
    return finish(out, rss_mb)
