#!/usr/bin/env python
"""Benchmark runner: measures the pipeline's hot paths and emits a trajectory
JSON (``BENCH_PR<n>.json``) that future PRs regress against.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [-o BENCH_PR6.json]
    PYTHONPATH=src python benchmarks/run_bench.py --quick --check BENCH_PR6.json

Measured sections
-----------------
* ``sim_micro``   -- the repeated-phase microbenchmark (jacobi 8x8, the
  compute/comm sweep repeated 100x).
* ``e2e``         -- map_computation + simulate wall-clock on the paper's
  benchmark workloads (nbody63, jacobi8x8, fft64).
* ``contraction`` -- MWM-Contract on the n-body 63-task graph and a scaled
  community graph (256 tasks / 64 clusters).
* ``embed``       -- NN-Embed, 256 singleton clusters onto a 16x16 torus.
* ``route``       -- MM-Route on a scattered fft64/hypercube4 workload.
* ``metrics``     -- METRICS analyze (simulation excluded via ``sim=``).
* ``portfolio``   -- ``map_many`` over 8 (graph, topology) pairs: 4-worker
  process pool vs. sequential, with winner-determinism checked.
* ``cache``       -- cold vs. warm ``run_pipeline`` on jacobi8x8 against
  an explicit tempdir :class:`~repro.pipeline.ArtifactCache`: the memory-
  and disk-tier hit latencies vs. a full pipeline run (PR 4 headline).
* ``runtime``     -- the supervised runtime (PR 5): per-task supervision
  overhead vs. a bare loop, a chaos-injected failure sweep (crashes +
  transients with retries) vs. its clean run, and checkpoint-resume
  (cold sweep vs. journal-served re-invocation).
* ``mapping_scale`` -- the PR 7 headline: the multilevel strategy
  (CSR coarsening + vectorized delta-gain uncoarsening) against the
  BFS-block baseline -- and, at the kilotask size where it is still
  tractable, MWM-Contract with and without refinement -- on 1k/10k/100k
  task graphs, recording wall-clock and aggregate comm cost for each.
* ``machines``    -- the PR 9 headline: the multilevel strategy on a
  two-level fat tree (10k tasks, 256 processors) vs. the flat torus of
  the same size, and a capacity-tight node x core cluster where the
  capacity-aware mapper must land feasible while the scalar-bound
  escape hatch (``capacity_mode="ignore"``) overflows.
* ``serving``     -- the PR 8 headline: a real ``repro serve`` subprocess
  under a concurrent ``repro.serve.loadgen`` stream -- cold computes vs.
  warm cache hits (p50/p99/throughput), repeat-burst bit-determinism, a
  thundering herd that must compute exactly once, and a graceful drain.
* ``online``      -- the PR 10 headline: the continuous-operation
  mapping session under event churn -- steady-state per-event reaction
  latency (p50/p99) over a mixed seeded stream, and final quality vs. a
  from-scratch remap oracle at three churn intensities.
* ``perf_spans``  -- the repro.util.perf span totals recorded while the
  suite ran, so per-stage attribution lands in the trajectory too.

The process-wide default artifact cache is switched off for the whole run
(``REPRO_CACHE=off``): every legacy section must measure real mapping
work, never a content-addressed hit.  Only the ``cache`` section caches,
through its own explicit temporary-directory store.

All timings are best-of-N wall-clock seconds (N=5 for sub-10ms items;
``--quick`` drops to N=1 for the CI smoke job).

``--check BASELINE.json`` compares every ``*_s`` timing against the
committed baseline and exits non-zero when any stage regresses more than
``--max-regression`` (default 3x) -- the CI guard against silent
performance regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path

from repro.arch import networks
from repro.graph import families
from repro.graph.phase_expr import Rep
from repro.graph.taskgraph import TaskGraph
from repro.larcs import stdlib
from repro.mapper import map_computation, map_many
from repro.mapper.contraction import mwm_contract
from repro.mapper.embedding.nn_embed import assignment_from_clusters, nn_embed
from repro.mapper.routing.mm_route import mm_route
from repro.metrics.analysis import analyze
from repro.pipeline import (
    ArtifactCache,
    MapConfig,
    RunConfig,
    SimConfig,
    run_pipeline,
)
from repro.pipeline.cache import reset_default_cache
from repro.sim import CostModel, simulate
from repro.util import perf

MODEL = CostModel(hop_latency=1.0, byte_time=0.5, exec_time=0.05)

WORKLOADS = [
    ("nbody63", lambda: families.nbody(63, volume=4.0),
     lambda: networks.hypercube(4)),
    ("jacobi8x8", lambda: stdlib.load("jacobi", rows=8, cols=8, msize=4),
     lambda: networks.mesh(4, 4)),
    ("fft64", lambda: stdlib.load("fft", m=6, msize=4),
     lambda: networks.hypercube(4)),
]

#: (graph, topology) batch for the portfolio benchmark -- 8 mixed pairs.
PORTFOLIO_PAIRS = [
    ("nbody63/hcube4", lambda: families.nbody(63, volume=4.0),
     lambda: networks.hypercube(4)),
    ("jacobi8x8/mesh4x4", lambda: stdlib.load("jacobi", rows=8, cols=8, msize=4),
     lambda: networks.mesh(4, 4)),
    ("fft64/hcube4", lambda: stdlib.load("fft", m=6, msize=4),
     lambda: networks.hypercube(4)),
    ("ring64/hcube4", lambda: families.ring(64),
     lambda: networks.hypercube(4)),
    ("torus8x8/mesh4x4", lambda: families.torus(8, 8),
     lambda: networks.mesh(4, 4)),
    ("hcube6/hcube4", lambda: families.hypercube(6),
     lambda: networks.hypercube(4)),
    ("btree5/mesh4x4", lambda: families.binomial_tree(5),
     lambda: networks.mesh(4, 4)),
    ("butterfly32/hcube4", lambda: families.fft_butterfly(32),
     lambda: networks.hypercube(4)),
]

REPEATS = 5


def best_of(fn, repeats: int | None = None) -> float:
    times = []
    for _ in range(repeats or REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def communities(p: int) -> TaskGraph:
    """p heavy 4-task communities in a light ring (Fig 5's pattern scaled)."""
    n = 4 * p
    tg = TaskGraph(f"communities{n}")
    tg.add_nodes(range(n))
    ph = tg.add_comm_phase("comm")
    for c in range(p):
        base = 4 * c
        ph.add(base, base + 1, 20.0)
        ph.add(base + 2, base + 3, 18.0)
        ph.add(base + 1, base + 2, 15.0)
        ph.add((base + 3) % n, (base + 4) % n, 2.0)
    return tg


def bench_sim_micro() -> dict:
    tg = stdlib.load("jacobi", rows=8, cols=8, msize=4)
    tg.phase_expr = Rep(tg.phase_expr, 100)
    mapping = map_computation(tg, networks.mesh(4, 4))
    return {
        "workload": "jacobi8x8_x100",
        "memoized_s": best_of(lambda: simulate(mapping, MODEL)),
    }


def bench_e2e() -> dict:
    out = {}
    for name, tg_fn, topo_fn in WORKLOADS:
        tg, topo = tg_fn(), topo_fn()
        out[name] = {
            "map_s": best_of(lambda: map_computation(tg, topo), 3),
        }
        mapping = map_computation(tg, topo)
        out[name]["simulate_s"] = best_of(lambda: simulate(mapping, MODEL), 3)
        out[name]["total_time"] = simulate(mapping, MODEL).total_time
    return out


def bench_contraction() -> dict:
    nbody = families.nbody(63, volume=4.0)
    big = communities(64)
    # Warm each graph's cached static view (the CSR bundle) so the
    # timings measure the matching itself, not one-off cache builds --
    # with --quick's single repeat a cold first call would dominate.
    mwm_contract(nbody, 16)
    mwm_contract(big, 64, load_bound=4)
    return {
        "mwm_nbody63_p16_s": best_of(lambda: mwm_contract(nbody, 16)),
        "mwm_communities256_p64_s": best_of(
            lambda: mwm_contract(big, 64, load_bound=4), 3
        ),
    }


def bench_embed() -> dict:
    """The PR 2 headline: 256 clusters onto a 256-processor torus."""
    tg = families.torus(16, 16)
    topo = networks.torus(16, 16)
    clusters = [[t] for t in tg.nodes]
    nn_embed(tg, clusters, topo)  # warm the distance-matrix cache
    return {
        "workload": "torus16x16_256clusters",
        "vector_s": best_of(lambda: nn_embed(tg, clusters, topo), 3),
    }


def bench_route() -> dict:
    """MM-Route on a contended scatter."""
    tg = stdlib.load("fft", m=6, msize=4)
    topo = networks.hypercube(4)
    # A deliberately poor round-robin scatter maximises routing work.
    assignment = {t: i % topo.n_processors for i, t in enumerate(tg.nodes)}
    mm_route(tg, topo, assignment)  # warm the next-hop tables
    return {
        "workload": "fft64_scattered_hcube4",
        "table_s": best_of(lambda: mm_route(tg, topo, assignment), 3),
    }


def bench_metrics() -> dict:
    """METRICS link accumulation (simulation excluded).

    A 256-task torus scattered round-robin over a 64-processor hypercube:
    1024 edges with multi-hop routes, so per-link accumulation dominates.
    """
    from repro.mapper.mapping import Mapping
    from repro.mapper.routing.mm_route import mm_route

    tg = families.torus(16, 16)
    topo = networks.hypercube(6)
    assignment = {t: i % topo.n_processors for i, t in enumerate(tg.nodes)}
    mapping = Mapping(tg, topo, assignment, mm_route(tg, topo, assignment).routes)
    sim = simulate(mapping, MODEL)
    return {
        "workload": "torus16x16_scattered_hcube6",
        "vector_s": best_of(lambda: analyze(mapping, MODEL, sim=sim), 3),
    }


def bench_portfolio() -> dict:
    """map_many over 8 pairs: 4-worker process pool vs. sequential.

    The speedup scales with available cores (recorded in ``meta``); a
    warm-up pass fills every topology/graph cache first so both timed runs
    see identical state.
    """
    pairs = [(tg_fn(), topo_fn()) for _, tg_fn, topo_fn in PORTFOLIO_PAIRS]
    map_many(pairs, model=MODEL, executor="serial")  # warm all caches

    start = time.perf_counter()
    serial = map_many(pairs, model=MODEL, executor="serial")
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = map_many(pairs, model=MODEL, executor="process", max_workers=4)
    parallel_s = time.perf_counter() - start

    deterministic = [r.winner for r in serial] == [
        r.winner for r in parallel
    ] and [r.completion_time for r in serial] == [
        r.completion_time for r in parallel
    ]
    out = {
        "pairs": [name for name, _, _ in PORTFOLIO_PAIRS],
        "workers": 4,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "winners": [r.winner for r in serial],
        "deterministic": deterministic,
    }
    if (os.cpu_count() or 1) <= 1:
        out["note"] = (
            "single-core host: the pool time-slices one CPU, so the "
            "measured speedup is bounded by pool overhead; the win "
            "materialises with cores (workers are fully independent)"
        )
    return out


def bench_resilience() -> dict:
    """Incremental repair vs. full remap, and sweep throughput (PR 3).

    A jacobi-style 8x8 stencil on the 64-processor hypercube with 1-4
    failed processors: the incremental path relocates only the stranded
    tasks and re-routes only the affected edges, so it should beat a full
    ``map_computation`` on the degraded machine.  The sweep injects all 64
    single-processor faults, serial vs. a 4-worker process pool, and
    asserts the criticality rankings are identical.
    """
    from repro.resilience import FaultSet, failure_sweep, repair_mapping

    tg = stdlib.load("jacobi", rows=8, cols=8, msize=4)
    topo = networks.hypercube(6)
    mapping = map_computation(tg, topo)

    out: dict = {"workload": "jacobi8x8_hcube6", "repair": {}}
    for n_failed in (1, 2, 3, 4):
        faults = FaultSet(failed_procs=[0, 21, 42, 63][:n_failed])
        report = repair_mapping(tg, mapping, topo, faults, model=MODEL)
        repair_s = best_of(
            lambda: repair_mapping(tg, mapping, topo, faults, model=MODEL), 3
        )
        degraded = topo.degrade(faults)
        full_s = best_of(lambda: map_computation(tg, degraded), 3)
        report.mapping.validate(require_routes=True)
        avoids_failed = not (
            set(report.mapping.assignment.values()) & set(faults.failed_procs)
        )
        out["repair"][f"failed{n_failed}"] = {
            "repair_s": repair_s,
            "full_remap_s": full_s,
            "speedup": full_s / repair_s,
            "strategy": report.strategy,
            "moved_tasks": report.n_moved,
            "rerouted": report.n_rerouted,
            "kept_routes": report.kept_routes,
            "valid": True,
            "avoids_failed_hardware": avoids_failed,
        }

    start = time.perf_counter()
    serial = failure_sweep(tg, topo, mapping=mapping, model=MODEL,
                           executor="serial")
    sweep_serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = failure_sweep(tg, topo, mapping=mapping, model=MODEL,
                             executor="process", max_workers=4)
    sweep_parallel_s = time.perf_counter() - start
    deterministic = [
        (e.label, e.status, e.ratio) for e in serial.ranking()
    ] == [(e.label, e.status, e.ratio) for e in parallel.ranking()]
    out["sweep"] = {
        "faults": len(serial.entries),
        "workers": 4,
        "serial_s": sweep_serial_s,
        "parallel_s": sweep_parallel_s,
        "speedup": sweep_serial_s / sweep_parallel_s,
        "throughput_faults_per_s": len(serial.entries) / sweep_serial_s,
        "deterministic": deterministic,
        "most_critical": serial.ranking()[0].label,
    }
    return out


def bench_cache() -> dict:
    """Cold vs. warm ``run_pipeline`` on jacobi8x8 (the PR 4 headline).

    Cold = the full six-stage pipeline against an *empty* tempdir cache
    (cleared between repeats).  Warm-memory = the same call served from
    the in-process LRU; warm-disk = a second :class:`ArtifactCache` over
    the same directory (an empty memory tier -- what a restarted process
    sees), served by unpickling the disk entry.  Every tier must hand
    back a result with identical artifacts.
    """
    tg = stdlib.load("jacobi", rows=8, cols=8, msize=4)
    topo = networks.mesh(4, 4)
    config = RunConfig(sim=SimConfig.from_model(MODEL))

    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)

        cold_times = []
        for _ in range(3 if REPEATS > 1 else 1):
            cache.clear(disk=True)  # outside the timed region
            start = time.perf_counter()
            baseline = run_pipeline(tg, topo, config, cache=cache)
            cold_times.append(time.perf_counter() - start)
        cold_s = min(cold_times)

        warm_s = best_of(
            lambda: run_pipeline(tg, topo, config, cache=cache), 3
        )
        warm = run_pipeline(tg, topo, config, cache=cache)

        restarted = ArtifactCache(tmp)  # memory tier empty, disk shared
        start = time.perf_counter()
        disk = run_pipeline(tg, topo, config, cache=restarted)
        disk_s = time.perf_counter() - start

    identical = all(
        r.mapping.assignment == baseline.mapping.assignment
        and r.mapping.routes == baseline.mapping.routes
        and r.sim.total_time == baseline.sim.total_time
        for r in (warm, disk)
    )
    return {
        "workload": "jacobi8x8_mesh4x4_full_pipeline",
        "cold_s": cold_s,
        "warm_memory_s": warm_s,
        "warm_disk_s": disk_s,
        "speedup_memory": cold_s / warm_s,
        "speedup_disk": cold_s / disk_s,
        "tiers_hit": {
            "memory": warm.cache_tier == "memory",
            "disk": disk.cache_tier == "disk",
        },
        "results_identical": identical,
    }


def _square(x: int) -> int:
    return x * x


def bench_runtime() -> dict:
    """Supervision overhead, chaos resilience, and checkpoint resume (PR 5).

    Overhead: 64 trivial tasks through ``run_supervised`` (serial) vs. a
    bare Python loop -- the per-task cost of specs, attempt accounting,
    and result boxing.  Chaos: the 64-fault jacobi sweep under a seeded
    plan (~10% crashes, ~10% transients, one retry) must complete with
    explicit failed rows and rank survivors exactly like the clean sweep
    ranks them.  Resume: the same sweep with ``resume="auto"`` against a
    tempdir cache, cold vs. journal-served re-invocation, bit-identical.
    """
    from repro.resilience import failure_sweep
    from repro.runtime import ChaosPlan, RetryPolicy, run_supervised

    payloads = list(range(64))
    bare_s = best_of(lambda: [_square(x) for x in payloads])
    supervised_s = best_of(lambda: run_supervised(_square, payloads))
    out: dict = {
        "overhead": {
            "tasks": len(payloads),
            "bare_loop_s": bare_s,
            "supervised_serial_s": supervised_s,
            "per_task_overhead_us": (supervised_s - bare_s) / len(payloads) * 1e6,
        },
    }

    tg = stdlib.load("jacobi", rows=8, cols=8, msize=4)
    topo = networks.hypercube(6)
    mapping = map_computation(tg, topo)
    clean = failure_sweep(tg, topo, mapping=mapping, model=MODEL)
    chaos = ChaosPlan.random(
        seed=5, n_tasks=len(clean.entries), crash=0.1, transient=0.1,
        attempts=2,
    )
    retry = RetryPolicy(max_attempts=2, backoff=0.001)
    start = time.perf_counter()
    chaotic = failure_sweep(
        tg, topo, mapping=mapping, model=MODEL, chaos=chaos, retry=retry
    )
    chaos_s = time.perf_counter() - start
    survivors_match = [
        (e.label, e.ratio) for e in chaotic.ranking() if e.status == "ok"
    ] == [
        (e.label, e.ratio) for e in clean.ranking()
        if e.status == "ok" and e.label not in
        {x.label for x in chaotic.entries if x.status == "failed"}
    ]
    dist = chaotic.distribution()
    out["chaos_sweep"] = {
        "workload": "jacobi8x8_hcube6",
        "faults": dist["faults"],
        "injected_crashes": len(chaos.crashes),
        "injected_transients": len(chaos.transients),
        "failed_rows": dist["failed"],
        "chaotic_s": chaos_s,
        "survivor_ranking_matches_clean": survivors_match,
    }

    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)
        start = time.perf_counter()
        cold = failure_sweep(
            tg, topo, mapping=mapping, model=MODEL, resume="auto", cache=cache
        )
        cold_s = time.perf_counter() - start
        restarted = ArtifactCache(tmp)  # a "new process": disk tier only
        start = time.perf_counter()
        resumed = failure_sweep(
            tg, topo, mapping=mapping, model=MODEL, resume="auto",
            cache=restarted,
        )
        resumed_s = time.perf_counter() - start
    out["checkpoint"] = {
        "workload": "jacobi8x8_hcube6",
        "cold_s": cold_s,
        "resumed_s": resumed_s,
        "speedup": cold_s / resumed_s,
        "results_identical": resumed.to_dict() == cold.to_dict(),
    }
    return out


#: (name, tasks, graph factory, topology factory, strategies) for the
#: scale benchmark.  MWM-Contract is quadratic-ish in candidate pairs, so
#: it only runs at the kilotask size; the BFS-block baseline and the
#: multilevel path run everywhere.
SCALE_WORKLOADS = [
    ("mesh32x32/hcube6", 1024, lambda: families.mesh(32, 32),
     lambda: networks.hypercube(6), ("mwm", "mwm+delta_gain", "multilevel")),
    ("rgg10k/torus16x16", 10_000,
     lambda: families.random_geometric(10_000, seed=1),
     lambda: networks.torus(16, 16), ("multilevel",)),
    ("rgg100k/torus16x16", 100_000,
     lambda: families.random_geometric(100_000, seed=1),
     lambda: networks.torus(16, 16), ("multilevel",)),
]


def bench_mapping_scale() -> dict:
    """Multilevel vs. the existing strategies at 1k/10k/100k (PR 7).

    Quality is the aggregate comm cost (sum of volume x hop-distance over
    the folded static graph); routing is skipped so the timing is pure
    contraction + embedding + refinement.  The BFS-block baseline
    (bfs_contract + nn_embed) anchors every size; at 100k tasks it is the
    only other path that still finishes in seconds.
    """
    import math

    from repro.mapper.contraction import bfs_contract
    from repro.mapper.mapping import Mapping
    from repro.metrics import comm_cost

    out: dict = {}
    for name, n_tasks, tg_fn, topo_fn, strategies in SCALE_WORKLOADS:
        tg, topo = tg_fn(), topo_fn()
        tg.csr()  # warm the shared CSR bundle outside the timed regions
        bound = math.ceil(n_tasks / topo.n_processors)
        row: dict = {"tasks": n_tasks, "procs": topo.n_processors}

        def bfs_map():
            clusters = bfs_contract(tg, topo.n_processors, load_bound=bound)
            placement = nn_embed(tg, clusters, topo)
            return Mapping(
                tg, topo, assignment_from_clusters(clusters, placement), {}
            )

        row["bfs_baseline"] = {
            "map_s": best_of(bfs_map, 1 if n_tasks > 1024 else 3),
            "comm_cost": comm_cost(bfs_map()),
        }
        for strat in strategies:
            base, _, refined = strat.partition("+")
            kwargs = {"strategy": base, "route": False}
            if refined:
                kwargs["refine"] = refined
            row[strat] = {
                "map_s": best_of(
                    lambda: map_computation(tg, topo, **kwargs),
                    1 if n_tasks > 1024 else 3,
                ),
                "comm_cost": comm_cost(map_computation(tg, topo, **kwargs)),
            }
        best_other = min(
            v["comm_cost"] for k, v in row.items()
            if isinstance(v, dict) and k != "multilevel"
        )
        row["multilevel"]["vs_best_other"] = (
            best_other / row["multilevel"]["comm_cost"]
        )
        out[name] = row
    return out


def bench_machines() -> dict:
    """The PR 9 headline: hierarchical machines and capacity vectors.

    Two scenarios:

    * ``rgg10k_fat_tree`` -- the 10k-task random geometric graph mapped
      by the multilevel strategy onto a two-level ``fat_tree([16, 16])``
      (256 processors, thin leaf links under a 2x spine), timed against
      the flat ``torus16x16`` machine of the same size: the hierarchy
      lowers to ordinary links + slowdowns, so the mapping cost should
      stay in the same regime.
    * ``hotspot1024_capacity`` -- a 32x32 stencil with an 8x8 corner
      block of weight-8 tasks onto a ``node_core_tree(8, 4)`` whose
      32 processors each hold 96 units of weight-rule memory.  The
      capacity-aware run (``capacity_mode="strict"``) must land with
      zero overflows; the scalar-bound escape hatch
      (``capacity_mode="ignore"``) packs by task count and must
      overflow -- the feasibility gap the multi-resource model closes.
    """
    from repro.arch.hierarchy import fat_tree, node_core_tree
    from repro.metrics import comm_cost

    out: dict = {}

    rgg = families.random_geometric(10_000, seed=1)
    rgg.csr()
    tree = fat_tree([16, 16])
    flat = networks.torus(16, 16)
    row: dict = {"tasks": 10_000, "procs": tree.n_processors}
    for label, machine in (("fat_tree16x16", tree), ("torus16x16", flat)):
        machine.distance_matrix()
        run = lambda: map_computation(  # noqa: E731
            rgg, machine, strategy="multilevel", route=False
        )
        row[label] = {"map_s": best_of(run, 1), "comm_cost": comm_cost(run())}
    out["rgg10k_fat_tree"] = row

    side, block = 32, 8
    hotspot = TaskGraph(f"hotspot{side}x{side}")
    for r in range(side):
        for c in range(side):
            hotspot.add_node(
                r * side + c, 8.0 if r < block and c < block else 1.0
            )
    ph = hotspot.add_comm_phase("stencil")
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                ph.add(i, i + 1, 1.0)
            if r + 1 < side:
                ph.add(i, i + side, 1.0)
    hotspot.add_exec_phase("work", 1.0)
    machine = node_core_tree(
        8, 4, capacities={"memory": {"demand": "weight", "cap": 96.0}}
    )
    ctx = machine.capacities.context(hotspot, machine)
    stages = ("contract", "embed", "refine")
    results = {}
    for mode in ("strict", "ignore"):
        config = RunConfig(
            map=MapConfig(strategy="multilevel", capacity_mode=mode),
            stages=stages, cache=False,
        )
        elapsed = best_of(lambda: run_pipeline(hotspot, machine, config), 3)
        mapping = run_pipeline(hotspot, machine, config).mapping
        overflows = ctx.overflows(mapping.assignment)
        results[mode] = {
            "map_s": elapsed,
            "overflowing_procs": len(overflows),
            "worst_overflow": max(
                (o["demand"] / o["capacity"] for o in overflows), default=0.0
            ),
        }
    out["hotspot1024_capacity"] = {
        "tasks": 1024,
        "procs": 32,
        "capacity": "memory(weight) 96/processor",
        "strict": results["strict"],
        "ignore": results["ignore"],
        "capacity_aware_feasible": results["strict"]["overflowing_procs"] == 0,
        "scalar_bound_overflows": results["ignore"]["overflowing_procs"] > 0,
    }
    return out


def bench_serving() -> dict:
    """The PR 8 headline: the HTTP serving tier under concurrent load.

    Spawns a real ``repro serve`` subprocess over a fresh cache directory
    and drives it with :mod:`repro.serve.loadgen`:

    * ``cold``   -- the unique instances, sequentially, all computed.
    * ``warm``   -- the full request stream (each unique instance repeated
      many times) at high concurrency: every repeat must be a cache hit,
      and the warm p50 is the headline against the cold p50.
    * ``repeat`` -- the same stream again; its result hashes must equal
      the warm pass's exactly (bit-identical payload determinism).
    * ``herd``   -- a thundering herd on one brand-new fingerprint,
      barrier-released; the server must compute it exactly once.

    Latencies land as ``*_ms`` (load-dependent, exempt from the
    regression gate); only phase wall-clocks are gated.
    """
    from repro.serve import loadgen

    quick = REPEATS == 1
    unique = 8
    total = 240 if quick else 1024
    herd_size = 100 if quick else 1000
    concurrency = 32

    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("REPRO_CACHE", None)  # the serving tier must cache
    env.pop("REPRO_CHAOS", None)
    with tempfile.TemporaryDirectory() as cache_dir:
        env["REPRO_CACHE_DIR"] = cache_dir
        process, host, port = loadgen.spawn_server(env=env)
        try:
            bodies = loadgen.default_bodies(
                total, unique,
                program="jacobi", bind={"rows": 16, "cols": 16, "msize": 4},
                topology="mesh:4x4",
            )
            cold = loadgen.fire(host, port, bodies[:unique], concurrency=1,
                                timeout=120)
            # like-for-like p50: the same instances, again sequentially,
            # now all cache hits (the concurrent burst below measures
            # throughput, where queueing dominates individual latency)
            warm_seq = loadgen.fire(host, port, bodies[:unique],
                                    concurrency=1, timeout=120)
            warm = loadgen.fire(host, port, bodies, concurrency=concurrency,
                                timeout=120)
            repeat = loadgen.fire(host, port, bodies, concurrency=concurrency,
                                  timeout=120)
            herd_body = loadgen.default_bodies(
                unique + 1, unique + 1,
                program="jacobi", bind={"rows": 16, "cols": 16, "msize": 4},
                topology="mesh:4x4",
            )[unique]
            herd = loadgen.fire(host, port, [herd_body] * herd_size,
                                concurrency=herd_size, barrier=True,
                                timeout=300)
            _, stats = loadgen.request_once(host, port, "GET", "/v1/stats",
                                            timeout=60)
        finally:
            drain_rc = loadgen.drain_server(process)

    return {
        "workload": f"jacobi16x16/mesh:4x4, {unique} unique instances, "
                    f"{total} requests at concurrency {concurrency}, "
                    f"herd of {herd_size}",
        "cold": cold.to_dict(),
        "warm_sequential": warm_seq.to_dict(),
        "warm": warm.to_dict(),
        "repeat": repeat.to_dict(),
        "herd": herd.to_dict(),
        "warm_over_cold_p50": (
            cold.p50_s / warm_seq.p50_s if warm_seq.p50_s > 0 else 0.0
        ),
        "deterministic": (
            cold.result_hashes == warm_seq.result_hashes
            and warm_seq.result_hashes == warm.result_hashes
            and warm.result_hashes == repeat.result_hashes
            and len(herd.result_hashes) == 1
        ),
        "herd_computed_once": herd.computed == 1,
        "server_cache": {
            key: stats["cache"][key]
            for key in ("hits_memory", "hits_disk", "misses", "computed",
                        "singleflight_waits", "crossprocess_waits")
        },
        "drain_rc": drain_rc,
    }


def bench_online() -> dict:
    """The PR 10 headline: the continuous-operation session under churn.

    * ``steady_state`` -- a mixed seeded event stream (arrivals,
      departures, drift, faults, recoveries, bursts, flaps) applied to a
      live session on the 64-processor hypercube: total wall-clock
      (gated) plus per-event reaction latency p50/p99 (load-dependent,
      ``*_ms``, exempt from the gate) and throughput.
    * ``quality_vs_churn`` -- the same instance at three churn
      intensities; after the stream, the session's served comm cost is
      compared against a from-scratch remap of the final graph on the
      final machine (the oracle a non-incremental toolchain would have
      to stop the world to compute).
    """
    from repro.metrics import comm_cost
    from repro.online import MappingSession, SessionConfig, generate_scenario

    quick = REPEATS == 1
    tg = stdlib.load("jacobi", rows=8, cols=8)
    topo = networks.hypercube(6)
    out: dict = {}

    n_events = 100 if quick else 400
    scn = generate_scenario(tg, topo, seed=10, n_events=n_events)
    session = MappingSession(tg, topo, SessionConfig(checkpoint_every=0))
    start = time.perf_counter()
    report = session.run(scn.events)
    elapsed = time.perf_counter() - start
    latencies = sorted(r.elapsed_s for r in report.records)
    out["steady_state"] = {
        "workload": f"jacobi8x8/hypercube:6, {n_events} mixed events",
        "steady_state_s": elapsed,
        "events_per_s": n_events / elapsed,
        "p50_ms": latencies[len(latencies) // 2] * 1e3,
        "p99_ms": latencies[min(len(latencies) - 1,
                                int(len(latencies) * 0.99))] * 1e3,
        "remaps": report.counters.get("remaps_triggered", 0),
        "swaps": report.counters.get("swaps", 0),
    }

    n = 60 if quick else 200
    rows: dict = {}
    for label, rates in (
        ("low", {"drift": 1.0, "fault": 0.5}),
        ("med", {"drift": 3.0, "fault": 1.5}),
        ("high", {"drift": 6.0, "fault": 3.0}),
    ):
        churn_scn = generate_scenario(tg, topo, seed=20, n_events=n,
                                      rates=rates)
        churn_session = MappingSession(
            tg, topo, SessionConfig(checkpoint_every=0)
        )
        churn_report = churn_session.run(churn_scn.events)
        served = comm_cost(churn_session.mapping)
        oracle = comm_cost(map_computation(
            churn_session.mapping.task_graph, churn_session.machine
        ))
        rows[label] = {
            "events": n,
            "rates": rates,
            "served_cost": served,
            "oracle_cost": oracle,
            "cost_vs_oracle": served / oracle if oracle > 0 else 1.0,
            "remaps": churn_report.counters.get("remaps_triggered", 0),
            "swaps": churn_report.counters.get("swaps", 0),
        }
    out["quality_vs_churn"] = rows
    return out


def iter_timings(payload: dict, prefix: str = "") -> dict[str, float]:
    """Flatten every ``*_s`` timing in the payload to ``section.key`` paths.

    ``*_per_s`` keys are rates (higher is better), not timings, and stay out
    of the gate.
    """
    out: dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(iter_timings(value, f"{path}."))
        elif (
            key.endswith("_s")
            and not key.endswith("_per_s")
            and isinstance(value, (int, float))
        ):
            out[path] = float(value)
    return out


def check_regressions(
    payload: dict, baseline: dict, max_ratio: float
) -> list[str]:
    """Timings regressing more than *max_ratio* vs. the baseline.

    A 10ms absolute slack is added on top of the ratio so sub-millisecond
    stages can't trip the gate on shared-runner scheduling noise.
    """
    current = iter_timings(payload)
    reference = iter_timings(baseline)
    failures = []
    for path, ref in sorted(reference.items()):
        if path.startswith(("perf_spans.", "baseline.")) or ref <= 0:
            continue
        now = current.get(path)
        if now is not None and now > ref * max_ratio + 0.010:
            failures.append(f"{path}: {now * 1e3:.2f}ms vs baseline "
                            f"{ref * 1e3:.2f}ms ({now / ref:.1f}x)")
    return failures


def main(argv=None) -> int:
    global REPEATS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", type=Path, default=Path("BENCH_PR10.json"),
        help="trajectory file to write (default: BENCH_PR10.json)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="optional JSON of pre-change timings to embed for comparison",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="single repeat per item (CI smoke mode)",
    )
    parser.add_argument(
        "--check", type=Path, default=None,
        help="baseline JSON to regression-check against (non-zero exit on "
             "any stage regressing more than --max-regression)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=3.0,
        help="allowed slowdown factor vs. the --check baseline (default 3.0)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        REPEATS = 1

    # The legacy sections must measure real mapping work -- kill the
    # process-wide default artifact cache (pool workers inherit the env).
    # bench_cache() is unaffected: it passes its own explicit store.
    os.environ["REPRO_CACHE"] = "off"
    reset_default_cache()

    perf.reset()
    payload = {
        "meta": {
            "pr": 10,
            "description": "continuous-operation remap daemon: "
                           "event-driven mapping sessions with "
                           "incremental repair, drift-triggered "
                           "background remap, and migration-cost-gated "
                           "hot-swap",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
        },
        "sim_micro": bench_sim_micro(),
        "e2e": bench_e2e(),
        "contraction": bench_contraction(),
        "embed": bench_embed(),
        "route": bench_route(),
        "metrics": bench_metrics(),
        "portfolio": bench_portfolio(),
        "resilience": bench_resilience(),
        "cache": bench_cache(),
        "runtime": bench_runtime(),
        "mapping_scale": bench_mapping_scale(),
        "machines": bench_machines(),
        "serving": bench_serving(),
        "online": bench_online(),
    }
    payload["perf_spans"] = {
        name: {"calls": s.calls, "total_s": s.total}
        for name, s in sorted(perf.stats().items())
    }
    payload["perf_counters"] = perf.counters()
    if args.baseline and args.baseline.exists():
        payload["baseline"] = json.loads(args.baseline.read_text())

    args.output.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    micro = payload["sim_micro"]
    print(f"sim micro ({micro['workload']}): "
          f"{micro['memoized_s'] * 1e3:.2f}ms")
    for name, row in payload["e2e"].items():
        print(f"e2e {name}: map {row['map_s'] * 1e3:.2f}ms, "
              f"simulate {row['simulate_s'] * 1e3:.2f}ms")
    for name, value in payload["contraction"].items():
        print(f"{name}: {value * 1e3:.2f}ms")
    for section in ("embed", "route", "metrics"):
        row = payload[section]
        fast_key = "vector_s" if "vector_s" in row else "table_s"
        print(f"{section} ({row['workload']}): {row[fast_key] * 1e3:.2f}ms")
    pf = payload["portfolio"]
    print(f"portfolio (8 pairs, {pf['workers']} workers): "
          f"serial {pf['serial_s'] * 1e3:.0f}ms -> parallel "
          f"{pf['parallel_s'] * 1e3:.0f}ms ({pf['speedup']:.1f}x, "
          f"deterministic={pf['deterministic']})")
    res = payload["resilience"]
    for name, row in res["repair"].items():
        print(f"resilience repair {name}: incremental "
              f"{row['repair_s'] * 1e3:.2f}ms vs full remap "
              f"{row['full_remap_s'] * 1e3:.2f}ms ({row['speedup']:.1f}x, "
              f"moved {row['moved_tasks']}, rerouted {row['rerouted']})")
    sw = res["sweep"]
    print(f"resilience sweep ({sw['faults']} faults): serial "
          f"{sw['serial_s'] * 1e3:.0f}ms -> parallel "
          f"{sw['parallel_s'] * 1e3:.0f}ms "
          f"({sw['throughput_faults_per_s']:.1f} faults/s, "
          f"deterministic={sw['deterministic']})")
    ca = payload["cache"]
    print(f"cache ({ca['workload']}): cold {ca['cold_s'] * 1e3:.2f}ms -> "
          f"memory {ca['warm_memory_s'] * 1e3:.3f}ms "
          f"({ca['speedup_memory']:.0f}x) / disk "
          f"{ca['warm_disk_s'] * 1e3:.3f}ms ({ca['speedup_disk']:.0f}x, "
          f"identical={ca['results_identical']})")
    rt = payload["runtime"]
    print(f"runtime overhead ({rt['overhead']['tasks']} tasks): "
          f"{rt['overhead']['per_task_overhead_us']:.1f}us/task supervised")
    cs = rt["chaos_sweep"]
    print(f"runtime chaos sweep ({cs['faults']} faults, "
          f"{cs['injected_crashes']} crashes + {cs['injected_transients']} "
          f"transients): {cs['failed_rows']} failed rows in "
          f"{cs['chaotic_s'] * 1e3:.0f}ms, survivors match clean="
          f"{cs['survivor_ranking_matches_clean']}")
    ck = rt["checkpoint"]
    print(f"runtime checkpoint: cold {ck['cold_s'] * 1e3:.0f}ms -> resumed "
          f"{ck['resumed_s'] * 1e3:.0f}ms ({ck['speedup']:.1f}x, "
          f"identical={ck['results_identical']})")
    for name, row in payload["mapping_scale"].items():
        ml = row["multilevel"]
        print(f"mapping scale {name} ({row['tasks']} tasks): multilevel "
              f"{ml['map_s']:.2f}s cost {ml['comm_cost']:.0f} "
              f"({ml['vs_best_other']:.1f}x better than next best); bfs "
              f"{row['bfs_baseline']['map_s']:.2f}s cost "
              f"{row['bfs_baseline']['comm_cost']:.0f}")
    mc = payload["machines"]
    rg = mc["rgg10k_fat_tree"]
    print(f"machines rgg10k: fat_tree16x16 "
          f"{rg['fat_tree16x16']['map_s']:.2f}s cost "
          f"{rg['fat_tree16x16']['comm_cost']:.0f} vs torus16x16 "
          f"{rg['torus16x16']['map_s']:.2f}s cost "
          f"{rg['torus16x16']['comm_cost']:.0f}")
    hs = mc["hotspot1024_capacity"]
    print(f"machines hotspot1024 ({hs['capacity']}): strict "
          f"{hs['strict']['map_s'] * 1e3:.0f}ms, "
          f"{hs['strict']['overflowing_procs']} overflows; ignore "
          f"{hs['ignore']['map_s'] * 1e3:.0f}ms, "
          f"{hs['ignore']['overflowing_procs']} overflows (worst "
          f"{hs['ignore']['worst_overflow']:.1f}x) -- capacity-aware "
          f"feasible={hs['capacity_aware_feasible']}, scalar overflows="
          f"{hs['scalar_bound_overflows']}")
    sv = payload["serving"]
    print(f"serving ({sv['workload']}): cold p50 {sv['cold']['p50_ms']:.1f}ms "
          f"-> warm p50 {sv['warm_sequential']['p50_ms']:.1f}ms "
          f"({sv['warm_over_cold_p50']:.1f}x), warm "
          f"{sv['warm']['throughput_rps']:.0f} req/s, hit rate "
          f"{sv['warm']['hit_rate']:.2f}, herd computed once="
          f"{sv['herd_computed_once']}, deterministic={sv['deterministic']}, "
          f"drain rc={sv['drain_rc']}")
    ol = payload["online"]["steady_state"]
    print(f"online steady state ({ol['workload']}): "
          f"{ol['events_per_s']:.0f} events/s, p50 {ol['p50_ms']:.2f}ms, "
          f"p99 {ol['p99_ms']:.2f}ms, remaps {ol['remaps']}, "
          f"swaps {ol['swaps']}")
    for label, row in payload["online"]["quality_vs_churn"].items():
        print(f"online churn {label}: served {row['served_cost']:.0f} vs "
              f"oracle {row['oracle_cost']:.0f} "
              f"({row['cost_vs_oracle']:.2f}x, remaps {row['remaps']}, "
              f"swaps {row['swaps']})")
    print(f"wrote {args.output}")

    if args.check and args.check.exists():
        failures = check_regressions(
            payload, json.loads(args.check.read_text()), args.max_regression
        )
        if failures:
            print(f"REGRESSIONS (> {args.max_regression}x):")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"regression check vs {args.check}: ok "
              f"(threshold {args.max_regression}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
