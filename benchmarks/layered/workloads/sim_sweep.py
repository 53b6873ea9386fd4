"""``sim_sweep``: the simulator and METRICS, with the mapper idle.

Five mappings are built in set-up.  One operation is ``simulate(mapping,
model)`` followed by ``analyze(mapping, model, sim=...)``, over a grid of
cost models (the default plus four drawn from the seed) in both switching
modes, alternating between the one shared ``Mapping`` object (whose
compiled tables are warm) and a fresh ``mapping.copy()`` (cold).  Four
mappings repeat their phases many times and one runs a single unrepeated
phase, so they use the step cache in opposite ways.
"""

from __future__ import annotations

import random
import time

from benchmarks.layered import checks
from benchmarks.layered.harness import Tracer, geomean, median, peak_rss_mb
from benchmarks.layered.workloads.common import (
    Context,
    Outcome,
    best_of,
    finish,
    latency_metrics,
    quality_metrics,
    repeated_setup,
    span_coverage_claim,
    topology_from_spec,
)

_SWITCHING = ("store_and_forward", "cut_through")
_DRAWN_MODELS = 4
#: Memory is read after this many rounds (see ``common.finish``).
_RSS_AFTER_ROUNDS = 6


def _graphs():
    """``(label, graph builder, topology spec)`` rows."""
    from repro.graph import families
    from repro.graph.phase_expr import Rep
    from repro.larcs import stdlib

    def fft():
        tg = stdlib.load("fft", m=8)
        tg.phase_expr = Rep(tg.phase_expr, 20)
        return tg

    return [
        ("jacobi32x32^50/mesh:8x8",
         lambda: stdlib.load("jacobi", rows=32, cols=32, iters=50), "mesh:8x8"),
        ("fft256^20/hypercube:5", fft, "hypercube:5"),
        ("jacobi8x8^100/mesh:4x4",
         lambda: stdlib.load("jacobi", rows=8, cols=8, iters=100), "mesh:4x4"),
        ("nbody63^4/hypercube:4",
         lambda: stdlib.load("nbody", n=63, sweeps=4), "hypercube:4"),
        ("rgg2000/torus:8x8",
         lambda: families.random_geometric(2000, seed=1), "torus:8x8"),
    ]


def _models(seed: int):
    """The default cost model first, then the seeded draws; each in both
    switching modes."""
    from repro.sim import CostModel

    rng = random.Random(seed)
    triples = [(1.0, 1.0, 1.0)] + [
        tuple(round(rng.uniform(0.5, 2.0), 3) for _ in range(3))
        for _ in range(_DRAWN_MODELS)
    ]
    return [CostModel(h, b, e, sw) for h, b, e in triples for sw in _SWITCHING]


def run(ctx: Context) -> Outcome:
    from repro.mapper import map_computation
    from repro.metrics import analyze, comm_cost
    from repro.sim import simulate
    from repro.util import perf

    out = Outcome()
    rows = _graphs()[2:4] if ctx.smoke else _graphs()
    models = _models(ctx.seed)

    def build():
        return [map_computation(graph(), topology_from_spec(spec))
                for _label, graph, spec in rows]

    mappings, build_s = repeated_setup(build, once=ctx.smoke)

    # Warm-up: every (mapping, model) once on the shared object.  This
    # fills its compiled tables and gives the reference completion times.
    warm_start = time.perf_counter()
    reference = {
        (i, j): simulate(mapping, model).total_time
        for i, mapping in enumerate(mappings) for j, model in enumerate(models)
    }
    out.extras["warmup_s"] = time.perf_counter() - warm_start

    for i, ((label, *_), mapping) in enumerate(zip(rows, mappings)):
        plain = checks.from_mapping(mapping)
        problems = checks.check_mapping(plain)
        phases = list(mapping.task_graph.comm_phases)
        for j, model in enumerate(models):
            problems += checks.check_total_time(
                plain, reference[i, j], phases, hop_latency=model.hop_latency,
                byte_time=model.byte_time, switching=model.switching)
        out.attempted += 1
        if problems:
            out.fail(f"{label}: {problems[0]}")
        out.instances.append({
            "instance": label, "tasks": mapping.task_graph.n_tasks,
            "strategy": mapping.provenance, "comm_cost": comm_cost(mapping),
            "completion_time": geomean(reference[i, j] for j in (0, 1)),
        })
    # Completion times under the default cost model only (the first two
    # models), so that they repeat across seeds.
    quality_metrics(out)

    tracer = Tracer() if ctx.trace else None
    rng = random.Random(ctx.seed)
    combos = [(i, j, cold) for i in range(len(mappings))
              for j in range(len(models)) for cold in (False, True)]
    op_seconds = []
    by_combo = {combo: [] for combo in combos}
    sim_seconds = {False: [], True: []}          # cold? -> simulate times
    analyze_seconds = []
    steps = vector_ops = 0
    counters_before = perf.counters()
    deadline = time.perf_counter() + ctx.seconds
    rounds, rss_mb = 0, None
    while time.perf_counter() < deadline:
        rng.shuffle(combos)
        for combo in combos:
            i, j, cold = combo
            mapping = mappings[i].copy() if cold else mappings[i]
            model = models[j]
            if tracer is None:
                start = time.perf_counter()
                sim = simulate(mapping, model)
                simulated = time.perf_counter()
                metrics = analyze(mapping, model, sim=sim)
                end = time.perf_counter()
            else:
                tracer.op = len(op_seconds)
                start = time.perf_counter()
                with tracer.span("op"):
                    with tracer.span("sim.simulate"):
                        sim = simulate(mapping, model)
                    simulated = time.perf_counter()
                    with tracer.span("metrics.analyze"):
                        metrics = analyze(mapping, model, sim=sim)
                end = time.perf_counter()
            op_seconds.append(end - start)
            by_combo[combo].append(end - start)
            sim_seconds[cold].append(simulated - start)
            analyze_seconds.append(end - simulated)
            steps += len(sim.step_times)
            vector_ops += sim.kernel == "vector"
            out.attempted += 1
            if (sim.total_time != reference[i, j]
                    or metrics.estimated_completion_time != sim.total_time):
                out.fail(f"{rows[i][0]} model {j}: completion time differs "
                         f"from its first run")
        rounds += 1
        if rounds == _RSS_AFTER_ROUNDS:
            rss_mb = peak_rss_mb()
    rss_mb = rss_mb or peak_rss_mb()
    out.extras["rounds"] = rounds
    out.e2e["setup_s"] = build_s
    best = best_of(by_combo)
    latency_metrics(out, op_seconds, best)
    for i, row in enumerate(out.instances):
        row["best_ms"] = median(t for (m, _j, _c), t in best.items() if m == i) * 1e3

    out.isolation[">= 1000 operations"] = len(op_seconds) >= 1000

    if tracer is not None:
        after = perf.counters()

        def delta(name):
            return after.get(name, 0) - counters_before.get(name, 0)

        hits, misses = delta("sim.step_cache_hit"), delta("sim.step_cache_miss")
        out.per_layer.update({
            "sim.simulate_warm_ms": median(sim_seconds[False]) * 1e3,
            "sim.simulate_cold_ms": median(sim_seconds[True]) * 1e3,
            "sim.steps_per_s": steps / sum(sim_seconds[False] + sim_seconds[True]),
            "sim.vector_share": vector_ops / len(op_seconds),
            "sim.step_cache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
            "sim.vector_fallbacks": delta("sim.vector_fallback"),
            "metrics.analyze_ms": median(analyze_seconds) * 1e3,
        })
        # An operation's only children are the simulate and analyze
        # spans, so their coverage is the two layers' share of it.
        span_coverage_claim(out, tracer)
        out.isolation["sim+metrics >= 80% of op time"] = (
            out.extras["span_coverage"] >= 0.80)
    return finish(out, rss_mb)
