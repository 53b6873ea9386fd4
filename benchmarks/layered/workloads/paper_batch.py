"""``paper_batch``: the regime the paper studied.

In-process, one thread, closed loop, ``RunConfig(cache=False)``.  One
operation is ``stdlib.load`` followed by ``run_pipeline`` with the default
six stages, on one of 24 paper-scale instances (at most 128 tasks, at most
32 processors).  The instance set is fixed -- it holds the paper's three
figures' examples and at least four instances per Fig-3 branch -- so that
the quality metrics repeat exactly; the seed shuffles each round.  Compile,
dispatch, route, simulate and analyze each hold a visible share of an
operation here, and no layer dominates.

Also times fresh ``python -m repro map ... --simulate`` processes: a CLI
user pays the interpreter and import start-up on every mapping.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
import time

from benchmarks.layered.harness import (
    Probes,
    Tracer,
    child_environment,
    median,
    peak_rss_mb,
)
from benchmarks.layered.workloads.common import (
    Context,
    Outcome,
    best_of,
    fingerprint_probes,
    finish,
    latency_metrics,
    pipeline_layer_metrics,
    pipeline_plain,
    pipeline_traced,
    reference_rows,
    repeated_setup,
    same_output,
    topology_from_spec,
    traced_pipeline_metrics,
    with_distances,
)

#: (program, bindings, topology); the comment names the Fig-3 branch the
#: default dispatch takes today.
INSTANCES = [
    ("nbody", {"n": 63}, "hypercube:4"),                        # canned
    ("nbody", {"n": 31}, "hypercube:3"),                        # canned
    ("fft", {"m": 6}, "hypercube:4"),                           # canned
    ("fft", {"m": 7}, "hypercube:5"),                           # canned
    ("dnc", {"m": 6}, "hypercube:4"),                           # canned
    ("fft", {"m": 5}, "mesh:4x4"),                              # group
    ("voting", {"m": 6}, "hypercube:4"),                        # group
    ("voting", {"m": 5}, "ring:16"),                            # group
    ("bitonic", {"m": 5}, "hypercube:5"),                       # group
    ("jacobi", {"rows": 8, "cols": 8}, "mesh:4x4"),             # mwm
    ("jacobi", {"rows": 8, "cols": 8, "iters": 10}, "hypercube:4"),
    ("jacobi", {"rows": 8, "cols": 16}, "mesh:4x8"),
    ("sor", {"rows": 8, "cols": 8, "iters": 4}, "torus:4x4"),
    ("nbody", {"n": 15}, "mesh:2x4"),
    ("dnc", {"m": 5}, "mesh:4x4"),
    ("cannon", {"q": 8}, "torus:4x4"),
    ("cannon", {"q": 4}, "hypercube:4"),
    ("pipeline", {"n": 64, "items": 8}, "ring:16"),
    ("annealing", {"rows": 8, "cols": 8, "sweeps": 5}, "torus:4x4"),
    ("annealing", {"rows": 4, "cols": 8}, "hypercube:3"),
    ("oddeven", {"n": 64}, "ring:16"),
    ("oddeven", {"n": 32}, "linear:16"),
    ("gauss", {"n": 32}, "mesh:4x4"),
    ("gauss", {"n": 24}, "hypercube:3"),
]

_CLI_ARGS = ["map", "jacobi", "--bind", "rows=8", "cols=8",
             "--topology", "mesh:4x4", "--simulate"]
_CLI_INSTANCE = INSTANCES[9]
_CLI_RUNS = 5          # also the number of bare-import runs when traced
#: Share of the run spent in the in-process loop; the CLI runs take the rest.
_LOOP_SHARE = 0.65
#: Memory is read after this many rounds (see ``common.finish``).
_RSS_AFTER_ROUNDS = 10


def label(instance) -> str:
    program, bind, spec = instance
    args = ",".join(f"{k}={v}" for k, v in bind.items())
    return f"{program}({args})/{spec}"


def _run_cli(tmp, args, *, module=True) -> tuple[float, subprocess.CompletedProcess]:
    command = [sys.executable, "-m", "repro", *args] if module else [sys.executable, *args]
    start = time.perf_counter()
    done = subprocess.run(command, env=child_environment(tmp.fresh("cli-cache")),
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, done


def run(ctx: Context) -> Outcome:
    from repro.larcs import stdlib
    from repro.pipeline import RunConfig

    out = Outcome()
    probes = Probes()
    config = RunConfig(cache=False)
    instances = [INSTANCES[0], INSTANCES[5], _CLI_INSTANCE] if ctx.smoke else INSTANCES
    cli_runs = 1 if ctx.smoke else _CLI_RUNS

    def build():
        topologies = {}
        for _program, _bind, spec in instances:
            if spec not in topologies:
                topologies[spec] = probes.time(
                    "arch.build_ms", lambda: with_distances(topology_from_spec(spec)))
        graphs = [stdlib.load(program, **bind) for program, bind, _ in instances]
        if ctx.trace:
            for tg, (_p, _b, spec) in zip(graphs, instances):
                probes.time("graph.csr_ms", tg.csr)
                fingerprint_probes(probes, tg, topology_from_spec(spec))
        return topologies

    topologies, build_s = repeated_setup(build, once=ctx.smoke)

    # Warm-up: every instance once, as a user would run it.  Its outputs
    # are the reference later operations must reproduce, and the ones the
    # independent checks and the quality metrics read.
    warm_start = time.perf_counter()
    reference, overhead = [], []
    for program, bind, spec in instances:
        tg = stdlib.load(program, **bind)
        loaded = time.perf_counter()
        ref = pipeline_plain(tg, topologies[spec], config)
        overhead.append(time.perf_counter() - loaded - sum(ref.stage_seconds.values()))
        reference.append(ref)
    out.extras["warmup_s"] = time.perf_counter() - warm_start

    reference_rows(out, [label(i) for i in instances], reference,
                   [config] * len(instances))

    tracer = Tracer() if ctx.trace else None
    rng = random.Random(ctx.seed)
    order = list(range(len(instances)))
    op_seconds, records = [], []
    by_instance = {i: [] for i in order}
    compile_seconds = []
    deadline = time.perf_counter() + ctx.seconds * _LOOP_SHARE
    rounds, rss_mb = 0, None
    while time.perf_counter() < deadline:
        rng.shuffle(order)
        for i in order:
            program, bind, spec = instances[i]
            topology = topologies[spec]
            if tracer is None:
                start = time.perf_counter()
                tg = stdlib.load(program, **bind)
                loaded = time.perf_counter()
                output = pipeline_plain(tg, topology, config)
                end = time.perf_counter()
            else:
                tracer.op = len(op_seconds)
                start = time.perf_counter()
                with tracer.span("op"):
                    with tracer.span("larcs.compile"):
                        tg = stdlib.load(program, **bind)
                    loaded = time.perf_counter()
                    output = pipeline_traced(tracer, tg, topology, config)
                end = time.perf_counter()
            op_seconds.append(end - start)
            by_instance[i].append(end - start)
            compile_seconds.append(loaded - start)
            records.append((i, output))
            out.attempted += 1
            if not same_output(output, reference[i]):
                out.fail(f"{label(instances[i])}: output differs from its first run")
        rounds += 1
        if rounds == _RSS_AFTER_ROUNDS:
            rss_mb = peak_rss_mb()
    rss_mb = rss_mb or peak_rss_mb()
    out.extras["rounds"] = rounds

    # The CLI, as a user pays for it: a fresh process per mapping.
    cli_reference = reference[instances.index(_CLI_INSTANCE)].total_time
    cli_seconds = []
    for _ in range(cli_runs):
        took, done = _run_cli(ctx.tmp, _CLI_ARGS)
        cli_seconds.append(took)
        out.attempted += 1
        found = re.search(r"simulated completion time:\s*([0-9.eE+-]+)", done.stdout)
        if done.returncode != 0:
            out.fail(f"cli exit code {done.returncode}: {done.stderr[-200:]}")
        elif not found or float(found.group(1)) != cli_reference:
            out.fail("cli completion time differs from the in-process run")
    out.e2e["setup_s"] = build_s
    out.e2e["cli_oneshot_s"] = median(cli_seconds)
    best = best_of(by_instance)
    latency_metrics(out, op_seconds, best)
    for i, row in enumerate(out.instances):
        row["best_ms"] = best[i] * 1e3
        row["median_ms"] = median(by_instance[i]) * 1e3

    out.extras["compile_share"] = sum(compile_seconds) / sum(op_seconds)
    if tracer is not None:
        pipeline_layer_metrics(out, records)
        out.per_layer["larcs.compile_ms"] = (
            sum(compile_seconds) / len(compile_seconds) * 1e3)
        out.per_layer["larcs.tasks_per_s"] = (
            sum(out.instances[i]["tasks"] for i, _o in records) / sum(compile_seconds))
        traced_pipeline_metrics(out, tracer, overhead, len(op_seconds))
        import_seconds = []
        for _ in range(cli_runs):
            took, done = _run_cli(ctx.tmp, ["-c", "import repro.cli"], module=False)
            if done.returncode == 0:
                import_seconds.append(took)
        if import_seconds:
            probes.values["cli.import_s"] = median(import_seconds)
            probes.values["cli.work_s"] = median(cli_seconds) - median(import_seconds)
        out.per_layer.update(probes.summary())
    out.warnings.extend(probes.warnings)
    return finish(out, rss_mb)

