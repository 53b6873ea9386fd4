"""``map_scale``: five graphs of 1k-10k tasks, where contraction is the cost.

In-process, ``RunConfig(cache=False)``, default stages.  Graph generation,
``tg.csr()`` and the distance matrices are set-up.  Contraction is at
least 70% of every operation; the simulator, the server and the cache do
next to nothing.  The two ``auto`` instances sit where the dispatcher
chooses between strategies, and the capacity instance runs the
capacity-bound path beside the four capacity-free ones.  The graphs are
fixed so the quality metrics repeat exactly; the seed shuffles each round.
"""

from __future__ import annotations

import random
import time

from benchmarks.layered.harness import Probes, Tracer, median, peak_rss_mb
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
    traced_pipeline_metrics,
    with_distances,
)

#: Memory is read after this many rounds (see ``common.finish``).
_RSS_AFTER_ROUNDS = 2


def _hotspot(side: int = 32, block: int = 8):
    """A stencil whose corner block holds weight-8 tasks: packing by task
    count overflows the memory capacity, packing by weight does not."""
    from repro.graph.taskgraph import TaskGraph

    tg = TaskGraph(f"hotspot{side * side}")
    for r in range(side):
        for c in range(side):
            tg.add_node(r * side + c, 8.0 if r < block and c < block else 1.0)
    phase = tg.add_comm_phase("stencil")
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                phase.add(i, i + 1, 1.0)
            if r + 1 < side:
                phase.add(i, i + side, 1.0)
    tg.add_exec_phase("work", 1.0)
    return tg


def _instances():
    """``(label, graph builder, machine builder, strategy)`` rows."""
    from repro.arch import networks
    from repro.arch.hierarchy import fat_tree, node_core_tree
    from repro.graph import families

    def rgg(n):
        return lambda: families.random_geometric(n, seed=1)

    return [
        ("mesh32x32/hypercube:6", lambda: families.mesh(32, 32),
         lambda: networks.hypercube(6), "auto"),
        ("rgg2000/torus:8x8", rgg(2000), lambda: networks.torus(8, 8), "auto"),
        ("rgg10k/torus:16x16", rgg(10_000), lambda: networks.torus(16, 16),
         "multilevel"),
        ("rgg10k/fat_tree:16x16", rgg(10_000), lambda: fat_tree([16, 16]),
         "multilevel"),
        ("hotspot1024/node_core_tree:8x4+mem96", _hotspot,
         lambda: node_core_tree(
             8, 4, capacities={"memory": {"demand": "weight", "cap": 96.0}}),
         "multilevel"),
    ]


def run(ctx: Context) -> Outcome:
    from repro.pipeline import MapConfig, RunConfig

    out = Outcome()
    probes = Probes()
    rows = _instances()
    if ctx.smoke:
        rows = [rows[0], rows[4]]
    configs = [RunConfig(map=MapConfig(strategy=s), cache=False)
               for _l, _g, _m, s in rows]

    def build():
        built = []
        for _label, graph, machine, _strategy in rows:
            tg = graph()
            probes.time("graph.csr_ms", tg.csr)
            topo = probes.time("arch.build_ms", lambda: with_distances(machine()))
            if ctx.trace:
                fingerprint_probes(probes, tg, topo)
            built.append((tg, topo))
        return built

    built, build_s = repeated_setup(build, once=ctx.smoke)

    # Warm-up: every instance once, untimed; its outputs are the reference.
    warm_start = time.perf_counter()
    reference, overhead = [], []
    for (tg, topo), config in zip(built, configs):
        start = time.perf_counter()
        ref = pipeline_plain(tg, topo, config)
        overhead.append(time.perf_counter() - start - sum(ref.stage_seconds.values()))
        reference.append(ref)
    out.extras["warmup_s"] = time.perf_counter() - warm_start

    reference_rows(out, [row[0] for row in rows], reference, configs)

    tracer = Tracer() if ctx.trace else None
    rng = random.Random(ctx.seed)
    order = list(range(len(rows)))
    op_seconds, records = [], []
    by_instance = {i: [] for i in order}
    deadline = time.perf_counter() + ctx.seconds
    rounds, rss_mb = 0, None
    round_s = out.extras["warmup_s"]
    # A round takes seconds here, so one is started only if at least half
    # of it should fit.
    while rounds == 0 or time.perf_counter() + round_s / 2 <= deadline:
        round_start = time.perf_counter()
        rng.shuffle(order)
        for i in order:
            tg, topo = built[i]
            start = time.perf_counter()
            if tracer is None:
                output = pipeline_plain(tg, topo, configs[i])
            else:
                tracer.op = len(op_seconds)
                with tracer.span("op"):
                    output = pipeline_traced(tracer, tg, topo, configs[i])
            took = time.perf_counter() - start
            op_seconds.append(took)
            by_instance[i].append(took)
            records.append((i, output))
            out.attempted += 1
            if not same_output(output, reference[i]):
                out.fail(f"{rows[i][0]}: output differs from its first run")
        rounds += 1
        round_s = time.perf_counter() - round_start
        if rounds == _RSS_AFTER_ROUNDS:
            rss_mb = peak_rss_mb()
    rss_mb = rss_mb or peak_rss_mb()
    out.extras["rounds"] = rounds
    out.e2e["setup_s"] = build_s
    best = best_of(by_instance)
    latency_metrics(out, op_seconds, best)
    for i, row in enumerate(out.instances):
        row["best_ms"] = best[i] * 1e3
        row["median_ms"] = median(by_instance[i]) * 1e3

    pipeline_layer_metrics(out, records)
    out.isolation["contract >= 70% of the stages' time"] = out.extras["contract_share"] >= 0.70

    if tracer is not None:
        traced_pipeline_metrics(out, tracer, overhead, len(op_seconds))
        out.per_layer.update(probes.summary())
    out.warnings.extend(probes.warnings)
    return finish(out, rss_mb)

