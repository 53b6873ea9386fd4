"""Command-line interface: the OREGAMI toolchain as a shell tool.

Usage examples::

    python -m repro stdlib
    python -m repro compile nbody --bind n=15
    python -m repro map nbody --bind n=15 --topology hypercube:3 --report
    python -m repro map path/to/prog.larcs --bind n=64 --topology mesh:8x8 \\
        --strategy mwm --ascii --simulate
    python -m repro run nbody --bind n=15 --topology hypercube:3 \\
        --config pipeline.json

The first positional argument of ``compile``/``map``/``run`` is either a
stdlib program name or a path to a ``.larcs`` source file.  ``run`` is
the machine-readable entry point: it executes the staged pipeline from a
JSON/TOML :class:`~repro.pipeline.RunConfig` file and prints the
``oregami-pipeline-result-v1`` document, with repeat runs served from the
artifact cache.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import __version__
from repro.arch.hierarchy import describe_machine, parse_machine
from repro.arch.networks import _TOPOLOGY_BUILDERS, parse_topology
from repro.arch.topology import Topology
from repro.errors import SupervisionError, exit_code_for
from repro.larcs import compile_larcs, stdlib
from repro.mapper import NotApplicableError, map_computation
from repro.metrics import analyze, render_report
from repro.metrics.display import (
    render_link_traffic,
    render_mapping_ascii,
    render_timeline,
)
from repro.pipeline import RunConfig, default_cache, run_pipeline, strategy_names
from repro.sim import CostModel, simulate
from repro.sim.model import SWITCHING_MODES

__all__ = ["main", "parse_topology", "parse_bindings"]


def parse_bindings(pairs: list[str]) -> dict[str, int]:
    """Parse ``--bind n=15 msize=4`` pairs."""
    bindings: dict[str, int] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"binding {pair!r} is not of the form name=value")
        try:
            bindings[name.strip()] = int(value)
        except ValueError:
            raise ValueError(f"binding {pair!r}: value must be an integer") from None
    return bindings


def _load_source(program: str) -> str:
    if program in stdlib.PROGRAMS:
        return stdlib.PROGRAMS[program]
    path = Path(program)
    if path.exists():
        return path.read_text()
    raise ValueError(
        f"{program!r} is neither a stdlib program "
        f"({', '.join(sorted(stdlib.PROGRAMS))}) nor a readable file"
    )


def _cmd_stdlib(_args) -> int:
    print("LaRCS standard library programs:")
    for name in sorted(stdlib.PROGRAMS):
        first_line = next(
            line
            for line in stdlib.PROGRAMS[name].strip().splitlines()
            if line.startswith("algorithm")
        )
        print(f"  {name:<12} {first_line}")
    return 0


def _cmd_topologies(_args) -> int:
    print("machine specs for --topology or --machine (sizes joined by 'x'):")
    samples = {
        "ring": "ring:8",
        "linear": "linear:5",
        "mesh": "mesh:4x4",
        "torus": "torus:3x4",
        "hypercube": "hypercube:3",
        "complete": "complete:6",
        "star": "star:5",
        "tree": "tree:3  (full binary tree of that depth)",
        "ccc": "ccc:3  (cube-connected cycles)",
        "butterfly": "butterfly:3",
        "fat_tree": "fat_tree:4x8  (top-down arities, one or more levels)",
        "dragonfly": "dragonfly:6x4  (groups x routers)",
        "node_core_tree": "node_core_tree:8x4  (nodes x cores)",
    }
    for name in sorted(_TOPOLOGY_BUILDERS):
        print(f"  {name:<14} e.g. {samples[name]}")
    return 0


def _cmd_compile(args) -> int:
    source = _load_source(args.program)
    result = compile_larcs(source, parse_bindings(args.bind))
    tg = result.task_graph
    print(f"compiled {tg!r}")
    print(f"phases: {', '.join(tg.phase_names)}")
    if tg.phase_expr is not None:
        print(f"phase expression: {tg.phase_expr}")
        print(f"synchronous steps: {len(tg.phase_expr.linearize())}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.edges:
        for name, edge in tg.all_edges():
            print(f"  {name}: {edge.src} -> {edge.dst} (volume {edge.volume:g})")
    return 0


def _resolve_machine(args) -> Topology:
    """The target machine from ``--topology`` or ``--machine`` (exactly one).

    The two flags are spellings of one value: a spec string of any family
    (``mesh:4x4``, ``fat_tree:4x8``, ...) or a JSON machine file path.
    """
    machine = getattr(args, "machine", None)
    if (machine is None) == (args.topology is None):
        raise ValueError("give exactly one of --topology and --machine")
    return parse_machine(args.topology if machine is None else machine)


def _compile_instance(args) -> tuple:
    """The (task graph, topology) pair a mapping subcommand operates on."""
    source = _load_source(args.program)
    result = compile_larcs(source, parse_bindings(args.bind))
    tg = result.task_graph
    if args.program in stdlib.PROGRAMS:
        # Nameable stdlib computations get their family tag so the canned
        # lookup fires, same as stdlib.load().
        tg.family = stdlib.family_tag(args.program, tg)
    return tg, _resolve_machine(args)


def _cmd_map(args) -> int:
    # First, so a bad cost-model flag fails before anything is printed.
    model = CostModel(
        hop_latency=args.hop_latency,
        byte_time=args.byte_time,
        exec_time=args.exec_time,
        switching=args.switching,
    )
    tg, topology = _compile_instance(args)
    mapping = run_pipeline(
        tg,
        topology,
        RunConfig.mapping_only(
            strategy=args.strategy,
            load_bound=args.load_bound,
            refine=args.refine,
        ),
        cache=default_cache(),
    ).mapping
    print(f"mapped {tg.name} -> {topology.name} via the {mapping.provenance!r} path")
    metrics = analyze(mapping)
    if args.report:
        print()
        print(render_report(mapping, metrics))
    if args.ascii:
        print()
        print(render_mapping_ascii(mapping))
        print()
        print(render_link_traffic(mapping, metrics))
    if args.simulate or args.timeline:
        sim = simulate(mapping, model)
        print()
        print(f"simulated completion time: {sim.total_time:g}")
        print(f"messages delivered:        {sim.messages}")
        print(f"busiest link utilisation:  {sim.max_link_utilization():.1%}")
        if args.timeline:
            print()
            print(render_timeline(mapping, sim))
    if not (args.report or args.ascii or args.simulate or args.timeline):
        print(f"total IPC {metrics.total_ipc:g}, "
              f"avg dilation {metrics.average_dilation:.3f}, "
              f"max contention {metrics.max_contention}, "
              f"est. completion {metrics.estimated_completion_time:g}")
    if args.save:
        from repro.io import save_mapping

        save_mapping(mapping, args.save)
        print(f"saved mapping to {args.save}")
    return 0


def _load_runconfig(path: str) -> RunConfig:
    """A :class:`RunConfig` from a JSON or TOML file (strict keys)."""
    text = Path(path).read_text()
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # Python < 3.11 has no stdlib TOML parser
            raise ValueError(
                f"TOML config {path!r} needs Python 3.11+; use JSON here"
            ) from None
        data = tomllib.loads(text)
    else:
        import json

        data = json.loads(text)
    return RunConfig.from_dict(data)


def _supervision(args) -> dict:
    """The supervision keywords every fan-out takes, from the shared flags."""
    from repro.runtime import RetryPolicy

    if args.retries is not None and args.retries < 0:
        raise ValueError(f"--retries must be >= 0, got {args.retries}")
    return {
        "executor": args.executor,
        "max_workers": args.workers,
        "deadline": args.deadline,
        "retry": RetryPolicy.from_retries(args.retries),
    }


def _cmd_run(args) -> int:
    """Run the staged pipeline from a config file; emit the result as JSON.

    The machine-readable counterpart of ``repro map``: one
    ``oregami-pipeline-result-v1`` JSON document on stdout, carrying the
    mapping, metrics, per-stage timings, fingerprints, and cache
    provenance.  Repeat invocations of the same instance are served from
    the on-disk artifact cache (see ``--no-cache``/``--resume off`` and
    the ``REPRO_CACHE``/``REPRO_CACHE_DIR`` environment knobs).

    ``--portfolio`` runs the full strategy portfolio instead (one
    ``oregami-portfolio-result-v1`` document; winner among survivors),
    journalling each strategy's candidate in that cache.
    ``--deadline``/``--retries`` put the run under the supervised
    runtime: hung workers are killed (exit 3), and a run whose every
    strategy/attempt failed exits 4 -- errors go to stderr, never into
    the stdout JSON.
    """
    import dataclasses
    import json

    tg, topology = _compile_instance(args)

    if args.portfolio:
        from repro.mapper import run_portfolio

        result = run_portfolio(
            tg, topology, resume=args.resume,
            cache=None if args.no_cache else default_cache(),
            **_supervision(args),
        )
        print(json.dumps(
            {"format": "oregami-portfolio-result-v1", **result.to_dict()},
            indent=1,
        ))
        return 0

    config = _load_runconfig(args.config) if args.config else RunConfig()
    if args.no_cache or args.resume == "off":
        config = dataclasses.replace(config, cache=False)
    store = default_cache() if config.cache else None
    if args.deadline is not None or args.retries is not None:
        # A killable worker process: a hung stage cannot wedge the CLI.
        # The worker computes uncached; this process looks the run up in
        # the store and records it, whatever the executor.
        from repro.pipeline.engine import cached_run, pipeline_task
        from repro.runtime import run_supervised

        supervision = _supervision(args) | {"executor": "process"}
        result = cached_run(store, tg, topology, config, lambda: run_supervised(
            pipeline_task,
            [(tg, topology, config)],
            keys=[f"{tg.name}->{topology.name}"],
            strict=True,
            **supervision,
        )[0].value)
    else:
        result = run_pipeline(tg, topology, config, cache=store)
    print(json.dumps(result.to_dict(), indent=1))
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.io import load_mapping
    from repro.metrics import metrics_to_dict

    mapping = load_mapping(args.mapping)
    metrics = analyze(mapping)
    if args.json:
        print(json.dumps(metrics_to_dict(metrics, mapping), indent=1))
        return 0
    print(f"loaded {mapping!r}")
    print()
    print(render_report(mapping, metrics))
    if args.ascii:
        print()
        print(render_mapping_ascii(mapping))
        print()
        print(render_link_traffic(mapping, metrics))
    return 0


def _parse_proc(text: str):
    """A processor label from the command line.

    ``3`` is the int label 3, ``0,1`` is the tuple label ``(0, 1)`` (mesh
    and hierarchy-generator machines label processors with coordinate
    tuples), anything else is a string label.
    """
    text = text.strip()
    if "," in text:
        return tuple(_parse_proc(part) for part in text.split(","))
    try:
        return int(text)
    except ValueError:
        return text


def _parse_link(spec: str) -> tuple:
    """A ``U-V`` link spec into an endpoint pair."""
    u, sep, v = spec.partition("-")
    if not sep or not u or not v:
        raise ValueError(f"link spec {spec!r} is not of the form U-V")
    return _parse_proc(u), _parse_proc(v)


def _parse_degraded(spec: str) -> tuple:
    """A ``U-V:FACTOR`` degraded-link spec into ``((u, v), factor)``."""
    link, sep, factor = spec.rpartition(":")
    if not sep:
        raise ValueError(
            f"degraded-link spec {spec!r} is not of the form U-V:FACTOR"
        )
    try:
        value = float(factor)
    except ValueError:
        raise ValueError(
            f"degraded-link spec {spec!r}: factor must be a number"
        ) from None
    return _parse_link(link), value


def _cmd_resilience(args) -> int:
    import json

    from repro.metrics.display import render_failure_sweep, render_repair
    from repro.resilience import FaultSet, failure_sweep, repair_mapping

    tg, topology = _compile_instance(args)
    mapping = map_computation(tg, topology, strategy=args.strategy)

    if args.sweep:
        sweep = failure_sweep(
            tg,
            topology,
            mapping=mapping,
            elements=args.sweep,
            resume=args.resume,
            cache=default_cache(),
            **_supervision(args),
        )
        if args.json:
            print(json.dumps(sweep.to_dict(), indent=1))
        else:
            print(render_failure_sweep(sweep, top=args.top))
        return 0

    if args.faults:
        from repro.io import load_faultset

        faults = load_faultset(args.faults)
    else:
        faults = FaultSet(
            failed_procs=[_parse_proc(p) for p in args.fail_proc],
            failed_links=[_parse_link(l) for l in args.fail_link],
            degraded_links=[_parse_degraded(d) for d in args.degrade_link],
        )
    if faults.is_empty:
        raise ValueError(
            "no faults given: use --fail-proc/--fail-link/--degrade-link, "
            "--faults FILE, or --sweep"
        )
    report = repair_mapping(tg, mapping, topology, faults, mode=args.mode)
    baseline = simulate(mapping).total_time
    repaired = simulate(report.mapping).total_time
    if args.json:
        print(json.dumps({
            "strategy": report.strategy,
            "fallback_reason": report.fallback_reason,
            "faults": {
                "failed_procs": sorted(map(str, faults.failed_procs)),
                "failed_links": sorted(
                    "-".join(map(str, sorted(l, key=repr)))
                    for l in faults.failed_links
                ),
                "degraded_links": [
                    ["-".join(map(str, l)), f] for l, f in faults.degraded_links
                ],
            },
            "moved_tasks": {
                str(t): [str(old), str(new)]
                for t, (old, new) in sorted(
                    report.moved_tasks.items(), key=lambda kv: repr(kv[0])
                )
            },
            "n_rerouted": report.n_rerouted,
            "migration_cost": report.migration_cost,
            "baseline_time": baseline,
            "repaired_time": repaired,
            "slowdown_ratio": repaired / baseline if baseline else float("inf"),
        }, indent=1))
        return 0
    print(render_repair(report))
    print()
    print(f"baseline completion time: {baseline:g}")
    print(f"repaired completion time: {repaired:g} "
          f"(x{repaired / baseline if baseline else float('inf'):.4g})")
    if args.save:
        from repro.io import save_mapping

        save_mapping(report.mapping, args.save)
        print(f"saved repaired mapping to {args.save}")
    return 0


def _parse_rates(specs: list[str]) -> dict | None:
    """``KIND=WEIGHT`` pairs for the scenario generator's rate table."""
    rates: dict[str, float] = {}
    for spec in specs:
        name, sep, value = spec.partition("=")
        if not sep:
            raise ValueError(
                f"bad --rate {spec!r}: expected KIND=WEIGHT "
                f"(e.g. arrival=4 fault=0.5)"
            )
        rates[name] = float(value)
    return rates or None


def _cmd_online(args) -> int:
    """Run a continuous-operation mapping session over an event stream."""
    import json

    from repro.online import (
        MappingSession,
        Scenario,
        SessionConfig,
        generate_scenario,
    )

    def given(**flags) -> dict:
        """The flags the user set; the rest keep their owner's default."""
        return {name: value for name, value in flags.items() if value is not None}

    tg, topology = _compile_instance(args)
    if args.scenario is not None:
        scenario = Scenario.from_dict(json.loads(Path(args.scenario).read_text()))
    else:
        scenario = generate_scenario(
            tg,
            topology,
            rates=_parse_rates(args.rate),
            **given(seed=args.seed, n_events=args.events),
        )
    if args.save_scenario is not None:
        Path(args.save_scenario).write_text(
            json.dumps(scenario.to_dict(), indent=1)
        )
        print(
            f"saved scenario ({len(scenario)} events) to {args.save_scenario}",
            file=sys.stderr,
        )

    config = SessionConfig(**given(
        strategy=args.strategy,
        drift_threshold=args.drift_threshold,
        clear_threshold=args.clear_threshold,
        cooldown_events=args.cooldown,
        amortize_events=args.amortize,
        state_volume=args.state_volume,
        remap_deadline_s=args.deadline,
        retries=args.retries,
        executor=args.executor,
        max_workers=args.workers,
        event_deadline_s=args.event_deadline,
        checkpoint_every=args.checkpoint_every,
    ))
    session = MappingSession(tg, topology, config, cache=default_cache())
    report = session.run(scenario.events, resume=args.resume)

    if args.json:
        print(json.dumps({
            "format": "oregami-online-v1",
            "scenario": {
                "name": scenario.name,
                "seed": scenario.seed,
                "events": len(scenario),
                "fingerprint": scenario.fingerprint(),
            },
            "report": report.to_dict(include_trace=args.trace),
        }, indent=1))
        return 0

    counters = report.counters
    latencies = sorted(r.elapsed_s for r in report.records) or [0.0]

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    print(f"session over {len(report.records)} events "
          f"({scenario.name}, seed {scenario.seed})")
    if report.resumed_at:
        print(f"  resumed from checkpoint at event {report.resumed_at}")
    for kind in ("arrival", "departure", "drift", "fault", "recovery"):
        n = counters.get(f"events_{kind}", 0)
        if n:
            print(f"  {kind:<10} {n}")
    print(f"  remaps triggered {counters.get('remaps_triggered', 0)}, "
          f"hot-swaps {counters.get('swaps', 0)}, "
          f"failed {counters.get('remaps_failed', 0)}")
    print(f"  per-event latency p50 {pct(0.50) * 1e3:.2f}ms, "
          f"p99 {pct(0.99) * 1e3:.2f}ms")
    print(f"  final comm cost {report.final_comm_cost:g} "
          f"(baseline {report.baseline_cost:g})")
    print(f"  trace fingerprint {report.trace_fingerprint}")
    return 0


def _cmd_serve(args) -> int:
    """Boot the long-lived mapping service (see ``docs/service.md``)."""
    from repro.pipeline.cache import ArtifactCache, budget_bytes, cache_dir
    from repro.serve.server import serve

    if args.no_cache:
        cache = None
    elif args.cache_dir is not None or args.max_cache_mb is not None:
        directory = args.cache_dir if args.cache_dir is not None else cache_dir()
        max_bytes = (
            budget_bytes(args.max_cache_mb, "--max-cache-mb")
            if args.max_cache_mb is not None else None
        )
        cache = ArtifactCache(directory, max_disk_bytes=max_bytes)
    else:
        cache = default_cache()  # honours REPRO_CACHE* knobs; may be None
    supervision = _supervision(args)
    return serve(
        args.host,
        args.port,
        workers=supervision.pop("max_workers"),
        cache=cache,
        quiet=not args.verbose,
        **supervision,
    )


def _cmd_machine(args) -> int:
    """Describe a machine spec: levels, bandwidth classes, capacities."""
    import json

    print(json.dumps(describe_machine(parse_machine(args.spec)), indent=1))
    return 0


def _cmd_cache(args) -> int:
    """Inspect or empty the shared on-disk artifact cache."""
    import json

    from repro.pipeline.cache import ArtifactCache, cache_dir, disk_stats

    directory = args.dir if args.dir is not None else cache_dir()
    if args.cache_command == "stats":
        stats = disk_stats(directory)
        if args.json:
            print(json.dumps(stats, indent=1))
        else:
            print(f"cache directory: {stats['directory']}")
            print(f"entries:         {stats['entries']}")
            print(f"bytes:           {stats['bytes']} "
                  f"({stats['bytes'] / (1024 * 1024):.2f} MiB)")
        return 0
    # clear: delete only cache artifacts (entries, locks, temp files),
    # never the directory itself or anything else that happens to live in it.
    before = disk_stats(directory)
    ArtifactCache(directory).clear(disk=True)
    print(f"cleared {before['entries']} entries "
          f"({before['bytes']} bytes) from {directory}")
    return 0


def _add_instance_flags(sub: argparse.ArgumentParser):
    """The instance a mapping subcommand works on: program, bindings, machine."""
    sub.add_argument("program", help="stdlib name or .larcs file path")
    sub.add_argument("--bind", nargs="*", default=[], metavar="NAME=INT")
    sub.add_argument("--topology", default=None, metavar="SPEC",
                     help="machine spec (hypercube:3, mesh:4x4, "
                          "fat_tree:4x8, ...; see 'repro topologies') or a "
                          "JSON machine file")
    sub.add_argument("--machine", default=None, metavar="SPEC",
                     help="the same as --topology; give one of the two")


def _add_supervision_flags(
    sub: argparse.ArgumentParser,
    *,
    executor_help: str,
    workers_help: str,
    executor_default: str = "serial",
    deadline_help: str = "per-task wall-clock budget; a hung worker is "
                         "killed, not awaited (exit code 3)",
    retries_help: str = "re-run a crashed/failed task up to N extra times "
                        "with deterministic backoff (default: 0)",
    resume_default: str | None = None,
):
    """The supervised-runtime flags of ``run``, ``resilience``, ``online``
    and ``serve`` (which has no journal, hence no ``--resume``)."""
    sub.add_argument("--executor", default=executor_default,
                     choices=["serial", "thread", "process"],
                     help=executor_help)
    sub.add_argument("--workers", type=int, default=None, help=workers_help)
    sub.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                     help=deadline_help)
    sub.add_argument("--retries", type=int, default=None, metavar="N",
                     help=retries_help)
    if resume_default is not None:
        sub.add_argument("--resume", default=resume_default,
                         choices=["auto", "off"],
                         help="'auto' checkpoints finished tasks so a killed run "
                              f"resumes bit-identically (default: {resume_default})")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OREGAMI: map parallel computations to parallel architectures",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stdlib", help="list the LaRCS standard library")
    sub.add_parser("topologies", help="list the --topology / --machine specs")

    p_compile = sub.add_parser("compile", help="compile a LaRCS program")
    p_compile.add_argument("program", help="stdlib name or .larcs file path")
    p_compile.add_argument("--bind", nargs="*", default=[], metavar="NAME=INT")
    p_compile.add_argument("--edges", action="store_true", help="dump all edges")

    p_map = sub.add_parser("map", help="compile, map, analyse")
    _add_instance_flags(p_map)
    p_map.add_argument("--strategy", default="auto",
                       choices=["auto", *strategy_names()])
    p_map.add_argument("--load-bound", type=int, default=None)
    p_map.add_argument("--refine", nargs="?", const=True, default=False,
                       choices=["none", "kl", "delta_gain"], metavar="METHOD",
                       help="refinement post-pass: 'kl' (the default when the "
                            "flag is given bare) or 'delta_gain' (the "
                            "vectorized large-graph kernel)")
    p_map.add_argument("--report", action="store_true")
    p_map.add_argument("--ascii", action="store_true")
    p_map.add_argument("--simulate", action="store_true")
    p_map.add_argument("--timeline", action="store_true",
                       help="draw the simulated step timeline")
    p_map.add_argument("--hop-latency", type=float, default=1.0)
    p_map.add_argument("--byte-time", type=float, default=1.0)
    p_map.add_argument("--exec-time", type=float, default=1.0)
    p_map.add_argument("--switching", default="store_and_forward",
                       choices=SWITCHING_MODES)
    p_map.add_argument("--save", metavar="FILE", default=None,
                       help="write the mapping to a JSON file")

    p_run = sub.add_parser(
        "run",
        help="run the staged pipeline from a RunConfig file, emit JSON",
    )
    _add_instance_flags(p_run)
    p_run.add_argument("--config", metavar="FILE", default=None,
                       help="RunConfig as JSON or TOML "
                            "(default: full pipeline, auto strategy)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="bypass the artifact cache for this run")
    p_run.add_argument("--portfolio", action="store_true",
                       help="race the full strategy portfolio and report the "
                            "winner among survivors (JSON)")
    _add_supervision_flags(
        p_run,
        executor_help="portfolio fan-out executor",
        workers_help="portfolio worker count (winner identical at any)",
        resume_default="auto",
    )

    p_analyze = sub.add_parser("analyze", help="analyse a saved mapping")
    p_analyze.add_argument("mapping", help="JSON file from 'map --save'")
    p_analyze.add_argument("--ascii", action="store_true")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit the metric suite as JSON")

    p_res = sub.add_parser(
        "resilience",
        help="inject faults, repair the mapping, or sweep all single faults",
    )
    _add_instance_flags(p_res)
    p_res.add_argument("--strategy", default="auto",
                       choices=["auto", *strategy_names()])
    p_res.add_argument("--fail-proc", action="append", default=[],
                       metavar="P", help="mark a processor failed (repeatable)")
    p_res.add_argument("--fail-link", action="append", default=[],
                       metavar="U-V", help="mark a link failed (repeatable)")
    p_res.add_argument("--degrade-link", action="append", default=[],
                       metavar="U-V:FACTOR",
                       help="slow a link by FACTOR >= 1 (repeatable)")
    p_res.add_argument("--faults", metavar="FILE", default=None,
                       help="load the fault set from a JSON file instead")
    p_res.add_argument("--mode", default="auto",
                       choices=["auto", "incremental", "full"],
                       help="repair strategy (auto falls back to full)")
    p_res.add_argument("--sweep", default=None,
                       choices=["processors", "links", "both"],
                       help="rank every single fault instead of repairing one set")
    _add_supervision_flags(
        p_res,
        executor_help="sweep fan-out executor",
        workers_help="sweep worker count (results are identical at any)",
        resume_default="off",
    )
    p_res.add_argument("--top", type=int, default=10,
                       help="rows of the criticality ranking to print")
    p_res.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    p_res.add_argument("--save", metavar="FILE", default=None,
                       help="write the repaired mapping to a JSON file")

    p_online = sub.add_parser(
        "online",
        help="run a continuous-operation mapping session over an event "
             "stream (see docs/online.md)",
    )
    _add_instance_flags(p_online)
    p_online.add_argument("--strategy", default="auto",
                          choices=["auto", *strategy_names()])
    p_online.add_argument("--scenario", metavar="FILE", default=None,
                          help="replay a saved oregami-scenario-v1 JSON "
                               "event stream instead of generating one")
    p_online.add_argument("--events", type=int, default=None,
                          help="events to generate (ignored with --scenario)")
    p_online.add_argument("--seed", type=int, default=None,
                          help="scenario generator seed")
    p_online.add_argument("--rate", action="append", default=[],
                          metavar="KIND=WEIGHT",
                          help="override a generator rate, e.g. arrival=6 "
                               "fault=0 (repeatable)")
    p_online.add_argument("--save-scenario", metavar="FILE", default=None,
                          help="write the (generated or loaded) scenario "
                               "to a JSON file")
    p_online.add_argument("--drift-threshold", type=float, default=None,
                          help="relative comm-cost drift that arms a "
                               "background full remap")
    p_online.add_argument("--clear-threshold", type=float, default=None,
                          help="drift level that re-arms the trigger after "
                               "a decision (hysteresis)")
    p_online.add_argument("--cooldown", type=int, default=None,
                          help="events between remap decisions")
    p_online.add_argument("--amortize", type=int, default=None,
                          help="events a hot-swap's per-event gain must "
                               "pay back the migration cost over")
    p_online.add_argument("--state-volume", type=float, default=None,
                          help="task state bytes moved per migration")
    p_online.add_argument("--event-deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="per-event soft budget (overruns are "
                               "flagged in the trace, never dropped)")
    p_online.add_argument("--checkpoint-every", type=int, default=None,
                          help="journal the session state every N events")
    _add_supervision_flags(
        p_online,
        executor_help="background remap portfolio executor",
        workers_help="portfolio worker count (trace identical at any)",
        resume_default="off",
    )
    p_online.add_argument("--trace", action="store_true",
                          help="include the full per-event trace in JSON "
                               "output")
    p_online.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON")

    p_serve = sub.add_parser(
        "serve",
        help="run the mapping pipeline as a long-lived HTTP service",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8000,
                         help="0 binds an ephemeral port (named in the "
                              "ready line on stdout)")
    _add_supervision_flags(
        p_serve,
        executor_default="thread",
        executor_help="executor each cold request's supervised run uses "
                      "('process' gives kill-hard worker isolation at "
                      "fork cost)",
        workers_help="how many cold requests compute at once (default: "
                     "the executor's supervised fan-out width; 1 with "
                     "'serial')",
        deadline_help="default per-request wall-clock budget (requests may "
                      "override via 'deadline_s'; a blown budget answers 504)",
        retries_help="re-run a crashed request up to N extra times",
    )
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="shared artifact cache directory "
                              "(default: REPRO_CACHE_DIR or the platform "
                              "cache home)")
    p_serve.add_argument("--max-cache-mb", type=float, default=None,
                         metavar="MB",
                         help="disk-tier byte budget; least-recently-used "
                              "entries are evicted beyond it")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve without a shared cache (every request "
                              "computes)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each request to stderr")

    p_machine = sub.add_parser(
        "machine",
        help="inspect hierarchical machine specs",
    )
    machine_sub = p_machine.add_subparsers(dest="machine_command", required=True)
    p_machine_show = machine_sub.add_parser(
        "show",
        help="print a machine's levels, bandwidth classes, and "
             "aggregate capacities as JSON",
    )
    p_machine_show.add_argument(
        "spec",
        help="machine spec (fat_tree:4x8, mesh:4x4, ...; see 'repro "
             "topologies') or JSON machine file",
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect or empty the shared on-disk artifact cache",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="entry count / byte footprint of the disk tier"
    )
    p_cache_stats.add_argument("--dir", default=None, metavar="DIR",
                               help="cache directory (default: "
                                    "REPRO_CACHE_DIR or the platform home)")
    p_cache_stats.add_argument("--json", action="store_true",
                               help="machine-readable output")
    p_cache_clear = cache_sub.add_parser(
        "clear", help="delete every cached entry"
    )
    p_cache_clear.add_argument("--dir", default=None, metavar="DIR",
                               help="cache directory (default: "
                                    "REPRO_CACHE_DIR or the platform home)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "stdlib": _cmd_stdlib,
        "topologies": _cmd_topologies,
        "compile": _cmd_compile,
        "map": _cmd_map,
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "resilience": _cmd_resilience,
        "online": _cmd_online,
        "serve": _cmd_serve,
        "machine": _cmd_machine,
        "cache": _cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return 0  # output piped into a pager/head that closed early
    except SupervisionError as exc:
        # Structured toolchain failures: stderr only (stdout stays pure
        # JSON), with the attempt history, and a distinct exit code --
        # 3 for deadline kills, 4 when every strategy/attempt failed.
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        for att in exc.attempts:
            line = f"  attempt {att.number}: {att.outcome}"
            if att.detail:
                line += f" ({att.detail})"
            if att.backoff_s:
                line += f" [backoff {att.backoff_s:.3f}s]"
            print(line, file=sys.stderr)
        return exit_code_for(exc)
    except (ValueError, KeyError, NotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
