"""Run one workload once and print its metrics.

    python3 benchmarks/layered/run.py --workload NAME --seed N
        --seconds S --trace 0|1 [--out FILE] [--trace-out FILE]

This is the command ``/BENCHMARK.json`` names.  It prints every metric by
name with its unit, then, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
that ``/BENCHMARK.json`` lists.  ``python -m benchmarks.layered`` runs it
once per workload in a fresh process and gathers the ``--out`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def _prepare_imports() -> None:
    """Put the checkout and its ``src`` first on the path."""
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"error: no program to measure: {src}/repro is missing")
    for path in (src, REPO_ROOT):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def _hermetic_environment(tmp) -> None:
    """No chaos plan, no inherited cache settings, and a fresh, empty
    default cache directory that dies with the run."""
    from benchmarks.layered.harness import without_repro_knobs

    for name in set(os.environ) - set(without_repro_knobs(os.environ)):
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = tmp.fresh("default-cache")


def _raise_exit(signum, _frame):
    raise SystemExit(128 + signum)


def result_document(ctx, outcome) -> dict:
    from benchmarks.layered import spec

    defined = {m.name for m in spec.e2e_for(ctx.workload)}
    return {
        "format": "oregami-layered-run-v1",
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "traced": ctx.trace,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "end_to_end": {k: v for k, v in outcome.e2e.items() if k in defined},
        "per_layer": outcome.per_layer if ctx.trace else {},
        "isolation": outcome.isolation,
        "instances": outcome.instances,
        "extras": outcome.extras,
        "warnings": outcome.warnings,
    }


def driver_line(doc: dict, traced: bool) -> dict:
    """The last line: exactly the metrics ``/BENCHMARK.json`` lists for
    this mode.  A metric that is not defined on this workload, or whose
    probe has gone, reads 0."""
    from benchmarks.layered import spec

    listed = spec.driver_per_layer() if traced else spec.driver_e2e()
    have = {**doc["end_to_end"], **doc["per_layer"]}
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            m.name: {"value": have.get(m.name) or 0.0, "unit": m.unit}
            for m in listed
        },
    }


def print_metrics(doc: dict) -> None:
    from benchmarks.layered import spec

    units = {m.name: m.unit for m in (*spec.E2E, *spec.PER_LAYER)}
    print(f"workload {doc['workload']} seed {doc['seed']} "
          f"{'traced' if doc['traced'] else 'untraced'}: "
          f"{doc['attempted']} attempted, {doc['failed']} failed")
    for group in ("end_to_end", "per_layer"):
        for name, value in doc[group].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {group:10s} {name:34s} {shown:>14s} {units.get(name, '')}")
    for claim, holds in doc["isolation"].items():
        print(f"  isolation  {claim}: {'holds' if holds else 'DOES NOT HOLD'}")
    for message in doc["failures"]:
        print(f"  failure    {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: the benchmark's "
                             "run length; results of different lengths do not compare)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run document here")
    parser.add_argument("--trace-out", help="write the recorded spans here")
    args = parser.parse_args(argv)

    _prepare_imports()
    from benchmarks.layered import spec
    from benchmarks.layered.harness import TempRoot
    from benchmarks.layered.workloads import run_workload
    from benchmarks.layered.workloads.common import Context

    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(spec.WORKLOADS)}")
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _raise_exit)
    tmp = TempRoot()
    try:
        _hermetic_environment(tmp)
        ctx = Context(
            workload=args.workload, seed=args.seed,
            seconds=args.seconds if args.seconds is not None else spec.RUN_SECONDS,
            trace=bool(args.trace), tmp=tmp,
        )
        outcome = run_workload(ctx)
    finally:
        tmp.close()

    doc = result_document(ctx, outcome)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    if args.trace_out and outcome.tracer is not None:
        with open(args.trace_out, "w") as fh:
            json.dump(outcome.tracer.dump(), fh)
    print_metrics(doc)
    print(json.dumps(driver_line(doc, ctx.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
