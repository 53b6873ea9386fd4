"""The layered benchmark's command line.

    PYTHONPATH=src python -m benchmarks.layered --seed N [--workload NAME]
        [--trace] [--out FILE]
    PYTHONPATH=src python -m benchmarks.layered compare A.json B.json

The first form runs each workload in a fresh child process (``run.py``),
prints every metric by name with its unit, checks outputs, and writes one
JSON document.  End-to-end numbers always come from an untraced run;
``--trace`` runs every workload a second time with spans recorded in the
harness, for the per-layer numbers, and reports the throughput difference
between the two runs as ``trace_overhead``.  The exit code is non-zero when
an output check fails or a workload does not isolate what it claims to.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from benchmarks.layered import compare, spec
from benchmarks.layered.harness import HERE, TempRoot, host_meta

_QUALITY = ("comm_cost_geomean", "completion_time_geomean", "cost_vs_oracle")


def _run_child(workload: str, seed: int, traced: bool,
               out_path: str, trace_out: str | None) -> dict | None:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec.RUN_SECONDS), "--trace", str(int(traced)),
               "--out", out_path]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))        # the last line is the driver's JSON
    if done.returncode != 0 or not os.path.exists(out_path):
        print(f"error: {workload} exited with code {done.returncode}",
              file=sys.stderr)
        return None
    with open(out_path) as fh:
        return json.load(fh)


def _same_outputs(untraced: dict, traced: dict) -> bool:
    """Traced and untraced runs of one seed must agree on every quality
    metric and, for sessions, on the trace fingerprints."""
    for name in _QUALITY:
        if untraced["end_to_end"].get(name) != traced["end_to_end"].get(name):
            return False
    pairs = zip(untraced["extras"].get("trace_fingerprints", []),
                traced["extras"].get("trace_fingerprints", []))
    return all(a == b for a, b in pairs)


def run(args) -> int:
    workloads = args.workload or list(spec.WORKLOADS)
    unknown = [w for w in workloads if w not in spec.WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from "
              f"{', '.join(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    document = {
        "format": "oregami-layered-bench-v1",
        "seed": args.seed,
        "seconds": spec.RUN_SECONDS,
        "host": host_meta(),
        "metrics": {
            "end_to_end": [vars(m) for m in spec.E2E],
            "per_layer": [vars(m) for m in spec.PER_LAYER],
        },
        "workloads": {},
    }
    problems = []
    tmp = TempRoot()
    # A terminated run must take its child with it: as an exception, the
    # signal makes ``subprocess.run`` kill the child and the temp go.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        for workload in workloads:
            entry: dict = {"why": spec.WORKLOADS[workload]}
            modes = (False, True) if args.trace else (False,)
            for traced in modes:
                trace_out = None
                if traced and args.out:
                    trace_out = f"{os.path.splitext(args.out)[0]}.trace.{workload}.json"
                doc = _run_child(
                    workload, args.seed, traced,
                    os.path.join(tmp.path, f"{workload}.{int(traced)}.json"),
                    trace_out)
                if doc is None:
                    problems.append(f"{workload}: run failed")
                    break
                entry["traced" if traced else "untraced"] = doc
                if not doc["correct"]:
                    problems.append(f"{workload}: {doc['failed']} of "
                                    f"{doc['attempted']} operations failed")
                problems += [f"{workload}: does not hold: {claim}"
                             for claim, holds in doc["isolation"].items() if not holds]
            if "traced" in entry and "untraced" in entry:
                plain = entry["untraced"]["end_to_end"]["throughput_ops_s"]
                traced = entry["traced"]["end_to_end"]["throughput_ops_s"]
                entry["trace_overhead"] = 1.0 - traced / plain
                entry["traced_equals_untraced"] = _same_outputs(
                    entry["untraced"], entry["traced"])
                print(f"  {workload}: trace_overhead {entry['trace_overhead']:+.4f} "
                      f"(share of untraced throughput), traced outputs "
                      f"{'equal' if entry['traced_equals_untraced'] else 'DIFFER from'}"
                      f" untraced")
                if not entry["traced_equals_untraced"]:
                    problems.append(f"{workload}: traced and untraced outputs differ")
            document["workloads"][workload] = entry
    finally:
        tmp.close()
    document["problems"] = problems
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1)
        print(f"wrote {args.out}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="benchmarks.layered compare",
                                         description=compare.__doc__)
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare.main(args.a, args.b)
    parser = argparse.ArgumentParser(prog="benchmarks.layered", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--trace", action="store_true",
                        help="also run every workload traced, for per-layer numbers")
    parser.add_argument("--out", help="write the benchmark document here")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
