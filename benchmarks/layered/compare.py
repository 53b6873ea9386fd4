"""Compare two sets of benchmark documents metric by metric.

    python -m benchmarks.layered compare A.json B.json
    python -m benchmarks.layered compare A1.json,A2.json,A3.json B1.json,B2.json,B3.json

One row per (workload, metric) with both values, their ratio, the bound
and a verdict.  Each side is one document or several separated by commas;
with several, a metric's value is its median over them, which is what to
use on a noisy host.  An end-to-end metric that worsened from A to B by
more than its bound, on a workload where the metric is gated
(``spec.Metric.gates``), is a breach and makes the exit code non-zero;
``failed_share`` may not rise at all.  Per-layer rows, and end-to-end
timings on the workloads where they do not repeat, are printed for reading
and never gated.  Documents of different run lengths are refused.
"""

from __future__ import annotations

import json
import statistics
import sys

from benchmarks.layered import spec


def worsening(metric: spec.Metric, a: float, b: float) -> float:
    """How much worse *b* is than *a*, as a share of *a*."""
    if a == 0:
        return 0.0 if b == 0 else float("inf") * (1 if b > a else -1)
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def _value(docs: list[dict], workload: str, mode: str, group: str, name: str):
    """The median over *docs* of one metric, ignoring documents that lack
    it; ``None`` when none has it."""
    found = [d["workloads"][workload][mode][group].get(name) for d in docs
             if mode in d["workloads"].get(workload, {})]
    found = [v for v in found if v is not None]
    return statistics.median(found) if found else None


def rows(docs_a, docs_b) -> list[dict]:
    """The comparison table; each side is a document or a list of them."""
    docs_a = [docs_a] if isinstance(docs_a, dict) else docs_a
    docs_b = [docs_b] if isinstance(docs_b, dict) else docs_b
    doc_a, doc_b = docs_a[0], docs_b[0]
    out = []
    for workload in spec.WORKLOADS:
        a = doc_a["workloads"].get(workload)
        b = doc_b["workloads"].get(workload)
        if a is None or b is None:
            continue
        for metric in spec.e2e_for(workload):
            va = _value(docs_a, workload, "untraced", "end_to_end", metric.name)
            vb = _value(docs_b, workload, "untraced", "end_to_end", metric.name)
            row = {"workload": workload, "metric": metric.name, "a": va, "b": vb,
                   "unit": metric.unit, "bound": metric.bound,
                   "gated": metric.gates(workload)}
            if va is None or vb is None:
                row.update(ratio=None, verdict="n/a")
            else:
                row["ratio"] = vb / va if va else None
                if not row["gated"]:
                    row["verdict"] = "-"
                elif worsening(metric, va, vb) > metric.bound:
                    row["verdict"] = "BREACH"
                else:
                    row["verdict"] = "ok"
            out.append(row)
        if doc_a.get("seed") == doc_b.get("seed") and workload == "online_churn":
            fa = a["untraced"]["extras"].get("trace_fingerprints", [])
            fb = b["untraced"]["extras"].get("trace_fingerprints", [])
            same = all(x == y for x, y in zip(fa, fb))
            out.append({"workload": workload, "metric": "trace_fingerprint",
                        "a": len(fa), "b": len(fb), "unit": "sessions",
                        "bound": 0.0, "gated": True, "ratio": None,
                        "verdict": "ok" if same else "BREACH"})
        if "traced" in a and "traced" in b:
            for metric in spec.PER_LAYER:
                va = _value(docs_a, workload, "traced", "per_layer", metric.name)
                vb = _value(docs_b, workload, "traced", "per_layer", metric.name)
                if va is None and vb is None:
                    continue
                out.append({
                    "workload": workload, "metric": metric.name, "a": va, "b": vb,
                    "unit": metric.unit, "bound": None, "gated": False,
                    "ratio": vb / va if va and vb is not None else None,
                    "verdict": "-",
                })
    return out


def _show(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def _load(paths: str) -> list[dict]:
    docs = []
    for path in paths.split(","):
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def main(paths_a: str, paths_b: str) -> int:
    docs_a, docs_b = _load(paths_a), _load(paths_b)
    lengths = {d.get("seconds") for d in (*docs_a, *docs_b)}
    if len(lengths) != 1:
        print(f"error: the documents measured for different run lengths "
              f"({sorted(map(str, lengths))} s); they do not compare", file=sys.stderr)
        return 2
    table = rows(docs_a, docs_b)
    print(f"{'workload':13s} {'metric':34s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>8s} {'bound':>6s} verdict")
    for row in table:
        print(f"{row['workload']:13s} {row['metric']:34s} {_show(row['a']):>12s} "
              f"{_show(row['b']):>12s} {_show(row['ratio']):>8s} "
              f"{_show(row['bound']) if row['gated'] else '-':>6s} {row['verdict']}")
    breaches = [r for r in table if r["verdict"] == "BREACH"]
    print(f"{len(breaches)} end-to-end breach(es)")
    return 1 if breaches else 0
