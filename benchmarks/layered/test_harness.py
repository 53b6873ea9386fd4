"""Self-tests of the layered benchmark's harness.

Collected by CI's ``pytest benchmarks`` step.  The smoke pass runs every
workload on a cut-down instance set (a second or two each) and validates
the document it produces; the rest pins the schema, the statistics, the
guarded probes, the independent checks and the comparison.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.layered import checks, compare, run, spec
from benchmarks.layered.harness import (
    HERE,
    REPO_ROOT,
    Probes,
    TempRoot,
    Tracer,
    percentile,
    without_repro_knobs,
)
from benchmarks.layered.workloads import run_workload
from benchmarks.layered.workloads.common import Context, best_of

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# ----------------------------------------------------------------------
# the metric table and /BENCHMARK.json
# ----------------------------------------------------------------------

def test_names_units_and_limits():
    e2e, per_layer = spec.driver_e2e(), spec.driver_per_layer()
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    assert 2 <= len(spec.WORKLOADS) <= 8
    names = [m.name for m in (*e2e, *per_layer)] + list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in (*spec.E2E, *spec.PER_LAYER):
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
        assert set(metric.workloads) <= set(spec.WORKLOADS), metric
    setup = next(m for m in e2e if m.name == "setup_s")
    assert (setup.unit, setup.better, setup.bound) == ("s", "lower", 0.25)
    for metric in spec.E2E:
        assert metric.bound is not None, metric
        # a timing that does not repeat is demoted, never given a wider bound
        assert metric is setup or 0 <= metric.bound <= 0.10, metric
    for why in spec.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_a_demoted_timing_is_reported_everywhere_and_gated_where_it_repeats():
    throughput = next(m for m in spec.E2E if m.name == "throughput_ops_s")
    assert throughput.workloads == spec.ALL
    assert throughput.gates("serve_warm") and not throughput.gates("map_scale")
    oracle = next(m for m in spec.E2E if m.name == "cost_vs_oracle")
    assert oracle.gates("online_churn") and not oracle.gates("paper_batch")
    assert not spec.PER_LAYER[0].gates("paper_batch")
    # the driver holds every workload to every bound in its one list
    for metric in spec.driver_e2e():
        assert all(metric.gates(w) for w in spec.WORKLOADS), metric
    listed = {m.name for m in (*spec.driver_e2e(), *spec.driver_per_layer())}
    assert listed == {m.name for m in (*spec.E2E, *spec.PER_LAYER)} - {"failed_share"}


def test_benchmark_json_is_the_table():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == spec.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 1 <= committed["run_seconds"] <= 60


# ----------------------------------------------------------------------
# the smoke pass
# ----------------------------------------------------------------------

@pytest.fixture
def hermetic(monkeypatch):
    tmp = TempRoot()
    for name in set(os.environ) - set(without_repro_knobs(os.environ)):
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_CACHE_DIR", tmp.fresh("default-cache"))
    from repro.pipeline import reset_default_cache

    reset_default_cache()
    yield tmp
    tmp.close()
    reset_default_cache()


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_produces_a_valid_document(workload, hermetic):
    ctx = Context(workload=workload, seed=7, seconds=0.3, trace=True,
                  tmp=hermetic, smoke=True)
    outcome = run_workload(ctx)
    doc = run.result_document(ctx, outcome)

    assert doc["failed"] == 0, doc["failures"]
    assert doc["attempted"] >= 1 and doc["correct"]
    expected = {m.name for m in spec.e2e_for(workload)}
    assert set(doc["end_to_end"]) == expected
    for name, value in doc["end_to_end"].items():
        assert NAME.match(name)
        assert value is None or isinstance(value, (int, float)), name
        if value is None:
            assert name == "latency_p99_ms"
    known = {m.name for m in spec.PER_LAYER}
    assert doc["per_layer"] and set(doc["per_layer"]) <= known
    # a percentile is reported only with ten samples beyond it
    if doc["end_to_end"].get("latency_p99_ms") is not None:
        assert doc["extras"]["samples_beyond_p99"] >= 10
    for metric in spec.driver_e2e():
        assert doc["end_to_end"][metric.name] > 0, metric.name

    for traced, listed in ((False, spec.driver_e2e()), (True, spec.driver_per_layer())):
        line = run.driver_line(doc, traced)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m.name for m in listed]
        for entry in line["metrics"].values():
            assert isinstance(entry["value"], (int, float))
    json.dumps(doc)
    assert outcome.tracer is not None and outcome.tracer.rows


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "layered",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", "--workload", "paper_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()


# ----------------------------------------------------------------------
# statistics, spans, probes
# ----------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(999), 99) is None
    assert percentile(range(1, 1001), 99) == 990
    assert percentile(range(1, 201), 95) == 190
    assert percentile(range(199), 95) is None


def test_best_of_takes_the_fastest_and_skips_the_empty():
    assert best_of({"a": [3.0, 1.0, 2.0], "b": []}) == {"a": 1.0}


def test_tracer_self_time_and_coverage():
    tracer = Tracer()
    root = tracer.add("op", 0.0, 10.0)
    tracer.add("x", 1.0, 4.0, root)
    tracer.add("x", 5.0, 9.0, root)
    totals = tracer.totals()
    assert totals["op"]["self_s"] == pytest.approx(3.0)
    assert totals["x"] == {"calls": 2, "total_s": 7.0, "self_s": 7.0}
    assert tracer.coverage("op") == pytest.approx(0.7)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.rows[-1][3] == len(tracer.rows) - 2


def test_probe_whose_function_has_gone_reports_null(capsys):
    import types

    shrunk = types.SimpleNamespace()            # a module that lost a function
    probes = Probes()
    assert probes.time("serve.parse_ms", lambda: shrunk.parse_map_request(b"")) is None
    probes.value("cache.entry_bytes", lambda: shrunk.stats()["bytes"])
    probes.time("graph.csr_ms", lambda: 42)
    summary = probes.summary()
    assert summary["serve.parse_ms"] is None and summary["cache.entry_bytes"] is None
    assert summary["graph.csr_ms"] >= 0
    assert len(probes.warnings) == 2
    assert "reported as null" in capsys.readouterr().err
    # the driver's line carries a number all the same
    doc = {"correct": True, "attempted": 1, "failed": 0, "end_to_end": {},
           "per_layer": summary}
    assert run.driver_line(doc, True)["metrics"]["serve.parse_ms"]["value"] == 0.0


# ----------------------------------------------------------------------
# the independent checks
# ----------------------------------------------------------------------

def _square() -> checks.PlainMapping:
    """Four tasks in a ring on a four-processor ring."""
    return checks.PlainMapping(
        weights={t: 1.0 for t in "abcd"},
        edges={"ring": [("a", "b", 2.0), ("b", "c", 2.0), ("c", "d", 2.0), ("a", "c", 1.0)]},
        procs={0, 1, 2, 3},
        links={frozenset(p) for p in ((0, 1), (1, 2), (2, 3), (3, 0))},
        assignment={"a": 0, "b": 1, "c": 2, "d": 3},
        routes={("ring", 0): [0, 1], ("ring", 1): [1, 2], ("ring", 2): [2, 3],
                ("ring", 3): [0, 1, 2]},
    )


def test_checks_accept_a_sound_mapping():
    pm = _square()
    model = {"hop_latency": 1.0, "byte_time": 1.0, "switching": "store_and_forward"}
    assert checks.check_mapping(pm, 4.0, ["ring"], **model) == []
    assert checks.routed_comm_cost(pm) == 8.0
    assert checks.longest_message_time(pm, ["ring"], **model) == 4.0
    cut = dict(model, switching="cut_through")
    assert checks.longest_message_time(pm, ["ring"], **cut) == 3.0


def test_checks_catch_each_kind_of_damage():
    model = {"hop_latency": 1.0, "byte_time": 1.0, "switching": "store_and_forward"}
    pm = _square()
    pm.assignment["d"] = 9                                  # dead processor
    assert "not a processor" in checks.check_assignment(pm)[0]
    pm = _square()
    del pm.assignment["b"]
    assert "not assigned" in checks.check_assignment(pm)[0]
    pm = _square()
    pm.routes[("ring", 3)] = [0, 2]                         # no such link
    assert "over no link" in checks.check_routes(pm)[0]
    pm = _square()
    pm.routes[("ring", 0)] = [0, 3]                         # wrong endpoint
    assert "does not join" in checks.check_routes(pm)[0]
    pm = _square()
    del pm.routes[("ring", 1)]
    assert "missing" in checks.check_routes(pm)[0]
    pm = _square()
    pm.rules, pm.caps = ("weight",), {p: (1.0,) for p in pm.procs}
    assert checks.check_capacity(pm) == []
    pm.weights["a"] = 1.5                                   # overflow
    assert "holds" in checks.check_capacity(pm)[0]
    assert "below" in checks.check_total_time(_square(), 3.5, ["ring"], **model)[0]


def test_document_form_round_trips_tuple_labels():
    doc = {
        "task_graph": {"nodes": [{"label": [0, 1], "weight": 2.0},
                                 {"label": [1, 1], "weight": 1.0}],
                       "comm_phases": [{"name": "p", "edges": [[[0, 1], [1, 1], 3.0]]}]},
        "topology": {"processors": [[0, 0], [0, 1]], "links": [[[0, 0], [0, 1]]],
                     "capacities": {"resources": [["memory", "weight"]],
                                    "caps": [[[0, 0], [2.0]], [[0, 1], [1.0]]]}},
        "assignment": [[[0, 1], [0, 0]], [[1, 1], [0, 1]]],
        "routes": [{"phase": "p", "edge": 0, "path": [[0, 0], [0, 1]]}],
    }
    pm = checks.from_doc(doc)
    assert checks.check_mapping(pm) == []
    assert checks.routed_comm_cost(pm) == 3.0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _bench_doc(seconds=14, **changes) -> dict:
    e2e = {"setup_s": 1.0, "throughput_ops_s": 100.0, "latency_p50_ms": 10.0,
           "latency_p99_ms": None, "instance_geomean_ms": 10.0,
           "cli_oneshot_s": 0.7, "comm_cost_geomean": 133.0,
           "completion_time_geomean": 178.0, "peak_rss_mb": 100.0,
           "failed_share": 0.0}
    e2e.update(changes)
    runs = {
        "untraced": {"end_to_end": e2e, "extras": {}},
        "traced": {"per_layer": {"larcs.compile_ms": 9.0 * e2e["latency_p50_ms"] / 10}},
    }
    return {"seed": 1, "seconds": seconds,
            "workloads": {"paper_batch": runs, "serve_warm": runs}}


def _moved(name: str, value: float, share_of_bound: float) -> float:
    """*value* made worse by *share_of_bound* times the metric's bound."""
    metric = next(m for m in spec.E2E if m.name == name)
    step = share_of_bound * metric.bound
    return value * (1 + step) if metric.better == "lower" else value * (1 - step)


def test_compare_gates_end_to_end_only(tmp_path, capsys):
    base = _bench_doc()
    start = base["workloads"]["serve_warm"]["untraced"]["end_to_end"]
    moved = ("latency_p50_ms", "throughput_ops_s", "comm_cost_geomean")

    def verdicts(other):
        return {(r["workload"], r["metric"]): r["verdict"]
                for r in compare.rows(base, other)}

    inside = verdicts(_bench_doc(**{n: _moved(n, start[n], 0.9) for n in moved}))
    assert all(inside["serve_warm", n] == "ok" for n in moved), inside
    assert inside["serve_warm", "latency_p99_ms"] == "n/a"
    assert inside["serve_warm", "larcs.compile_ms"] == "-"

    worse_doc = _bench_doc(failed_share=0.001,
                           **{n: _moved(n, start[n], 1.1) for n in moved})
    worse = verdicts(worse_doc)
    for name in (*moved, "failed_share"):
        assert worse["serve_warm", name] == "BREACH", name
    assert worse["serve_warm", "larcs.compile_ms"] == "-"   # printed, never gated
    # the CPU-bound timings do not repeat on this host: printed, not gated
    assert worse["paper_batch", "latency_p50_ms"] == "-"
    assert worse["paper_batch", "throughput_ops_s"] == "-"
    assert worse["paper_batch", "comm_cost_geomean"] == "BREACH"

    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(worse_doc))
    c.write_text(json.dumps(_bench_doc(seconds=7)))
    assert compare.main(str(a), str(a)) == 0
    assert compare.main(str(a), str(b)) == 1
    assert "BREACH" in capsys.readouterr().out
    assert compare.main(str(a), str(c)) == 2            # different run lengths
    assert "do not compare" in capsys.readouterr().err
