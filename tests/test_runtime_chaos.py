"""The chaos suite: supervised fan-outs under injected toolchain faults.

Three acceptance properties from the robustness PR live here:

* **Graceful degradation** -- a portfolio/sweep under chaos completes
  with explicit failed entries and deterministic winners/rankings among
  the survivors, never a hang or an unstructured crash.
* **No-chaos equivalence** -- with chaos off, every entry point's output
  is bit-identical to a plain unsupervised run.
* **Kill + resume** -- a run killed mid-flight and re-invoked with the
  same inputs resumes from its checkpoint journal and produces output
  bit-identical to an uninterrupted run.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.arch import networks
from repro.errors import AllStrategiesFailed
from repro.graph import families
from repro.graph.taskgraph import TaskGraph
from repro.mapper import run_portfolio
from repro.pipeline import ArtifactCache, RunConfig, default_portfolio
from repro.pipeline.engine import pipeline_task
from repro.resilience import failure_sweep
from repro.runtime import (
    ChaosPlan,
    KILL_EXIT_CODE,
    RetryPolicy,
    resume_journal,
    run_supervised,
)

#: Near-zero backoff so multi-attempt tests stay fast.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.001)


def _instance():
    return families.nbody(15), networks.hypercube(3)


class TestPortfolioUnderChaos:
    def test_crashed_strategy_becomes_failed_candidate(self):
        clean = run_portfolio(*_instance())
        winner_index = [c.strategy for c in clean.candidates].index(clean.winner)
        chaotic = run_portfolio(
            *_instance(), chaos=ChaosPlan(crashes=[(winner_index, 1)])
        )
        dead = chaotic.candidates[winner_index]
        assert not dead.ok and dead.failed and dead.error_kind == "crash"
        # The portfolio degraded to the best survivor, deterministically.
        survivors = [c for c in chaotic.candidates if c.ok]
        assert survivors
        assert chaotic.completion_time == min(
            c.completion_time for c in survivors
        )
        assert chaotic.winner != clean.winner

    @pytest.mark.parametrize(
        "executor,workers", [("serial", None), ("thread", 2), ("thread", 4)]
    )
    def test_chaotic_winner_is_executor_independent(self, executor, workers):
        chaos = ChaosPlan(crashes=[(0, 1)], transients=[(2, 1)])
        baseline = run_portfolio(*_instance(), chaos=chaos, retry=FAST_RETRY)
        other = run_portfolio(
            *_instance(), chaos=chaos, retry=FAST_RETRY,
            executor=executor, max_workers=workers,
        )
        assert other.to_dict() == baseline.to_dict()

    def test_all_strategies_crashing_raises_all_failed(self):
        chaos = ChaosPlan(
            crashes=[(i, 1) for i in range(len(default_portfolio()))]
        )
        with pytest.raises(AllStrategiesFailed, match="no portfolio strategy"):
            run_portfolio(*_instance(), chaos=chaos)

    def test_transients_with_retries_match_the_clean_run(self):
        clean = run_portfolio(*_instance())
        chaos = ChaosPlan(transients=[(i, 1) for i in range(3)])
        retried = run_portfolio(*_instance(), chaos=chaos, retry=FAST_RETRY)
        assert retried.to_dict() == clean.to_dict()

    def test_no_chaos_is_bit_identical_to_plain_run(self):
        plain = run_portfolio(*_instance())
        supervised = run_portfolio(
            *_instance(), chaos=ChaosPlan(), deadline=120.0,
            retry=FAST_RETRY, resume="auto", cache=ArtifactCache(),
        )
        assert supervised.to_dict() == plain.to_dict()

    def test_resumed_portfolio_matches_uninterrupted(self):
        cache = ArtifactCache()
        first = run_portfolio(*_instance(), resume="auto", cache=cache)
        resumed = run_portfolio(*_instance(), resume="auto", cache=cache)
        assert resumed.to_dict() == first.to_dict()

    def test_unknown_resume_mode(self):
        with pytest.raises(ValueError, match="unknown resume mode"):
            run_portfolio(*_instance(), resume="maybe")


class TestSweepUnderChaos:
    def _sweep(self, **kwargs):
        return failure_sweep(
            families.ring(12), networks.hypercube(3),
            elements="processors", **kwargs,
        )

    def test_crashed_trials_become_failed_rows(self):
        chaos = ChaosPlan(crashes=[(2, 1), (5, 1)])
        sweep = self._sweep(chaos=chaos)
        failed = [e for e in sweep.entries if e.status == "failed"]
        assert len(failed) == 2
        assert all(e.error for e in failed)
        dist = sweep.distribution()
        assert dist["failed"] == 2
        assert dist["faults"] == 8
        assert dist["survivable"] + dist["disconnecting"] + dist["failed"] == 8

    def test_survivors_rank_like_the_clean_sweep(self):
        clean = self._sweep()
        chaotic = self._sweep(chaos=ChaosPlan(crashes=[(2, 1), (5, 1)]))
        failed = {e.label for e in chaotic.entries if e.status == "failed"}
        assert len(failed) == 2
        assert [
            (e.label, e.status, e.ratio) for e in chaotic.ranking()
            if e.label not in failed
        ] == [
            (e.label, e.status, e.ratio) for e in clean.ranking()
            if e.label not in failed
        ]

    def test_failed_rows_rank_between_disconnecting_and_ok(self):
        chaos = ChaosPlan(crashes=[(3, 1)])
        ranking = self._sweep(chaos=chaos).ranking()
        statuses = [e.status for e in ranking]
        order = {"disconnects": 0, "failed": 1, "ok": 2}
        assert statuses == sorted(statuses, key=order.__getitem__)
        assert "failed" in statuses

    def test_transients_with_retries_match_the_clean_sweep(self):
        clean = self._sweep()
        chaos = ChaosPlan(transients=[(i, 1) for i in range(4)])
        retried = self._sweep(chaos=chaos, retry=FAST_RETRY)
        assert retried.to_dict() == clean.to_dict()

    def test_no_chaos_is_bit_identical_to_plain_sweep(self):
        plain = self._sweep()
        supervised = self._sweep(
            chaos=ChaosPlan(), deadline=120.0, retry=FAST_RETRY,
            resume="auto", cache=ArtifactCache(),
        )
        assert supervised.to_dict() == plain.to_dict()

    def test_chaotic_ranking_is_executor_independent(self):
        chaos = ChaosPlan(crashes=[(1, 1)], transients=[(4, 1)])
        serial = self._sweep(chaos=chaos, retry=FAST_RETRY)
        threaded = self._sweep(
            chaos=chaos, retry=FAST_RETRY, executor="thread", max_workers=3
        )
        assert threaded.to_dict() == serial.to_dict()

    def test_unknown_resume_mode(self):
        with pytest.raises(ValueError, match="unknown resume mode"):
            self._sweep(resume="always")


class TestPipelineBatch:
    """The batch fan-out ``repro run --deadline`` and the serving batcher
    make: ``run_supervised(pipeline_task, ...)``, one result per instance."""

    def _instances(self):
        return [
            (families.ring(8), networks.ring(8)),
            (families.nbody(15), networks.hypercube(3)),
            (families.torus(4, 4), networks.mesh(4, 4)),
        ]

    def _batch(self, instances, *, cache=None, **kwargs):
        payloads = [(tg, topo, RunConfig()) for tg, topo in instances]
        journal = resume_journal("auto", cache, lambda: {
            "kind": "test-batch",
            "instances": [[tg.fingerprint(), topo.fingerprint()]
                          for tg, topo in instances],
        }) if cache is not None else None
        return run_supervised(
            pipeline_task, payloads,
            keys=[f"instance:{i}" for i in range(len(payloads))],
            journal=journal, **kwargs,
        )

    def test_failures_do_not_abort_the_batch(self):
        bad = TaskGraph("broken")
        bad.add_nodes(range(4))
        bad.add_comm_phase("p").add(0, 99, 1.0)  # undeclared task: rejected
        instances = self._instances() + [(bad, networks.ring(4))]
        results = self._batch(instances)
        assert [r.ok for r in results] == [True, True, True, False]
        assert all(r.value.mapping is not None for r in results[:3])
        assert isinstance(results[3].error, ValueError)

    def test_resume_serves_the_journal(self):
        cache = ArtifactCache()
        first = self._batch(self._instances(), cache=cache)
        resumed = self._batch(self._instances(), cache=cache)
        assert all(r.journal_hit for r in resumed)
        assert not any(r.journal_hit for r in first)
        assert [r.value.completion_time for r in resumed] == [
            r.value.completion_time for r in first
        ]

    def test_chaos_crash_marks_only_that_instance(self):
        results = self._batch(
            self._instances(), chaos=ChaosPlan(crashes=[(1, 1)])
        )
        assert [r.ok for r in results] == [True, False, True]


class TestKillAndResume:
    """A run killed mid-flight resumes bit-identical to an uninterrupted one."""

    _SCRIPT = """\
import json, sys
from repro.arch import networks
from repro.graph import families
from repro.pipeline import default_cache
from repro.resilience import failure_sweep
from repro.runtime import ChaosPlan

chaos = ChaosPlan(kills=[(4, 1)]) if "--kill" in sys.argv else None
sweep = failure_sweep(
    families.ring(12), networks.hypercube(3),
    elements="processors", resume="auto", chaos=chaos,
    cache=default_cache(),
)
print(json.dumps(sweep.to_dict(), sort_keys=True))
"""

    def _run(self, cache_dir, *extra):
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env.pop("REPRO_CHAOS", None)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        return subprocess.run(
            [sys.executable, "-c", self._SCRIPT, *extra],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_killed_sweep_resumes_bit_identical(self, tmp_path):
        killed = self._run(tmp_path / "resumed-cache", "--kill")
        assert killed.returncode == KILL_EXIT_CODE, killed.stderr
        assert killed.stdout == ""  # died before printing anything
        # The four faults before the kill are journalled.
        assert len(list((tmp_path / "resumed-cache").glob("*.pkl"))) == 4

        resumed = self._run(tmp_path / "resumed-cache")
        assert resumed.returncode == 0, resumed.stderr

        uninterrupted = self._run(tmp_path / "fresh-cache")
        assert uninterrupted.returncode == 0, uninterrupted.stderr

        assert resumed.stdout == uninterrupted.stdout
        assert json.loads(resumed.stdout)["distribution"]["faults"] == 8
