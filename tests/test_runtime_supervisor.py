"""Tests for the supervised task-execution core (repro.runtime)."""

import pickle
import time

import pytest

from repro.errors import (
    RetriesExhausted,
    TaskTimeout,
    WorkerCrash,
    exit_code_for,
)
from repro.pipeline import ArtifactCache
from repro.runtime import (
    ChaosPlan,
    Journal,
    RetryPolicy,
    SimulatedWorkerCrash,
    TransientChaosError,
    plan_from_env,
    run_supervised,
)

EXECUTORS = ("serial", "thread", "process")

#: A retry policy with near-zero sleeps, for fast multi-attempt tests.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.001)


def _double(x):
    return 2 * x


def _raise_on_negative(x):
    if x < 0:
        raise ValueError(f"negative payload {x}")
    return x


def _sleep_forever(x):
    time.sleep(60)
    return x


def _nap(seconds):
    time.sleep(seconds)
    return seconds


class TestRunSupervisedBasics:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_results_in_input_order(self, executor):
        results = run_supervised(
            _double, [3, 1, 4, 1, 5], executor=executor, max_workers=2
        )
        assert [r.value for r in results] == [6, 2, 8, 2, 10]
        assert [r.index for r in results] == [0, 1, 2, 3, 4]
        assert all(r.ok and r.status == "ok" for r in results)
        assert all(r.trace() == [(1, "ok", 0.0)] for r in results)

    def test_one_process_worker_runs_in_order(self):
        # max_workers=1 is a valid pool size (one task at a time), not an
        # error, and strict mode hands back plain ok results.
        results = run_supervised(
            _double, [1, 2, 3], executor="process", max_workers=1, strict=True
        )
        assert [r.value for r in results] == [2, 4, 6]

    def test_default_keys(self):
        results = run_supervised(_double, [1, 2])
        assert [r.key for r in results] == ["task:0", "task:1"]

    def test_explicit_keys(self):
        results = run_supervised(_double, [1, 2], keys=["a", "b"])
        assert [r.key for r in results] == ["a", "b"]

    def test_empty_batch(self):
        assert run_supervised(_double, []) == []

    def test_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_supervised(_double, [1], executor="gpu")

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_nonpositive_max_workers(self, bad):
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            run_supervised(_double, [1, 2], executor="thread", max_workers=bad)

    def test_key_count_mismatch(self):
        with pytest.raises(ValueError, match="keys for"):
            run_supervised(_double, [1, 2], keys=["only-one"])

    def test_nonpositive_deadline(self):
        with pytest.raises(ValueError, match="deadline must be > 0"):
            run_supervised(_double, [1], deadline=0.0)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_failure_is_a_value(self, executor):
        results = run_supervised(
            _raise_on_negative, [1, -2, 3], executor=executor, max_workers=2
        )
        assert [r.ok for r in results] == [True, False, True]
        failed = results[1]
        assert failed.status == "failed"
        assert isinstance(failed.error, ValueError)
        assert "negative payload -2" in str(failed.error)
        assert failed.trace() == [(1, "exception", 0.0)]

    def test_strict_raises_the_original_exception(self):
        with pytest.raises(ValueError, match="negative payload -2"):
            run_supervised(_raise_on_negative, [1, -2], strict=True)

    def test_strict_raises_first_failure_by_input_order(self):
        with pytest.raises(ValueError, match="negative payload -1"):
            run_supervised(
                _raise_on_negative, [-1, -2, -3],
                executor="thread", max_workers=3, strict=True,
            )


class TestDeadlines:
    def test_process_hang_is_killed_not_awaited(self):
        start = time.perf_counter()
        results = run_supervised(
            _sleep_forever, [1], executor="process", deadline=0.2
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 10, "hung worker was awaited, not killed"
        (r,) = results
        assert not r.ok
        assert isinstance(r.error, TaskTimeout)
        assert r.error.deadline == 0.2
        assert r.trace() == [(1, "timeout", 0.0)]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_chaos_hang_times_out_identically(self, executor):
        chaos = ChaosPlan(hangs=[(0, 1)], hang_s=1.0)
        results = run_supervised(
            _double, [7, 8], executor=executor, max_workers=2,
            deadline=0.5, chaos=chaos,
        )
        assert not results[0].ok
        assert isinstance(results[0].error, TaskTimeout)
        assert results[0].trace() == [(1, "timeout", 0.0)]
        assert results[1].ok and results[1].value == 16

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_a_worker_that_finished_late_still_timed_out(self, executor,
                                                         monkeypatch):
        """The supervisor may look only after the worker is done (it was
        descheduled); a 50 ms attempt against a 10 ms budget is a timeout
        however late it looks."""
        import threading
        from multiprocessing.connection import Connection

        class LateEvent(threading.Event):
            def wait(self, timeout=None):
                return super().wait()

        poll = Connection.poll
        monkeypatch.setattr(threading, "Event", LateEvent)
        monkeypatch.setattr(Connection, "poll",
                            lambda self, timeout=0.0: poll(self, None))
        (r,) = run_supervised(_nap, [0.05], executor=executor, deadline=0.01)
        assert isinstance(r.error, TaskTimeout)
        assert r.trace() == [(1, "timeout", 0.0)]

    def test_timeout_exit_code_is_3(self):
        results = run_supervised(
            _double, [1], deadline=0.01, chaos=ChaosPlan(hangs=[(0, 1)])
        )
        assert exit_code_for(results[0].error) == 3


class TestCrashes:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_chaos_crash_reports_worker_crash(self, executor):
        chaos = ChaosPlan(crashes=[(1, 1)])
        results = run_supervised(
            _double, [1, 2, 3], executor=executor, max_workers=2, chaos=chaos
        )
        assert [r.ok for r in results] == [True, False, True]
        assert isinstance(results[1].error, WorkerCrash)
        assert results[1].trace() == [(1, "crash", 0.0)]

    def test_process_crash_carries_the_exit_code(self):
        from repro.runtime import CHAOS_EXIT_CODE

        results = run_supervised(
            _double, [1], executor="process", chaos=ChaosPlan(crashes=[(0, 1)])
        )
        assert isinstance(results[0].error, WorkerCrash)
        assert results[0].error.exitcode == CHAOS_EXIT_CODE

    def test_simulated_crash_is_not_an_ordinary_exception(self):
        # except Exception in task code must not be able to swallow it.
        assert issubclass(SimulatedWorkerCrash, BaseException)
        assert not issubclass(SimulatedWorkerCrash, Exception)


class TestRetries:
    def test_transient_then_success(self):
        chaos = ChaosPlan(transients=[(0, 1), (0, 2)])
        (r,) = run_supervised(_double, [5], retry=FAST_RETRY, chaos=chaos)
        assert r.ok and r.value == 10
        assert [(n, o) for n, o, _ in r.trace()] == [
            (1, "exception"), (2, "exception"), (3, "ok")
        ]
        assert all(b > 0 for _, o, b in r.trace() if o != "ok")

    def test_retries_exhausted(self):
        chaos = ChaosPlan(transients=[(0, a) for a in (1, 2, 3)])
        (r,) = run_supervised(_double, [5], retry=FAST_RETRY, chaos=chaos)
        assert not r.ok
        assert isinstance(r.error, RetriesExhausted)
        assert len(r.error.attempts) == 3
        assert exit_code_for(r.error) == 4

    def test_exhausted_timeouts_keep_exit_code_3(self):
        chaos = ChaosPlan(hangs=[(0, 1), (0, 2)], hang_s=0.2)
        (r,) = run_supervised(
            _double, [5], deadline=0.02,
            retry=RetryPolicy(max_attempts=2, backoff=0.001), chaos=chaos,
        )
        assert isinstance(r.error, RetriesExhausted)
        assert r.error.last_outcome == "timeout"
        assert exit_code_for(r.error) == 3

    def test_retry_on_filter(self):
        # An exception outcome with retries reserved for crashes only:
        # fail immediately, single attempt.
        policy = RetryPolicy(max_attempts=3, backoff=0.001, retry_on=("crash",))
        (r,) = run_supervised(_raise_on_negative, [-1], retry=policy)
        assert not r.ok and len(r.attempts) == 1
        assert isinstance(r.error, ValueError)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_trace_is_identical_across_executors(self, executor):
        chaos = ChaosPlan(transients=[(0, 1), (2, 1), (2, 2)])
        results = run_supervised(
            _double, [1, 2, 3], executor=executor, max_workers=3,
            retry=FAST_RETRY, chaos=chaos,
        )
        assert [r.trace() for r in results] == _REFERENCE_TRACES

    def test_errors_pickle_round_trip(self):
        chaos = ChaosPlan(transients=[(0, a) for a in (1, 2, 3)])
        (r,) = run_supervised(_double, [5], retry=FAST_RETRY, chaos=chaos)
        clone = pickle.loads(pickle.dumps(r.error))
        assert isinstance(clone, RetriesExhausted)
        assert clone.key == r.error.key
        assert clone.attempts == r.error.attempts
        assert clone.last_outcome == r.error.last_outcome


def _reference_traces():
    chaos = ChaosPlan(transients=[(0, 1), (2, 1), (2, 2)])
    return [
        r.trace()
        for r in run_supervised(
            _double, [1, 2, 3], retry=FAST_RETRY, chaos=chaos
        )
    ]


_REFERENCE_TRACES = _reference_traces()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="unknown retry_on"):
            RetryPolicy(retry_on=("timeout", "oops"))

    def test_delay_is_deterministic(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert a.delay("mwm", 2) == b.delay("mwm", 2)

    def test_delay_varies_with_seed_key_attempt(self):
        base = RetryPolicy(seed=0).delay("mwm", 1)
        assert RetryPolicy(seed=1).delay("mwm", 1) != base
        assert RetryPolicy(seed=0).delay("greedy", 1) != base
        assert RetryPolicy(seed=0).delay("mwm", 2) != base

    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff=0.1, multiplier=2.0, jitter=0.0)
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 3) == pytest.approx(0.4)


class TestJournal:
    def _journal(self):
        return Journal(ArtifactCache(), "run-key")

    def test_resumed_run_serves_journalled_results(self):
        journal = self._journal()
        first = run_supervised(_double, [1, 2, 3], journal=journal)
        assert not any(r.journal_hit for r in first)
        second = run_supervised(_double, [1, 2, 3], journal=journal)
        assert all(r.journal_hit for r in second)
        assert [r.value for r in second] == [r.value for r in first]
        assert [r.trace() for r in second] == [r.trace() for r in first]

    def test_partial_journal_runs_only_the_remainder(self):
        journal = self._journal()
        run_supervised(_double, [1, 2], keys=["a", "b"], journal=journal)
        results = run_supervised(
            _double, [1, 2, 3], keys=["a", "b", "c"], journal=journal
        )
        assert [r.journal_hit for r in results] == [True, True, False]
        assert [r.value for r in results] == [2, 4, 6]

    def test_failures_are_journalled_too(self):
        journal = self._journal()
        run_supervised(_raise_on_negative, [-1], journal=journal)
        (r,) = run_supervised(_raise_on_negative, [-1], journal=journal)
        assert r.journal_hit and not r.ok
        assert isinstance(r.error, ValueError)

    def test_different_run_keys_do_not_share_entries(self):
        cache = ArtifactCache()
        run_supervised(_double, [1], journal=Journal(cache, "run-a"))
        (r,) = run_supervised(_double, [1], journal=Journal(cache, "run-b"))
        assert not r.journal_hit


class TestChaosPlan:
    def test_round_trip(self):
        plan = ChaosPlan(
            crashes=[(0, 1)], hangs=[(1, 2)], transients=[(2, 1)],
            kills=[(3, 1)], hang_s=0.5,
        )
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_keys_raise(self):
        with pytest.raises(ValueError, match="unknown chaos-plan keys"):
            ChaosPlan.from_dict({"crashes": [[0, 1]]})

    def test_random_is_reproducible(self):
        a = ChaosPlan.random(3, 10, crash=0.2, hang=0.2, transient=0.2)
        b = ChaosPlan.random(3, 10, crash=0.2, hang=0.2, transient=0.2)
        assert a == b
        assert not a.is_empty

    def test_transient_injection_raises(self):
        plan = ChaosPlan(transients=[(0, 1)])
        with pytest.raises(TransientChaosError):
            plan.inject(0, 1, in_child=False)
        plan.inject(0, 2, in_child=False)  # unscheduled attempt: no-op

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert plan_from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", '{"crash": [[0, 1]]}')
        assert plan_from_env() == ChaosPlan(crashes=[(0, 1)])
        monkeypatch.setenv("REPRO_CHAOS", '{"crash": []}')
        assert plan_from_env() is None  # empty plan means no chaos
        monkeypatch.setenv("REPRO_CHAOS", "{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            plan_from_env()
