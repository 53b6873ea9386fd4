"""``run_supervised`` -- the supervised task-execution core.

Every fan-out entry point in the toolchain (the mapping portfolio, the
failure sweep, batched pipeline runs, a cold ``/v1/map`` request,
``repro run``) executes through this one function, so supervision
semantics live in exactly one place -- the ``REPRO_CHAOS`` knob is read
here, and a ``resume=`` mode becomes a journal in
:func:`~repro.runtime.journal.resume_journal`:

* **Deadlines** -- each attempt gets a wall-clock budget.  A process
  worker that blows it is **killed** and the attempt recorded as a
  timeout; a thread worker is abandoned (daemon thread, result
  discarded); a serial run is flagged post-hoc (in-process work cannot
  be interrupted, but the verdict is the same, so chaos hangs time out
  identically in every executor).  A thread or process worker that
  finished late -- while the supervisor was descheduled -- is flagged
  post-hoc too.
* **Retries** -- a :class:`RetryPolicy` bounds attempts and spaces them
  with exponential backoff plus *seeded deterministic* jitter: the delay
  is a pure function of ``(seed, task key, attempt)``, never of clock or
  scheduling, so the attempt/backoff trace -- and everything derived
  from it -- is bit-identical across executors and worker counts.
* **Failures as values** -- the result list always has one
  :class:`TaskResult` per payload, in input order; a failed task carries
  a typed error from :mod:`repro.errors` with its full attempt history.
  ``strict=True`` restores raise-on-first-failure for callers that want
  the old bare-fan-out contract.
* **Checkpointing** -- with a :class:`~repro.runtime.journal.Journal`,
  every finished result is recorded as it completes and already-recorded
  tasks are served from the journal instead of re-running, so a killed
  run resumes bit-identical to an uninterrupted one.
* **Chaos** -- a :class:`~repro.runtime.chaos.ChaosPlan` (explicit, or
  read from ``REPRO_CHAOS`` when none is passed) deterministically injects
  crashes, hangs, and transient failures for tests and drills.

Executors: ``"serial"`` runs attempts inline; ``"thread"`` runs each
attempt in a fresh daemon thread (abandonable); ``"process"`` runs each
attempt in a fresh forked process with a result pipe (killable, crash
detection via pipe EOF + exit code).  Fresh-per-attempt workers cost a
little over pooled ones but are what makes kill-and-replace possible at
all -- a pool cannot shoot a hung member.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import random
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import (
    Attempt,
    RetriesExhausted,
    TaskTimeout,
    WorkerCrash,
)
from repro.runtime.chaos import (
    CHAOS_EXIT_CODE,
    KILL_EXIT_CODE,
    ChaosPlan,
    SimulatedWorkerCrash,
    plan_from_env,
)

__all__ = [
    "EXECUTORS",
    "RESUME_MODES",
    "RetryPolicy",
    "TaskSpec",
    "TaskResult",
    "run_supervised",
]

#: The executor names every supervised entry point accepts.
EXECUTORS = ("serial", "thread", "process")

#: The ``resume=`` values every journalled entry point accepts: ``"auto"``
#: checkpoints finished tasks and serves them back, ``"off"`` recomputes.
RESUME_MODES = ("auto", "off")

#: How long to wait for a process worker to exit after it delivered its
#: result before killing it anyway (it has nothing left to do).
_REAP_TIMEOUT = 30.0

# Forking from a monitor thread while a sibling holds a lock would hand
# the child a locked lock it can never release.  All parent-side forking
# and the only parent-side lock users during a process-executor run
# (journal writes) serialise on this one lock, which is re-armed fresh in
# every forked child.
_spawn_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        after_in_child=lambda: globals().__setitem__(
            "_spawn_lock", threading.Lock()
        )
    )


@dataclass(frozen=True)
class RetryPolicy:
    """When and how a failed attempt is retried.

    ``max_attempts=1`` (the default) means no retries.  The backoff for
    attempt *k* is ``backoff * multiplier**(k-1)`` scaled by a jitter
    factor drawn from ``random.Random(f"{seed}:{key}:{k}")`` -- fully
    deterministic per (seed, task, attempt), so identical runs sleep
    identical traces.
    """

    max_attempts: int = 1
    backoff: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retry_on: tuple[str, ...] = ("timeout", "crash", "exception")

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0 or self.multiplier < 1 or self.jitter < 0:
            raise ValueError(
                "backoff must be >= 0, multiplier >= 1, jitter >= 0"
            )
        unknown = set(self.retry_on) - {"timeout", "crash", "exception"}
        if unknown:
            raise ValueError(f"unknown retry_on outcomes {sorted(unknown)!r}")

    @classmethod
    def from_retries(cls, retries: int | None,
                     backoff: float | None = None) -> "RetryPolicy | None":
        """The policy for *retries* extra attempts (``None`` stays ``None``)."""
        if retries is None:
            return None
        policy = cls(max_attempts=retries + 1)
        return policy if backoff is None else replace(policy, backoff=backoff)

    def delay(self, key: str, attempt: int) -> float:
        """The deterministic backoff after failed attempt *attempt*."""
        base = self.backoff * self.multiplier ** (attempt - 1)
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class TaskSpec:
    """One supervised task: payload, identity, and its budgets."""

    index: int
    payload: Any
    key: str
    deadline: float | None
    retry: RetryPolicy


@dataclass
class TaskResult:
    """The final outcome of one supervised task.

    ``status`` is ``"ok"`` or ``"failed"``; a failure's ``error`` is the
    typed exception (``TaskTimeout``/``WorkerCrash``/``RetriesExhausted``
    or the task's own exception) and ``value`` is ``None``.  ``attempts``
    is the full deterministic attempt history; ``elapsed_s`` is
    wall-clock (informational only -- never compare it); ``journal_hit``
    marks results served from a checkpoint journal instead of executed.
    """

    index: int
    key: str
    status: str
    value: Any = None
    error: BaseException | None = None
    attempts: tuple[Attempt, ...] = ()
    elapsed_s: float = 0.0
    journal_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def trace(self) -> list[tuple[int, str, float]]:
        """The deterministic attempt projection (number, outcome, backoff)."""
        return [(a.number, a.outcome, a.backoff_s) for a in self.attempts]


# ----------------------------------------------------------------------
# one attempt, per executor
# ----------------------------------------------------------------------

def _invoke(fn, spec: TaskSpec, attempt: int, chaos: ChaosPlan | None,
            *, in_child: bool):
    if chaos is not None:
        chaos.inject(spec.index, attempt, in_child=in_child)
    return fn(spec.payload)


def _child_main(conn, fn, spec: TaskSpec, attempt: int,
                chaos: ChaosPlan | None) -> None:
    """Process-worker entry: run the attempt, pipe the outcome, exit."""
    try:
        try:
            value = _invoke(fn, spec, attempt, chaos, in_child=True)
        except SimulatedWorkerCrash:
            os._exit(CHAOS_EXIT_CODE)
        except BaseException as exc:
            try:
                conn.send(("exception", exc))
            except Exception:
                conn.send(
                    ("exception_str", f"{type(exc).__name__}: {exc}")
                )
        else:
            try:
                conn.send(("ok", value))
            except Exception as exc:
                conn.send(
                    ("exception_str", f"result not picklable: {exc!r}")
                )
        conn.close()
    finally:
        # Never fall into the parent's atexit/finalizer machinery.
        os._exit(0)


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context()


@dataclass
class _AttemptOutcome:
    outcome: str                      # "ok" | "timeout" | "crash" | "exception"
    value: Any = None
    raised: BaseException | None = None
    detail: str = ""
    exitcode: int | None = None


def _post_hoc(spec, elapsed: float, out: _AttemptOutcome) -> _AttemptOutcome:
    """*out*, or a timeout if the attempt took longer than its deadline.

    Serial work cannot be interrupted, and a thread or process worker can
    finish while the supervisor is descheduled past the deadline; either
    way the blown budget is flagged here, so the verdict depends on how
    long the attempt took, not on when the supervisor looked.
    """
    if spec.deadline is not None and elapsed > spec.deadline:
        return _AttemptOutcome(
            "timeout",
            detail=f"ran {elapsed:.3f}s past deadline {spec.deadline:g}s "
                   f"(enforced post-hoc)",
        )
    return out


def _attempt_serial(fn, spec, attempt, chaos) -> _AttemptOutcome:
    start = time.perf_counter()
    try:
        value = _invoke(fn, spec, attempt, chaos, in_child=False)
        out = _AttemptOutcome("ok", value=value)
    except SimulatedWorkerCrash as exc:
        out = _AttemptOutcome("crash", detail=str(exc))
    except Exception as exc:
        out = _AttemptOutcome(
            "exception", raised=exc, detail=f"{type(exc).__name__}: {exc}"
        )
    return _post_hoc(spec, time.perf_counter() - start, out)


def _attempt_thread(fn, spec, attempt, chaos) -> _AttemptOutcome:
    box: list[_AttemptOutcome] = []
    done = threading.Event()

    def target():
        try:
            value = _invoke(fn, spec, attempt, chaos, in_child=False)
            box.append(_AttemptOutcome("ok", value=value))
        except SimulatedWorkerCrash as exc:
            box.append(_AttemptOutcome("crash", detail=str(exc)))
        except BaseException as exc:
            box.append(_AttemptOutcome(
                "exception", raised=exc,
                detail=f"{type(exc).__name__}: {exc}",
            ))
        finally:
            done.set()

    worker = threading.Thread(
        target=target, daemon=True,
        name=f"repro-runtime-{spec.index}.{attempt}",
    )
    start = time.perf_counter()
    worker.start()
    if not done.wait(spec.deadline):
        return _AttemptOutcome(
            "timeout",
            detail=f"deadline {spec.deadline:g}s exceeded; "
                   f"thread worker abandoned",
        )
    return _post_hoc(spec, time.perf_counter() - start, box[0])


def _attempt_process(fn, spec, attempt, chaos) -> _AttemptOutcome:
    ctx = _mp_context()
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    with _spawn_lock:
        proc = ctx.Process(
            target=_child_main,
            args=(send_conn, fn, spec, attempt, chaos),
            name=f"repro-runtime-{spec.index}.{attempt}",
        )
        start = time.perf_counter()
        proc.start()
    send_conn.close()
    try:
        if not recv_conn.poll(spec.deadline):
            proc.kill()
            proc.join()
            return _AttemptOutcome(
                "timeout",
                detail=f"deadline {spec.deadline:g}s exceeded; "
                       f"process worker killed",
            )
        try:
            kind, value = recv_conn.recv()
            elapsed = time.perf_counter() - start
        except (EOFError, OSError):
            proc.join()
            return _AttemptOutcome(
                "crash",
                detail=f"worker died without a result "
                       f"(exit code {proc.exitcode})",
                exitcode=proc.exitcode,
            )
    finally:
        recv_conn.close()
    proc.join(_REAP_TIMEOUT)
    if proc.is_alive():  # delivered a result but refuses to die
        proc.kill()
        proc.join()
    if kind == "ok":
        out = _AttemptOutcome("ok", value=value)
    elif kind == "exception":
        out = _AttemptOutcome(
            "exception", raised=value,
            detail=f"{type(value).__name__}: {value}",
        )
    else:
        out = _AttemptOutcome("exception", detail=str(value))
    return _post_hoc(spec, elapsed, out)


_ATTEMPT_RUNNERS = {
    "serial": _attempt_serial,
    "thread": _attempt_thread,
    "process": _attempt_process,
}


# ----------------------------------------------------------------------
# one task: attempts + retries -> TaskResult
# ----------------------------------------------------------------------

def _final_error(spec: TaskSpec, attempts: tuple[Attempt, ...],
                 last: _AttemptOutcome) -> BaseException:
    if len(attempts) > 1:
        return RetriesExhausted(
            f"task {spec.key!r} failed after {len(attempts)} attempts "
            f"(last: {last.outcome}: {last.detail})",
            key=spec.key, attempts=attempts, last_outcome=last.outcome,
        )
    if last.outcome == "timeout":
        return TaskTimeout(
            f"task {spec.key!r}: {last.detail}",
            key=spec.key, attempts=attempts, deadline=spec.deadline,
        )
    if last.outcome == "crash":
        return WorkerCrash(
            f"task {spec.key!r}: {last.detail}",
            key=spec.key, attempts=attempts, exitcode=last.exitcode,
        )
    if last.raised is not None:
        return last.raised
    return RuntimeError(f"task {spec.key!r}: {last.detail}")


def _run_task(fn, spec: TaskSpec, executor: str,
              chaos: ChaosPlan | None) -> TaskResult:
    run_attempt = _ATTEMPT_RUNNERS[executor]
    attempts: list[Attempt] = []
    start = time.perf_counter()
    for number in range(1, spec.retry.max_attempts + 1):
        if chaos is not None and chaos.should_kill(spec.index, number):
            os._exit(KILL_EXIT_CODE)
        out = run_attempt(fn, spec, number, chaos)
        if out.outcome == "ok":
            attempts.append(Attempt(number, "ok"))
            return TaskResult(
                spec.index, spec.key, "ok", value=out.value,
                attempts=tuple(attempts),
                elapsed_s=time.perf_counter() - start,
            )
        retryable = (
            out.outcome in spec.retry.retry_on
            and number < spec.retry.max_attempts
        )
        backoff = spec.retry.delay(spec.key, number) if retryable else 0.0
        attempts.append(Attempt(number, out.outcome, out.detail, backoff))
        if not retryable:
            return TaskResult(
                spec.index, spec.key, "failed",
                error=_final_error(spec, tuple(attempts), out),
                attempts=tuple(attempts),
                elapsed_s=time.perf_counter() - start,
            )
        time.sleep(backoff)
    raise AssertionError("unreachable: final attempt always returns")


# ----------------------------------------------------------------------
# the batch
# ----------------------------------------------------------------------

def run_supervised(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    executor: str = "serial",
    max_workers: int | None = None,
    keys: Sequence[str] | None = None,
    deadline: float | None = None,
    retry: RetryPolicy | None = None,
    chaos: ChaosPlan | None = None,
    journal=None,
    strict: bool = False,
) -> list[TaskResult]:
    """Apply *fn* to every payload under supervision; results in input order.

    Parameters
    ----------
    fn:
        A module-level callable (picklable for the process executor).
    executor:
        ``"serial"`` / ``"thread"`` / ``"process"`` (see module docs for
        each one's deadline semantics).
    max_workers:
        Concurrent task bound for the parallel executors; ``None`` sizes
        to the batch/CPU count.  Non-positive values raise; ``1`` means
        one task at a time (attempts keep the executor's isolation).
    keys:
        Per-payload identity strings, used in error messages and as the
        journal's task keys; defaults to ``"task:<index>"``.
    deadline:
        Per-attempt wall-clock budget in seconds (``None`` = unbounded).
    retry:
        The :class:`RetryPolicy` (default: single attempt, no retries).
    chaos:
        A :class:`~repro.runtime.chaos.ChaosPlan` for tests and drills.
        ``None`` reads the ``REPRO_CHAOS`` environment knob here (normally
        unset -> no chaos); an explicit plan, even an empty one, wins.
    journal:
        A :class:`~repro.runtime.journal.Journal` (the entry points build
        it from their ``resume=``/``cache=`` with ``resume_journal``);
        finished results are recorded as they complete, and payloads whose
        key is already journalled are served from it without running.
    strict:
        Raise the first failure (by input order) instead of returning
        failed results.  The serial executor raises immediately; parallel
        executors finish in-flight work first.

    Returns
    -------
    One :class:`TaskResult` per payload, in input order, independent of
    executor, worker count, and completion order.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )
    if max_workers is not None and max_workers <= 0:
        raise ValueError(
            f"max_workers must be >= 1, got {max_workers} (1 means one "
            f"task at a time)"
        )
    payloads = list(payloads)
    if keys is None:
        keys = [f"task:{i}" for i in range(len(payloads))]
    else:
        keys = [str(k) for k in keys]
        if len(keys) != len(payloads):
            raise ValueError(
                f"{len(keys)} keys for {len(payloads)} payloads"
            )
    retry = retry if retry is not None else RetryPolicy()
    if deadline is not None and deadline <= 0:
        raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
    if chaos is None:
        chaos = plan_from_env()

    specs = [
        TaskSpec(i, payload, key, deadline, retry)
        for i, (payload, key) in enumerate(zip(payloads, keys))
    ]
    results: list[TaskResult | None] = [None] * len(specs)

    pending: list[TaskSpec] = []
    for spec in specs:
        hit = journal.load(spec.key) if journal is not None else None
        if hit is not None:
            results[spec.index] = replace(
                hit, index=spec.index, journal_hit=True
            )
        else:
            pending.append(spec)

    def finish(spec: TaskSpec, result: TaskResult) -> None:
        results[spec.index] = result
        if journal is not None and not result.journal_hit:
            with _spawn_lock:
                journal.record(spec.key, result)

    if executor == "serial" or len(pending) <= 1 or max_workers == 1:
        for spec in pending:
            result = _run_task(fn, spec, executor, chaos)
            finish(spec, result)
            if strict and not result.ok:
                raise result.error
    else:
        workers = min(max_workers or _default_workers(executor), len(pending))
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-supervisor"
        ) as pool:
            futures = {
                pool.submit(_run_task, fn, spec, executor, chaos): spec
                for spec in pending
            }
            for future in concurrent.futures.as_completed(futures):
                finish(futures[future], future.result())

    final = [r for r in results if r is not None]
    assert len(final) == len(specs)
    if strict:
        for result in final:
            if not result.ok:
                raise result.error
    return final


def _default_workers(executor: str) -> int:
    """How many tasks run at once when the caller sets no bound."""
    if executor == "serial":
        return 1
    cpus = os.cpu_count() or 1
    return min(32, cpus + 4) if executor == "thread" else cpus
