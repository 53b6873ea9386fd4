"""Micro-batching: concurrent requests fan out as one supervised batch.

An HTTP mapping service sees bursts: a sweep client fires hundreds of
instances at once, a portfolio UI asks for every strategy of one graph.
Dispatching each request to the supervised runtime individually would pay
the fan-out setup per request; the :class:`MicroBatcher` instead collects
everything that arrives inside a short **batching window** (default a few
milliseconds) and executes the whole set as a single
:func:`repro.runtime.run_supervised` fan-out over
:func:`repro.pipeline.run_pipeline` workers -- the exact engine the CLI
and the batch entry points use, so deadlines, retries, chaos injection,
and the typed error taxonomy apply to every request identically.

The batching thread is persistent (one per server); workers are
fresh-per-attempt by the PR 5 supervision design -- that is what makes a
hung worker *killable* rather than awaited.  Requests with different
per-request deadlines are grouped into sub-batches (the supervised core
applies one deadline per fan-out); results are routed back to each
waiting handler thread as failures-as-values, so one poisoned request
never takes down its batch neighbours.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.pipeline.engine import pipeline_task
from repro.util import perf

__all__ = ["MicroBatcher", "PendingRequest"]


@dataclass
class PendingRequest:
    """One submitted request: the payload and its completion slot."""

    payload: tuple
    key: str
    deadline: float | None
    done: threading.Event = field(default_factory=threading.Event)
    value: Any = None
    error: BaseException | None = None

    def wait(self, timeout: float | None = None):
        """Block until the batch completes; return the result or raise.

        ``timeout`` only bounds the wait itself (the supervised runtime
        already enforces the per-request deadline inside the batch); a
        blown wait raises ``TimeoutError``.
        """
        if not self.done.wait(timeout):
            raise TimeoutError(
                f"request {self.key!r} still pending after {timeout:g}s"
            )
        if self.error is not None:
            raise self.error
        return self.value


class MicroBatcher:
    """Collects requests for ``window_ms`` and runs them as one fan-out.

    Parameters
    ----------
    window_ms:
        How long the dispatch loop keeps collecting after the first
        request of a batch arrives.  ``0`` disables the wait (whatever is
        queued when the loop wakes still shares one batch).
    executor, max_workers, retry, chaos:
        Passed through to :func:`repro.runtime.run_supervised` for every
        batch.  ``executor="thread"`` is the serving default -- workers
        share the process (and its caches) and a timed-out worker is
        abandoned; ``"process"`` gives kill-hard isolation at fork cost.
    default_deadline:
        Per-request wall-clock budget applied when a request does not
        carry its own ``deadline_s``.
    """

    def __init__(
        self,
        *,
        window_ms: float = 2.0,
        executor: str = "thread",
        max_workers: int | None = None,
        retry=None,
        chaos=None,
        default_deadline: float | None = None,
    ):
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        self.window_ms = window_ms
        self.executor = executor
        self.max_workers = max_workers
        self.retry = retry
        self.chaos = chaos
        self.default_deadline = default_deadline
        self._queue: list[PendingRequest] = []
        self._cv = threading.Condition()
        self._closed = False
        self._counters = perf.PerfRegistry()
        self._max_batch = 0  # written by the dispatch thread only
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, tg, topology, config, faults=None, *,
               key: str = "", deadline: float | None = None) -> PendingRequest:
        """Queue one request; returns its :class:`PendingRequest` handle."""
        pending = PendingRequest(
            payload=(tg, topology, config, faults),
            key=key or f"serve:{id(tg):x}",
            deadline=deadline if deadline is not None else self.default_deadline,
        )
        with self._cv:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._queue.append(pending)
            self._cv.notify()
        return pending

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if self._closed and not self._queue:
                    return
            # Window: let the rest of a concurrent burst pile in before
            # draining, so the whole burst shares one supervised fan-out.
            if self.window_ms:
                time.sleep(self.window_ms / 1e3)
            with self._cv:
                batch, self._queue = self._queue, []
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: list[PendingRequest]) -> None:
        from repro.runtime import run_supervised

        self._counters.count("batches")
        self._counters.count("requests", len(batch))
        self._max_batch = max(self._max_batch, len(batch))
        # One supervised fan-out per distinct deadline (the runtime
        # applies a single deadline per call); insertion order keeps the
        # grouping deterministic.
        groups: dict[float | None, list[PendingRequest]] = {}
        for pending in batch:
            groups.setdefault(pending.deadline, []).append(pending)
        for deadline, group in groups.items():
            self._counters.count("sub_batches")
            try:
                with perf.span("serve.batch_run"):
                    results = run_supervised(
                        pipeline_task,
                        [p.payload for p in group],
                        executor=self.executor,
                        max_workers=self.max_workers,
                        keys=[p.key for p in group],
                        deadline=deadline,
                        retry=self.retry,
                        chaos=self.chaos,
                    )
            except BaseException as exc:  # defensive: the loop must survive
                for pending in group:
                    pending.error = exc
                    pending.done.set()
                continue
            for pending, result in zip(group, results):
                if result.ok:
                    pending.value = result.value
                else:
                    pending.error = result.error
                pending.done.set()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Batch counters (plus the mean batch size, for ``/v1/stats``)."""
        counted = self._counters.counters()
        snap = {
            name: counted.get(name, 0)
            for name in ("batches", "requests", "sub_batches")
        }
        snap["max_batch"] = self._max_batch
        with self._cv:
            snap["queued"] = len(self._queue)
        snap["mean_batch"] = (
            snap["requests"] / snap["batches"] if snap["batches"] else 0.0
        )
        return snap

    def close(self, timeout: float = 30.0) -> None:
        """Drain the queue and stop the dispatch thread."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self._thread.join(timeout)
