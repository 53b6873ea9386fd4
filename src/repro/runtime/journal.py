"""Crash-safe checkpointing for supervised fan-outs.

A multi-hour sweep that dies at fault 900/1000 must not restart from
zero.  The :class:`Journal` streams every finished
:class:`~repro.runtime.supervisor.TaskResult` into the PR 4
:class:`~repro.pipeline.cache.ArtifactCache` disk tier as it completes
(one atomic pickle per task -- a kill can lose at most the in-flight
tasks, never corrupt a recorded one), and a re-invoked run serves the
recorded tasks from the journal and executes only the remainder.
Because recorded results carry the original values and attempt
histories, a resumed run's winners and rankings are bit-identical to an
uninterrupted run's.

Checkpoint format
-----------------
Each entry is one cache artifact whose key is::

    stable_digest({"kind": "runtime-journal", "schema": JOURNAL_SCHEMA,
                   "run": <run key>, "task": <task key>})

The **run key** is a content fingerprint of the whole fan-out (inputs,
configuration, task list) computed by the entry point -- so two different
sweeps sharing one cache directory can never serve each other's entries,
and any input change invalidates the journal wholesale.  The **task key**
is the per-payload label within that run (a strategy name, ``proc 5``).
Entries live in the same schema-versioned envelopes as every other
artifact: corrupted or stale files read as "not journalled yet" and the
task simply re-runs.  Deleting the cache directory is always safe.

Failed results are journalled too: a resumed run reports the same
explicit failures instead of silently retrying them (delete the cache
entry -- or run with ``resume="off"`` -- to retry deliberately).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.runtime.supervisor import RESUME_MODES, TaskResult
from repro.util.fingerprint import stable_digest

__all__ = ["Journal", "JOURNAL_SCHEMA", "journal_for", "resume_journal"]

#: Bump when the journalled TaskResult layout changes incompatibly.
JOURNAL_SCHEMA = 1


class Journal:
    """A per-run checkpoint log over an :class:`ArtifactCache`.

    Parameters
    ----------
    cache:
        Any object with the :class:`~repro.pipeline.cache.ArtifactCache`
        ``get``/``put`` surface.  A cache without a disk tier still
        checkpoints within the process (useful in tests); crash safety
        needs the disk tier.
    run_key:
        The fan-out's content fingerprint (see module docs).
    """

    def __init__(self, cache, run_key: str):
        self.cache = cache
        self.run_key = run_key

    def _key(self, task_key: str) -> str:
        return stable_digest({
            "kind": "runtime-journal",
            "schema": JOURNAL_SCHEMA,
            "run": self.run_key,
            "task": task_key,
        })

    def load(self, task_key: str) -> TaskResult | None:
        """The recorded result for *task_key*, or ``None`` when absent."""
        hit = self.cache.get(self._key(task_key))
        if hit is None:
            return None
        value, _tier = hit
        return value if isinstance(value, TaskResult) else None

    def record(self, task_key: str, result: TaskResult) -> None:
        """Checkpoint one finished result (atomic on the disk tier)."""
        self.cache.put(self._key(task_key), result)

    def has(self, task_key: str) -> bool:
        """Whether *task_key* is still recorded, without marking it used.
        A cache with only the ``get``/``put`` surface is taken to keep
        everything."""
        contains = getattr(self.cache, "__contains__", None)
        return contains is None or contains(self._key(task_key))


def journal_for(run_key: str, cache) -> Journal | None:
    """A journal over *cache*, the store the caller was handed.

    ``None`` without one: no store means nothing is journalled, and the
    caller runs without resumability instead of failing.
    """
    return Journal(cache, run_key) if cache is not None else None


def resume_journal(resume: str, cache=None,
                   run_key: Callable[[], dict] | None = None) -> Journal | None:
    """Validate a ``resume=`` mode and build the run's journal for it.

    Where every journalled entry point turns its ``resume``/``cache``
    arguments into ``run_supervised``'s ``journal=``.  *run_key* returns the
    run key's payload dict and is called (and digested) only under
    ``resume="auto"`` with a *cache*, so any other run fingerprints nothing;
    without it this only validates the mode (the online session chains its
    own keys).
    """
    if resume not in RESUME_MODES:
        raise ValueError(
            f"unknown resume mode {resume!r}; choose from {RESUME_MODES}"
        )
    if resume == "off" or run_key is None or cache is None:
        return None
    return journal_for(stable_digest(run_key()), cache)
