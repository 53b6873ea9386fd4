"""The supervised execution runtime (deadlines, retries, checkpoints, chaos).

PR 3 made the *modeled* machine fault-tolerant; this package makes the
toolchain itself fault-tolerant.  Every fan-out entry point -- the
mapping portfolio, the failure sweep and batched pipeline runs --
executes through :func:`run_supervised`, which adds, in exactly one place:

* per-task wall-clock **deadlines** (hung process workers are killed and
  replaced, never awaited forever),
* **retry policies** with seeded deterministic exponential backoff,
* a structured **error taxonomy** (:mod:`repro.errors`) where failures
  are first-class :class:`TaskResult` values,
* crash-safe **checkpointing** (:class:`Journal`) through the artifact
  cache's disk tier, so killed runs resume bit-identical,
* a deterministic **chaos harness** (:class:`ChaosPlan`, or the
  ``REPRO_CHAOS`` environment knob) for tests and robustness drills.

See ``docs/robustness.md`` for the supervision model end to end.
"""

from repro.errors import (
    AllStrategiesFailed,
    Attempt,
    RetriesExhausted,
    SupervisionError,
    TaskTimeout,
    WorkerCrash,
)
from repro.runtime.chaos import (
    CHAOS_ENV,
    CHAOS_EXIT_CODE,
    KILL_EXIT_CODE,
    ChaosPlan,
    SimulatedWorkerCrash,
    TransientChaosError,
    plan_from_env,
)
from repro.runtime.journal import (
    JOURNAL_SCHEMA,
    Journal,
    journal_for,
    resume_journal,
)
from repro.runtime.supervisor import (
    EXECUTORS,
    RESUME_MODES,
    RetryPolicy,
    TaskResult,
    TaskSpec,
    run_supervised,
)

__all__ = [
    "run_supervised",
    "EXECUTORS",
    "RESUME_MODES",
    "RetryPolicy",
    "TaskSpec",
    "TaskResult",
    "Journal",
    "journal_for",
    "resume_journal",
    "JOURNAL_SCHEMA",
    "ChaosPlan",
    "plan_from_env",
    "CHAOS_ENV",
    "CHAOS_EXIT_CODE",
    "KILL_EXIT_CODE",
    "SimulatedWorkerCrash",
    "TransientChaosError",
    "Attempt",
    "SupervisionError",
    "TaskTimeout",
    "WorkerCrash",
    "RetriesExhausted",
    "AllStrategiesFailed",
]
