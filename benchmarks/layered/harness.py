"""Measurement helpers shared by the workloads: statistics, the span
recorder, guarded probes, process accounting and temp directories.

Nothing here imports ``repro``; the workloads do, so this file also runs
in a directory that holds only the benchmark.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, p: float) -> float | None:
    """The *p*-th percentile by nearest rank, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(p / 100.0 * n)
    if n - rank < MIN_BEYOND:
        return None
    return float(ordered[rank - 1])


def samples_beyond(n: int, p: float) -> int:
    return n - math.ceil(p / 100.0 * n)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: ``(name, start, end, parent, op)`` rows.

    ``parent`` is the index of the enclosing span (-1 at the top) and
    ``op`` the operation the span belongs to, so the spans of one
    operation share an identifier.  Written out only by :meth:`dump`.
    """

    def __init__(self):
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        row = [name, 0.0, 0.0, parent, self.op]
        self.rows.append(row)
        self._stack.append(index)
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span timed by the caller (the load client's threads)."""
        self.rows.append([name, start, end, parent, self.op])
        return len(self.rows) - 1

    def totals(self) -> dict[str, dict]:
        """Per name: calls, total seconds, self seconds (span minus the
        part its children cover)."""
        child_time = [0.0] * len(self.rows)
        for _name, start, end, parent, _op in self.rows:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.rows):
            slot = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            slot["calls"] += 1
            slot["total_s"] += end - start
            slot["self_s"] += end - start - child_time[i]
        return out

    def coverage(self, root: str) -> float:
        """Share of the *root* spans' time that their children cover."""
        covered = total = 0.0
        roots = {i for i, r in enumerate(self.rows) if r[0] == root}
        for _name, start, end, parent, _op in self.rows:
            if parent in roots:
                covered += end - start
        for i in roots:
            total += self.rows[i][2] - self.rows[i][1]
        return covered / total if total else 0.0

    def dump(self) -> dict:
        return {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.rows,
        }


# ----------------------------------------------------------------------
# guarded probes
# ----------------------------------------------------------------------

class Probes:
    """Timings of single public functions, taken where the harness calls
    them anyway (set-up) or on small dedicated inputs.

    A probe whose function has been renamed or removed reports ``None``
    and a warning; it never takes the run down with it, so deleting a
    public knob does not require editing the benchmark first.
    """

    _GONE = (ImportError, AttributeError, TypeError)
    _SCALE = {"_ms": 1e3, "_us": 1e6, "_s": 1.0}

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float | None] = {}
        self.warnings: list[str] = []

    def _gone(self, name: str, exc: BaseException) -> None:
        self.values[name] = None
        message = f"probe {name}: {type(exc).__name__}: {exc}; reported as null"
        if message not in self.warnings:
            self.warnings.append(message)
            print(f"warning: {message}", file=sys.stderr)

    def time(self, name: str, fn):
        """Call ``fn()``, keep its wall time as one sample of *name*, and
        return its result (``None`` when the function has gone)."""
        start = time.perf_counter()
        try:
            result = fn()
        except self._GONE as exc:
            self._gone(name, exc)
            return None
        self.samples.setdefault(name, []).append(time.perf_counter() - start)
        return result

    def value(self, name: str, fn) -> None:
        """Record the number ``fn()`` returns under *name*."""
        try:
            self.values[name] = fn()
        except self._GONE as exc:
            self._gone(name, exc)

    def summary(self) -> dict[str, float | None]:
        """Every probe by name: the median of its timed samples, in the
        unit its name ends with, or the recorded value."""
        out = dict(self.values)
        for name, samples in self.samples.items():
            if out.get(name, 0) is None:
                continue  # gone on some call: stays null
            scale = next(v for k, v in self._SCALE.items() if name.endswith(k))
            out[name] = median(samples) * scale
        return out


# ----------------------------------------------------------------------
# process accounting
# ----------------------------------------------------------------------

def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MB (its peak resident set)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """``utime + stime`` of a process in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def host_meta() -> dict:
    """Where the numbers were taken: cores, versions, commit, code size."""
    import platform
    import subprocess

    meta: dict = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    for module in ("numpy", "scipy", "networkx"):
        try:
            meta[module] = __import__(module).__version__
        except ImportError:
            meta[module] = None
    try:
        meta["git_sha"] = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        meta["git_sha"] = None
    lines = 0
    for root, _dirs, files in os.walk(os.path.join(SRC_DIR, "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    lines += sum(1 for _ in fh)
    meta["src_lines"] = lines
    return meta


# ----------------------------------------------------------------------
# hermetic environments and temp directories
# ----------------------------------------------------------------------

def without_repro_knobs(env) -> dict:
    """A copy of *env* with no chaos plan and no inherited cache settings."""
    return {k: v for k, v in env.items()
            if k != "REPRO_CHAOS" and not k.startswith("REPRO_CACHE")}


def child_environment(cache_dir: str) -> dict:
    """The environment of a ``python -m repro`` child: this checkout's
    sources, a cache directory of its own, nothing else of ours."""
    env = without_repro_knobs(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


class TempRoot:
    """Every file a run creates lives under one directory inside the
    checkout (``.bench_tmp/<unique>``), removed when the run ends."""

    def __init__(self):
        base = os.path.join(REPO_ROOT, ".bench_tmp")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=base)

    def fresh(self, prefix: str) -> str:
        """A new, empty directory under the root."""
        path = tempfile.mkdtemp(prefix=prefix + "-", dir=self.path)
        if os.listdir(path):
            raise RuntimeError(f"fresh directory {path} is not empty")
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run still uses the shared parent
