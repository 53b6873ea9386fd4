"""The shared content-addressed artifact store behind ``run_pipeline``.

Mapping a production workload re-solves the same instances constantly --
the same (task graph, topology, config) triple arrives from sweeps,
portfolios, repair loops, repeated CLI invocations, and (since PR 8)
thousands of concurrent ``repro serve`` requests.  Because every input
carries a stable content fingerprint (hash-seed independent; see
:mod:`repro.util.fingerprint`), a finished :class:`PipelineResult` can be
addressed purely by what was computed:

* **memory tier** -- a bounded LRU of each entry's pickled envelope, for
  the inner loops of one process;
* **disk tier** -- the same envelope bytes, one file per key under a cache
  directory, so a *new* process (tomorrow's CLI run, another pool worker,
  a restarted server) reuses yesterday's work.  The directory is the
  tier's only index: an
  entry's size is its file's size and its recency the file's mtime,
  stamped on every put and hit, so every instance sharing the directory
  sees the same tier.  It is **size-bounded**: a put over the byte budget
  deletes the least recently used files until the directory fits.
* **single-flight** -- :meth:`ArtifactCache.get_or_compute` deduplicates
  concurrent computations of one key: a thundering herd of identical
  requests elects one leader to compute while every other caller waits
  and shares the result (or the leader's error).

Layout and knobs
----------------
A library call uses only the store its caller hands it (``None``: none).
The process default, :func:`default_cache`, is read by the ``repro``
front doors alone.  Its directory is ``$XDG_CACHE_HOME/repro`` (usually
``~/.cache/repro``); override with ``REPRO_CACHE_DIR``, turn it off with
``REPRO_CACHE=off`` (``0``/``false``/``no`` also work), and bound its
disk tier with ``REPRO_CACHE_MAX_MB``.
Entries are one pickle per key, wrapped in a schema-versioned envelope --
a corrupted, truncated, or schema-mismatched file is a silent miss, and
invalidation is automatic because any input change changes the key.
Nothing else is persisted -- no index to rebuild or keep in step -- so
deleting the directory (or any file in it) is always safe.

``put`` pickles the envelope once, before either tier takes it: a value
that cannot be pickled raises and is stored nowhere.  Both tiers hold
those bytes and every hit decodes them, so a hit costs one unpickle and
is a fresh object its caller may mutate freely; a resident entry costs
its pickled size, not the several times larger live object graph.
``capacity=0`` makes a disk-only store, whose memory tier holds nothing.
``repro serve`` reads and writes through one: its ``rendered`` LRU of
response bytes is the server's one in-memory copy of each hot entry, and
on a held response it only stamps the entry's file (:meth:`touch`).

Every cache instance keeps its own monotonic counters (hits per tier,
misses, puts, evictions, single-flight leaders/waiters) exposed by
:meth:`ArtifactCache.stats`: the memory tier is a
:class:`~repro.util.lru.BoundedLRU`, which counts its own hits and
evictions, and everything else goes into one private
:class:`~repro.util.perf.PerfRegistry`.  ``repro serve`` surfaces them at
``/v1/stats`` and ``repro cache stats`` prints the on-disk view.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
from typing import Any, Callable

from repro import io
from repro.util.lru import BoundedLRU
from repro.util.perf import PerfRegistry

__all__ = [
    "ArtifactCache",
    "default_cache",
    "reset_default_cache",
    "cache_dir",
    "disk_stats",
    "with_memory_tier",
]

#: Bump when the pickled result layout changes incompatibly; envelopes
#: with another schema are misses, so stale caches degrade to cold, never
#: to wrong answers.  2: Topology grew the ``capacities``/``hierarchy``/
#: ``_structural_key`` attributes (PR 9), which pre-PR 9 pickles lack.
#: 3: ``RunConfig`` lost its ``analyze`` section and ``SimConfig`` its
#: ``memoize``/``kernel`` fields.  4: Topology keeps ``_adj`` where older
#: pickles hold an ``nx.Graph`` and BFS distance dicts.
CACHE_SCHEMA = 4

#: The version digested into pipeline and batch-run *keys*.  Separate from
#: :data:`CACHE_SCHEMA` so that a change of pickle layout (which the
#: envelope check turns into a miss) does not also re-address every run.
KEY_SCHEMA = 2

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_SWITCH = "REPRO_CACHE"
_ENV_MAX_MB = "REPRO_CACHE_MAX_MB"
_OFF_VALUES = ("off", "0", "false", "no")

_STAT_KEYS = (
    "hits_memory",
    "hits_disk",
    "misses",
    "puts",
    "computed",
    "evictions_memory",
    "evictions_disk",
    "singleflight_leaders",
    "singleflight_waits",
    "crossprocess_waits",
    "disk_write_errors",
)

#: Cross-process single-flight: a ``<key>.pkl.lock`` older than this is
#: considered abandoned by a crashed leader and broken by waiters.
_LOCK_STALE_S = 120.0
_LOCK_POLL_S = 0.005


def _result(blob: bytes) -> Any:
    """The value in envelope bytes the memory tier holds (checked when they
    entered it)."""
    return pickle.loads(blob)["result"]


def cache_dir() -> str:
    """The on-disk directory of the front doors' default cache.

    ``REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro``, falling
    back to ``~/.cache/repro``.
    """
    override = os.environ.get(_ENV_DIR)
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


class _Flight:
    """One in-flight computation; waiters block on the event."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


class ArtifactCache:
    """A bounded in-process LRU over a shared, size-bounded disk store.

    Both tiers hold an entry's pickled envelope (``put`` pickles it once
    for both), so every hit is a freshly decoded object and costs one
    unpickle; with ``capacity=0`` only the disk tier holds it.
    Thread-safe throughout (serve handler threads and portfolio pools
    share one instance); the disk tier relies on
    :func:`repro.io.write_artifact`'s atomic replace for cross-process
    safety and keeps no state of its own beyond the directory, so any
    number of instances and processes may share one.

    Parameters
    ----------
    directory:
        Disk-tier location, or ``None`` for a memory-only cache.
    capacity:
        Memory-tier entry bound; the least recently used entry is evicted
        (it stays on disk).  0 keeps no entry in memory.
    max_disk_bytes:
        Disk-tier byte budget, or ``None`` for unbounded.  A put that
        leaves the directory over it deletes the least recently *used*
        entries (reads count, by any instance) until it fits; an entry
        larger than the whole budget is dropped immediately after the
        write (the memory tier still holds its bytes).
    """

    def __init__(self, directory: str | None = None, *, capacity: int = 128,
                 max_disk_bytes: int | None = None):
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError(
                f"max_disk_bytes must be >= 0, got {max_disk_bytes}"
            )
        self.directory = directory
        self.max_disk_bytes = max_disk_bytes
        self._memory = BoundedLRU(capacity)
        self._counters = PerfRegistry()
        self._flights: dict[str, _Flight] = {}
        self._flight_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    @property
    def capacity(self) -> int:
        """The memory tier's entry bound."""
        return self._memory.capacity

    def get(self, key: str, *,
            count_miss: bool = True) -> tuple[Any, str] | None:
        """The cached value as ``(value, tier)``, or ``None`` on a miss.

        ``tier`` is ``"memory"`` or ``"disk"``; a disk hit's bytes are
        promoted into the memory tier, and either hit stamps the entry's
        file as just used.  The value is decoded afresh on every hit.
        ``count_miss=False`` is for internal re-checks (the single-flight
        leader looks again before computing) so one logical lookup never
        counts two misses.
        """
        blob = self._memory.get(key)
        if blob is not None:
            # A memory hit is still a *use*: stamp the file too, or a hot
            # entry would look cold to eviction.
            self.touch(key)
            return _result(blob), "memory"
        if self.directory is not None:
            try:
                with open(self._path(key), "rb") as fh:
                    blob = fh.read()
            except OSError:
                blob = b""  # decodes to None: a miss
            envelope = io.loads_artifact(blob)
            if (
                isinstance(envelope, dict)
                and envelope.get("schema") == CACHE_SCHEMA
                and envelope.get("key") == key
            ):
                self._memory.put(key, blob)
                self._counters.count("hits_disk")
                self.touch(key)
                return envelope["result"], "disk"
        if count_miss:
            self._counters.count("misses")
        return None

    def __contains__(self, key: str) -> bool:
        """Whether *key* is stored where a new process would find it (in
        memory for a memory-only cache), without marking it used."""
        if self.directory is None:
            return self._memory.peek(key) is not None
        return os.path.exists(self._path(key))

    def put(self, key: str, value: Any) -> None:
        """Store a value in both tiers (disk failures are non-fatal).

        The envelope is pickled first: a value that cannot be pickled
        raises here and neither tier holds it.
        """
        blob = pickle.dumps(
            {"schema": CACHE_SCHEMA, "key": key, "result": value},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._memory.put(key, blob)
        self._counters.count("puts")
        if self.directory is not None:
            try:
                io.write_artifact(blob, self._path(key))
            except OSError:
                # A read-only or full cache directory degrades the disk
                # tier to a no-op; results still flow.
                self._counters.count("disk_write_errors")
                return
            self.touch(key)
            if self.max_disk_bytes is not None:
                self._evict_disk()

    def touch(self, key: str) -> None:
        """Stamp *key*'s file as just used: its mtime is its recency (in
        explicit nanoseconds -- the kernel's own stamps are tick-coarse)."""
        if self.directory is None:
            return
        now = time.time_ns()
        try:
            os.utime(self._path(key), ns=(now, now))
        except OSError:
            pass

    def _evict_disk(self) -> None:
        """Delete least recently used files until the directory fits.

        No lock: instances in other processes evict the same directory
        concurrently anyway, and all of them delete in one order.
        """
        entries = _scan(self.directory)
        total = sum(size for _, _, size in entries)
        for _, key, size in sorted(entries):
            if total <= self.max_disk_bytes:
                break
            try:
                os.unlink(self._path(key))
                self._counters.count("evictions_disk")
            except FileNotFoundError:
                pass  # another instance evicted it first
            except OSError:
                continue  # still there; its bytes still count
            total -= size

    # ------------------------------------------------------------------
    # single-flight
    # ------------------------------------------------------------------
    def get_or_compute(
        self, key: str, compute: Callable[[], Any]
    ) -> tuple[Any, str]:
        """Serve *key* from cache, or compute it exactly once.

        Returns ``(value, tier)`` where ``tier`` is ``"memory"``/``"disk"``
        for cache hits, ``"computed"`` when this caller was elected the
        single-flight leader and ran *compute*, and ``"singleflight"``
        when the caller joined an in-flight computation and shared its
        result.  A leader's exception is re-raised in every waiter (and
        nothing is cached), so a herd of identical bad requests also
        fails exactly once.
        """
        hit = self.get(key)
        if hit is not None:
            return hit
        with self._flight_lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight()
                leader = True
            else:
                leader = False
        if not leader:
            self._counters.count("singleflight_waits")
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.value, "singleflight"
        # Double-check after election: a previous leader may have finished
        # (put + flight removed) between this caller's miss and now --
        # without the re-check a thundering herd could compute twice.
        # Uncounted: this caller's lookup already counted its miss.
        blob = self._memory.peek(key)
        if blob is not None:
            flight.value = value = _result(blob)
            with self._flight_lock:
                self._flights.pop(key, None)
            flight.event.set()
            return value, "memory"
        self._counters.count("singleflight_leaders")
        try:
            value, tier = self._compute_as_leader(key, compute)
        except BaseException as exc:
            flight.error = exc
            raise
        else:
            flight.value = value
            return value, tier
        finally:
            with self._flight_lock:
                self._flights.pop(key, None)
            flight.event.set()

    def _compute_and_store(self, key: str, compute: Callable[[], Any]) -> Any:
        value = compute()
        self.put(key, value)
        self._counters.count("computed")
        return value

    def _compute_as_leader(
        self, key: str, compute: Callable[[], Any]
    ) -> tuple[Any, str]:
        """Run *compute* under the disk tier's cross-process arbitration.

        The in-process single-flight leader still competes with *other
        processes* sharing the cache directory.  An ``O_EXCL`` lock file
        next to the entry elects exactly one process-wide leader; every
        other process waits for the lock to vanish and then reads the
        winner's artifact from disk, so N threads x M processes hammering
        one key still compute it once.  A lock abandoned by a crashed
        leader is broken after :data:`_LOCK_STALE_S`; a leader that fails
        releases the lock without an artifact, and one waiter takes over.
        """
        if self.directory is None:
            return self._compute_and_store(key, compute), "computed"
        lock_path = self._path(key) + ".lock"
        while True:
            fd = None
            try:
                os.makedirs(self.directory, exist_ok=True)
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            except OSError:
                # Unwritable cache directory: the disk tier is already a
                # no-op here, so fall back to in-process dedup only.
                return self._compute_and_store(key, compute), "computed"
            if fd is not None:
                try:
                    os.write(fd, str(os.getpid()).encode())
                finally:
                    os.close(fd)
                try:
                    # Another process may have finished while this one was
                    # electing: serve its artifact instead of recomputing.
                    hit = self.get(key, count_miss=False)
                    if hit is not None:
                        return hit
                    return self._compute_and_store(key, compute), "computed"
                finally:
                    try:
                        os.unlink(lock_path)
                    except OSError:
                        pass
            self._counters.count("crossprocess_waits")
            while True:
                try:
                    age = time.time() - os.path.getmtime(lock_path)
                except OSError:
                    break  # released
                if age > _LOCK_STALE_S:
                    try:
                        os.unlink(lock_path)
                    except OSError:
                        pass
                    break
                time.sleep(_LOCK_POLL_S)
            hit = self.get(key, count_miss=False)
            if hit is not None:
                return hit
            # The other process's leader failed without writing: loop and
            # try to take the lock ourselves.

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """A snapshot of this instance's counters plus the disk tier.

        ``hit_rate`` counts both cache tiers *and* single-flight waits as
        hits (a waiter never computed anything), over all ``get``/
        ``get_or_compute`` lookups (see :func:`with_memory_tier`).
        """
        counted = self._counters.counters()
        snap = with_memory_tier(
            {name: counted.get(name, 0) for name in _STAT_KEYS},
            self._memory.stats(),
        )
        on_disk = disk_stats(self.directory) if self.directory is not None else {}
        snap["disk"] = {
            "directory": self.directory,
            "max_bytes": self.max_disk_bytes,
            "entries": on_disk.get("entries", 0),
            "bytes": on_disk.get("bytes", 0),
        }
        return snap

    # ------------------------------------------------------------------
    def clear(self, *, disk: bool = False) -> None:
        """Drop the memory tier; with ``disk=True`` also delete the entries,
        lock files, temp files a killed writer left and the ``index.json``
        older checkouts kept (nothing else living in the directory)."""
        self._memory.clear()
        if disk and self.directory is not None and os.path.isdir(self.directory):
            for name in os.listdir(self.directory):
                if name.endswith((".pkl", ".lock", ".tmp")) or name == "index.json":
                    try:
                        os.unlink(os.path.join(self.directory, name))
                    except OSError:
                        pass

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        return (
            f"<ArtifactCache {len(self)}/{self._memory.capacity} in memory, "
            f"disk={self.directory!r}>"
        )


def with_memory_tier(snap: dict[str, Any], memory: dict) -> dict[str, Any]:
    """*snap*, a cache's counters, with its memory-tier members taken from
    *memory* (a :meth:`BoundedLRU.stats <repro.util.lru.BoundedLRU.stats>`
    snapshot) and ``hit_rate`` worked out from them; updated in place.

    ``repro serve`` passes its ``rendered`` LRU's snapshot over its
    disk-only store's counters: that LRU is the server's memory tier.
    """
    snap.update(
        hits_memory=memory["hits"],
        evictions_memory=memory["evictions"],
        memory_entries=memory["entries"],
        memory_capacity=memory["capacity"],
    )
    hits = snap["hits_memory"] + snap["hits_disk"] + snap["singleflight_waits"]
    # misses counts every get() that fell through, including the ones
    # get_or_compute then turned into a computation or a shared wait,
    # so tier hits + misses covers every lookup exactly once.
    lookups = snap["hits_memory"] + snap["hits_disk"] + snap["misses"]
    snap["hit_rate"] = hits / lookups if lookups else 0.0
    return snap


def _scan(directory: str) -> list[tuple[int, str, int]]:
    """``(mtime_ns, key, size)`` for every entry file; empty if no directory."""
    found = []
    try:
        with os.scandir(directory) as entries:
            for entry in entries:
                if entry.name.endswith(".pkl"):
                    try:
                        st = entry.stat()
                    except OSError:
                        continue  # deleted since the listing
                    found.append((st.st_mtime_ns, entry.name[:-4], st.st_size))
    except OSError:
        pass
    return found


def disk_stats(directory: str) -> dict:
    """The on-disk view of a cache directory (for ``repro cache stats``).

    One scan of the directory, which is the tier: authoritative however
    many processes share it.  :meth:`ArtifactCache.stats` reports the same.
    """
    entries = _scan(directory)
    return {"directory": directory, "entries": len(entries),
            "bytes": sum(size for _, _, size in entries)}


def budget_bytes(megabytes: str | float, name: str) -> int:
    """*megabytes* from the knob *name* as a disk-tier byte budget; anything
    but a finite number >= 0 is a :class:`ValueError` naming the knob."""
    try:
        mb = float(megabytes)
    except ValueError:
        mb = math.nan
    if not 0 <= mb < math.inf:
        raise ValueError(
            f"{name} must be a number of megabytes >= 0, got {megabytes!r}"
        )
    return int(mb * 1024 * 1024)


# ----------------------------------------------------------------------
# the process-wide default
# ----------------------------------------------------------------------

_default: ArtifactCache | None = None
_default_made = False
_default_lock = threading.Lock()


def _max_bytes_from_env() -> int | None:
    raw = os.environ.get(_ENV_MAX_MB, "").strip()
    return budget_bytes(raw, _ENV_MAX_MB) if raw else None


def default_cache() -> ArtifactCache | None:
    """The process-wide store the ``repro`` front doors hand their runs.

    Only :mod:`repro.cli` calls it; every library call uses the store it
    is given.  Built lazily from the environment; ``None`` when
    ``REPRO_CACHE`` is set to an off value, byte-bounded when
    ``REPRO_CACHE_MAX_MB`` is set.
    The environment is read once -- call :func:`reset_default_cache` after
    changing it (tests do).
    """
    global _default, _default_made
    with _default_lock:
        if not _default_made:
            switch = os.environ.get(_ENV_SWITCH, "").strip().lower()
            _default = None if switch in _OFF_VALUES else ArtifactCache(
                cache_dir(), max_disk_bytes=_max_bytes_from_env()
            )
            _default_made = True
        return _default


def reset_default_cache() -> None:
    """Forget the default cache so the next use re-reads the environment."""
    global _default, _default_made
    with _default_lock:
        _default = None
        _default_made = False
