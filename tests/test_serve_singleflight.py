"""Single-flight and disk-tier guarantees of the shared artifact cache.

The serving acceptance bar: a thundering herd of identical requests --
across handler *threads* and across *processes* sharing one cache
directory -- runs the pipeline exactly once, every waiter sees the
leader's result (or its error), and the disk tier stays inside its byte
budget by evicting least-recently-used entries.  Corruption of any
on-disk artifact degrades to a miss, never to a wrong answer.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.pipeline.cache import (
    ArtifactCache, default_cache, disk_stats, reset_default_cache,
)

KEY = "the-contended-key"


# ----------------------------------------------------------------------
# single flight: threads
# ----------------------------------------------------------------------
class TestThreadHerd:
    def test_herd_computes_exactly_once(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        calls = []
        started = threading.Barrier(16)

        def compute():
            calls.append(1)
            time.sleep(0.15)
            return {"payload": 42}

        results = []

        def worker():
            started.wait()
            results.append(cache.get_or_compute(KEY, compute))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert len(results) == 16
        assert all(value == {"payload": 42} for value, _ in results)
        stats = cache.stats()
        assert stats["computed"] == 1
        # every caller either computed, waited on the flight, or hit a tier
        tiers = [tier for _, tier in results]
        assert tiers.count("computed") == 1
        assert (
            stats["singleflight_waits"]
            + stats["hits_memory"] + stats["hits_disk"] + 1
            >= 16
        )

    def test_leader_error_shared_then_not_cached(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        gate = threading.Barrier(4)
        boom = RuntimeError("compute exploded")

        def bad_compute():
            time.sleep(0.1)
            raise boom

        errors = []

        def worker():
            gate.wait()
            try:
                cache.get_or_compute(KEY, bad_compute)
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every caller saw the one failure, and nothing was poisoned
        assert len(errors) == 4
        assert all(exc is boom for exc in errors)
        assert cache.get(KEY) is None
        # the key recovers: the next compute succeeds and is cached
        value, tier = cache.get_or_compute(KEY, lambda: "fine")
        assert (value, tier) == ("fine", "computed")
        assert cache.get(KEY) == ("fine", "memory")

    def test_bit_identical_value_shared_not_copied(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        gate = threading.Barrier(8)
        results = []

        def compute():
            time.sleep(0.1)
            return {"big": list(range(100))}

        def worker():
            gate.wait()
            results.append(cache.get_or_compute(KEY, compute)[0])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        first = results[0]
        assert all(value == first for value in results)


# ----------------------------------------------------------------------
# single flight: threads x processes
# ----------------------------------------------------------------------
def _process_herd(directory, barrier, queue):
    cache = ArtifactCache(directory)
    calls = []

    def compute():
        calls.append(1)
        time.sleep(0.3)
        return {"answer": 42, "detail": list(range(50))}

    barrier.wait()
    results = []

    def worker():
        results.append(cache.get_or_compute(KEY, compute))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    queue.put((len(calls), [value for value, _ in results]))


class TestProcessHerd:
    def test_threads_and_processes_compute_exactly_once(self, tmp_path):
        """3 processes x 4 threads on one key: one computation, total."""
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        barrier = ctx.Barrier(3)
        procs = [
            ctx.Process(target=_process_herd,
                        args=(str(tmp_path), barrier, queue))
            for _ in range(3)
        ]
        for p in procs:
            p.start()
        total_calls = 0
        values = []
        for _ in procs:
            calls, vals = queue.get(timeout=60)
            total_calls += calls
            values.extend(vals)
        for p in procs:
            p.join(timeout=30)
        assert total_calls == 1
        assert len(values) == 12
        first = values[0]
        assert all(value == first for value in values)

    def test_stale_lock_is_broken(self, tmp_path, monkeypatch):
        """A lock file abandoned by a crashed leader must not wedge waiters."""
        import repro.pipeline.cache as cache_mod

        monkeypatch.setattr(cache_mod, "_LOCK_STALE_S", 0.2)
        cache = ArtifactCache(str(tmp_path))
        lock = os.path.join(str(tmp_path), f"{KEY}.pkl.lock")
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(lock, "w") as fh:
            fh.write("99999")
        old = time.time() - 10
        os.utime(lock, (old, old))
        begin = time.monotonic()
        value, tier = cache.get_or_compute(KEY, lambda: "rescued")
        assert value == "rescued"
        assert time.monotonic() - begin < 5
        assert not os.path.exists(lock)


# ----------------------------------------------------------------------
# the size-bounded disk tier
# ----------------------------------------------------------------------
def _entry_size(directory: str) -> int:
    """The on-disk size of one cached entry (they are all alike here)."""
    probe = ArtifactCache(directory)
    probe.put("size-probe", {"pad": list(range(100))})
    size = os.path.getsize(os.path.join(directory, "size-probe.pkl"))
    probe.clear(disk=True)
    return size


class TestDiskLRU:
    def test_byte_budget_evicts_least_recently_used(self, tmp_path):
        directory = str(tmp_path)
        size = _entry_size(directory)
        cache = ArtifactCache(directory, max_disk_bytes=3 * size)
        payload = {"pad": list(range(100))}
        cache.put("a", payload)
        time.sleep(0.01)
        cache.put("b", payload)
        time.sleep(0.01)
        cache.put("c", payload)
        # refresh "a" so "b" is now the least recently used
        assert cache.get("a") is not None
        time.sleep(0.01)
        cache.put("d", payload)
        on_disk = {
            name[:-4] for name in os.listdir(directory)
            if name.endswith(".pkl")
        }
        assert on_disk == {"a", "c", "d"}
        assert cache.stats()["evictions_disk"] == 1
        assert disk_stats(directory)["bytes"] <= 3 * size

    def test_oversized_entry_is_dropped_immediately(self, tmp_path):
        directory = str(tmp_path)
        cache = ArtifactCache(directory, max_disk_bytes=10)
        cache.put("huge", {"pad": list(range(1000))})
        assert disk_stats(directory)["entries"] == 0
        # the memory tier still serves it
        assert cache.get("huge") is not None

    def test_unbounded_by_default(self, tmp_path):
        directory = str(tmp_path)
        cache = ArtifactCache(directory)
        for index in range(10):
            cache.put(f"k{index}", {"pad": list(range(200))})
        assert disk_stats(directory)["entries"] == 10
        assert cache.stats()["evictions_disk"] == 0

    def test_eviction_survives_process_restart(self, tmp_path):
        """Recency persists in the files' mtimes, so a new process evicts right."""
        directory = str(tmp_path)
        size = _entry_size(directory)
        first = ArtifactCache(directory, max_disk_bytes=3 * size)
        payload = {"pad": list(range(100))}
        first.put("a", payload)
        time.sleep(0.01)
        first.put("b", payload)
        time.sleep(0.01)
        first.put("c", payload)
        assert first.get("a") is not None  # refresh recency, persists below
        first.put("refresh-flush", payload)  # forces an index rewrite
        time.sleep(0.01)
        second = ArtifactCache(directory, max_disk_bytes=2 * size)
        second.put("d", payload)
        survivors = {
            name[:-4] for name in os.listdir(directory)
            if name.endswith(".pkl")
        }
        assert "d" in survivors
        assert "b" not in survivors  # oldest unrefreshed entry went first


def _on_disk(directory):
    return {n[:-4] for n in os.listdir(directory) if n.endswith(".pkl")}


class TestDirectoryIsTheIndex:
    """The disk tier keeps no index: sizes and recency (file mtimes) are
    read off the directory, so instances sharing it agree on one tier."""

    def test_two_instances_share_one_budget(self, tmp_path):
        directory = str(tmp_path)
        budget = 50_000
        first = ArtifactCache(directory, max_disk_bytes=budget)
        second = ArtifactCache(directory, max_disk_bytes=budget)
        for index in range(12):
            (first, second)[index % 2].put(f"k{index}", {"pad": bytes(10_000)})
            on_disk = disk_stats(directory)
            assert 0 < on_disk["bytes"] <= budget
            for cache in (first, second):
                view = cache.stats()["disk"]
                assert (view["entries"], view["bytes"]) == (
                    on_disk["entries"], on_disk["bytes"]
                )
        assert _on_disk(directory) == {f"k{index}" for index in range(8, 12)}

    def test_no_index_file_is_written(self, tmp_path):
        directory = str(tmp_path)
        size = _entry_size(directory)
        cache = ArtifactCache(directory, max_disk_bytes=2 * size)
        payload = {"pad": list(range(100))}
        for key in "abc":
            cache.put(key, payload)
            cache.get(key)
            time.sleep(0.01)
        assert cache.stats()["evictions_disk"] == 1
        assert sorted(os.listdir(directory)) == ["b.pkl", "c.pkl"]

    def test_memory_hit_protects_the_entry_from_a_new_instance(self, tmp_path):
        directory = str(tmp_path)
        size = _entry_size(directory)
        payload = {"pad": list(range(100))}
        first = ArtifactCache(directory)
        for key in "abc":
            first.put(key, payload)
            time.sleep(0.02)
        assert first.get("a") == (payload, "memory")  # no put follows
        time.sleep(0.02)
        ArtifactCache(directory, max_disk_bytes=3 * size).put("d", payload)
        assert _on_disk(directory) == {"a", "c", "d"}

    @pytest.mark.parametrize("index_file", ["stale", "corrupt", "dropped"])
    def test_stale_or_missing_index_changes_nothing(self, tmp_path, index_file):
        """A leftover ``index.json`` from an older checkout -- naming the
        wrong entries as the most recent, or not JSON at all -- is neither
        read nor rewritten: eviction follows the recency of the files."""
        directory = str(tmp_path)
        size = _entry_size(directory)
        payload = {"pad": list(range(100))}
        first = ArtifactCache(directory)
        for key in "abcd":
            first.put(key, payload)
            time.sleep(0.02)
        leftover = {
            "stale": json.dumps({"schema": 1, "entries": {
                "b": [size, time.time() + 3600], "d": [size, time.time() + 3600],
            }}),
            "corrupt": "{ not json at all",
        }.get(index_file)
        if leftover is not None:
            with open(os.path.join(directory, "index.json"), "w") as fh:
                fh.write(leftover)

        second = ArtifactCache(directory, max_disk_bytes=4 * size)
        assert second.stats()["disk"]["entries"] == 4
        assert second.get("c") == (payload, "disk")
        assert second.get("a") == (payload, "disk")  # a, c: now the most recent
        time.sleep(0.02)
        second.put("e", payload)                     # over budget by one: b goes
        second.put("f", payload)                     # and then d
        assert _on_disk(directory) == {"a", "c", "e", "f"}
        assert second.stats()["disk"]["entries"] == 4
        if leftover is not None:
            with open(os.path.join(directory, "index.json")) as fh:
                assert fh.read() == leftover


class TestCorruption:
    def test_truncated_entry_is_a_miss(self, tmp_path):
        directory = str(tmp_path)
        cache = ArtifactCache(directory)
        cache.put(KEY, {"fine": True})
        path = os.path.join(directory, f"{KEY}.pkl")
        with open(path, "wb") as fh:
            fh.write(b"\x80\x04 truncated garbage")
        fresh = ArtifactCache(directory)  # cold memory tier
        assert fresh.get(KEY) is None
        assert fresh.stats()["misses"] == 1

    def test_corrupt_index_rebuilt_from_scan(self, tmp_path):
        """A corrupt leftover ``index.json`` is ignored: the scan is the view."""
        directory = str(tmp_path)
        cache = ArtifactCache(directory)
        cache.put("a", 1)
        cache.put("b", 2)
        with open(os.path.join(directory, "index.json"), "w") as fh:
            fh.write("{ not json at all")
        fresh = ArtifactCache(directory)
        assert fresh.get("a") == (1, "disk")
        assert fresh.stats()["disk"]["entries"] == 2

    def test_wrong_key_envelope_is_a_miss(self, tmp_path):
        """An entry whose envelope names another key never leaks through."""
        directory = str(tmp_path)
        cache = ArtifactCache(directory)
        cache.put("real", "value")
        os.replace(
            os.path.join(directory, "real.pkl"),
            os.path.join(directory, "imposter.pkl"),
        )
        fresh = ArtifactCache(directory)
        assert fresh.get("imposter") is None

    def test_clear_disk_removes_entries_index_and_locks(self, tmp_path):
        directory = str(tmp_path)
        cache = ArtifactCache(directory)
        cache.put("a", 1)
        with open(os.path.join(directory, "a.pkl.lock"), "w") as fh:
            fh.write("1")
        cache.clear(disk=True)
        assert disk_stats(directory)["entries"] == 0
        assert os.listdir(directory) == []
        assert cache.get("a") is None

    def test_clear_disk_removes_orphaned_temp_files(self, tmp_path):
        """A writer killed before its ``os.replace`` leaves ``tmp*.tmp``
        behind; the budget never counts it, so only ``clear`` can."""
        directory = str(tmp_path)
        cache = ArtifactCache(directory)
        cache.put("a", 1)
        with open(os.path.join(directory, "tmpk1ll3d.tmp"), "wb") as fh:
            fh.write(bytes(500_000))
        with open(os.path.join(directory, "index.json"), "w") as fh:
            fh.write("{}")  # an older checkout's index goes too
        with open(os.path.join(directory, "notes.txt"), "w") as fh:
            fh.write("precious")
        cache.clear(disk=True)
        assert os.listdir(directory) == ["notes.txt"]


class TestStats:
    def test_hit_rate_counts_waits_as_hits(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.get_or_compute(KEY, lambda: 1)   # miss + computed
        cache.get(KEY)                          # memory hit
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits_memory"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_memory_capacity_bound(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), capacity=2)
        for index in range(4):
            cache.put(f"k{index}", index)
        stats = cache.stats()
        assert stats["memory_entries"] == 2
        assert stats["evictions_memory"] == 2
        # evicted from memory but still on disk
        assert cache.get("k0") == (0, "disk")


class TestDiskBudgetKnob:
    @pytest.mark.parametrize("raw", ["abc", "1g", "-5", "inf", "nan"])
    def test_a_bad_env_value_names_the_knob(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", raw)
        reset_default_cache()
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_MB") as info:
            default_cache()
        assert repr(raw) in str(info.value)

    @pytest.mark.parametrize("raw, budget", [
        ("", None), ("  ", None), ("0", 0), ("1.5", 3 * 512 * 1024),
    ])
    def test_unset_empty_and_zero_stay_legal(self, raw, budget, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", raw)
        reset_default_cache()
        assert default_cache().max_disk_bytes == budget
