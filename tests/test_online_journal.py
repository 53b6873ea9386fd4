"""The online session's checkpoint journal: one full snapshot, then deltas.

Every checkpoint after a session's first names its parent and holds only
the records appended and the state that moved since.  These tests hold the
entries to that (size flat in session age, exactly the new records), and a
resume to what it must survive: a missing link, an unreadable or
mismatched entry, a size-bounded disk tier evicting the oldest files, and
a journal written in the full-snapshot layout of earlier checkouts
(``tests/data/session_journal_snapshot.*``, written by
``tests/data/capture_session_journal.py``).  A chain is journalled again
as one snapshot at the end of a run and after a resume through deltas, so
a repeated run reads one entry.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.arch import networks
from repro.larcs import stdlib
from repro.online import MappingSession, SessionConfig, generate_scenario
from repro.pipeline.cache import ArtifactCache
from repro.runtime import TaskResult

DATA = Path(__file__).parent / "data"


class RecordingCache(ArtifactCache):
    """An artifact cache that remembers every ``(key, value)`` put and
    counts its ``get`` calls."""

    def __init__(self, directory, **kwargs):
        super().__init__(directory, **kwargs)
        self.written = []
        self.reads = 0

    def get(self, key, **kwargs):
        self.reads += 1
        return super().get(key, **kwargs)

    def put(self, key, value):
        super().put(key, value)
        self.written.append((key, value))

    def size(self, key):
        return os.path.getsize(os.path.join(self.directory, f"{key}.pkl"))


def _chaos_instance():
    """The jacobi 3x3 / mesh 2x3 session the SIGKILL test resumes."""
    tg, topo = stdlib.load("jacobi", rows=3, cols=3), networks.mesh(2, 3)
    scn = generate_scenario(tg, topo, seed=33, n_events=20)
    cfg = SessionConfig(drift_threshold=0.15, clear_threshold=0.02,
                        cooldown_events=2)
    return tg, topo, scn.events, cfg


def _killed(instance, cache, n_events=None):
    """The report of a session that applied the first *n_events* events
    and was then killed: no ``run()`` returned, so nothing was compacted."""
    tg, topo, events, cfg = instance
    session = MappingSession(tg, topo, cfg, cache=cache)
    for event in events[:n_events]:
        session.apply(event)
    return session.report()


@pytest.fixture
def journalled(tmp_path):
    """A killed session's journal over a recording cache: (instance, the
    uninterrupted report, cache keys in event order, journal directory)."""
    instance = _chaos_instance()
    cache = RecordingCache(str(tmp_path / "journal"))
    report = _killed(instance, cache)
    keys = [key for key, _value in cache.written]
    assert len(keys) == len(instance[2])
    return instance, report, keys, cache.directory


def _resume(instance, directory, cache=None):
    tg, topo, events, cfg = instance
    if cache is None:
        cache = ArtifactCache(directory)
    session = MappingSession(tg, topo, cfg, cache=cache)
    return session.run(events, resume="auto")


def _parent_index(delta):
    return int(delta["parent"].split(":")[1])


class TestDeltaEntries:
    def test_checkpoint_size_is_flat_in_session_age(self, tmp_path):
        tg = stdlib.load("jacobi", rows=8, cols=8)
        topo = networks.hypercube(5)
        scn = generate_scenario(tg, topo, seed=1, n_events=400)
        cache = RecordingCache(str(tmp_path / "journal"))
        session = MappingSession(tg, topo, SessionConfig(checkpoint_every=1),
                                 cache=cache)
        for event in scn.events:
            session.apply(event)

        sizes = [cache.size(key) for key, _value in cache.written]
        assert len(sizes) == 400
        early = sum(sizes[50:150]) / 100
        late = sum(sizes[300:400]) / 100
        assert late <= 2 * early, (early, late)

        first, *rest = (result.value for _key, result in cache.written)
        assert "delta" not in first and len(first["trace"]) == 1
        # The delta after the snapshot carries event 1's few edges, not a
        # copy of all 224 the snapshot holds.
        assert sum(len(moved) for _n, moved in rest[0]["comm"].values()) < 10
        for index, delta in enumerate(rest, start=1):
            assert _parent_index(delta) == index - 1
            assert [r.index for r in delta["records"]] == [index]

    def test_each_delta_holds_the_records_since_its_parent(self, tmp_path):
        tg, topo, events, _cfg = _chaos_instance()
        cfg = SessionConfig(drift_threshold=0.15, clear_threshold=0.02,
                            cooldown_events=2, checkpoint_every=3)
        instance = (tg, topo, events, cfg)
        cache = RecordingCache(str(tmp_path / "journal"))
        want = _killed(instance, cache)
        values = [result.value for _key, result in cache.written]
        assert len(values) == len(events) // 3
        assert [r.index for r in values[0]["trace"]] == [0, 1, 2]
        for delta in values[1:]:
            first = _parent_index(delta) + 1
            assert ([r.index for r in delta["records"]]
                    == list(range(first, first + 3)))

        got = _resume(instance, cache.directory)
        assert got.resumed_at == 18
        assert got.trace_fingerprint == want.trace_fingerprint


class TestBrokenChains:
    @pytest.mark.parametrize("k", [2, 9, 20])
    def test_a_missing_entry_falls_back_to_the_one_before(self, journalled, k):
        instance, want, keys, directory = journalled
        os.unlink(os.path.join(directory, f"{keys[k - 1]}.pkl"))
        got = _resume(instance, directory)
        assert got.resumed_at == k - 1
        assert got.trace_fingerprint == want.trace_fingerprint
        assert got.final_mapping_fingerprint == want.final_mapping_fingerprint

    def test_without_the_snapshot_nothing_resumes(self, journalled):
        instance, want, keys, directory = journalled
        os.unlink(os.path.join(directory, f"{keys[0]}.pkl"))
        got = _resume(instance, directory)
        assert got.resumed_at is None
        assert got.trace_fingerprint == want.trace_fingerprint

    @pytest.mark.parametrize("layout", ["no snapshot", "later delta"])
    def test_an_unreadable_entry_counts_as_absent(self, journalled, layout):
        # An entry of a layout this checkout cannot read -- a later delta
        # format, say -- must neither raise nor half-restore the session.
        instance, want, keys, directory = journalled
        cache = ArtifactCache(directory)
        deepest = keys[-1]
        value = cache.get(deepest)[0].value
        if layout == "no snapshot":
            value = {"chain": value["chain"]}
        else:
            value = dict(value, delta=99, weights=None)
        cache.put(
            deepest,
            TaskResult(index=19, key="event:19", status="ok", value=value),
        )
        got = _resume(instance, directory)
        assert got.resumed_at == 19
        assert got.trace_fingerprint == want.trace_fingerprint

    def test_a_mismatched_entry_breaks_every_link_through_it(self, journalled):
        # The entry at key k holds checkpoint k - 1: readable, but not the
        # checkpoint its key names.
        instance, want, keys, directory = journalled
        k = 12
        shutil.copy(os.path.join(directory, f"{keys[k - 2]}.pkl"),
                    os.path.join(directory, f"{keys[k - 1]}.pkl"))
        got = _resume(instance, directory)
        assert got.resumed_at == k - 1
        assert got.trace_fingerprint == want.trace_fingerprint


class TestSnapshotsAgain:
    def test_a_finished_run_resumes_from_one_entry(self, tmp_path):
        instance = _chaos_instance()
        cache = RecordingCache(str(tmp_path / "journal"))
        want = _resume(instance, cache.directory, cache)
        assert want.resumed_at is None
        # The run's last checkpoint, written as a delta, then in full.
        (last, delta), (again, snapshot) = cache.written[-2:]
        assert last == again and "delta" in delta.value
        assert "delta" not in snapshot.value
        assert len(snapshot.value["trace"]) == len(instance[2])

        repeat = RecordingCache(cache.directory)
        got = _resume(instance, cache.directory, repeat)
        assert got.resumed_at == len(instance[2])
        assert got.trace_fingerprint == want.trace_fingerprint
        assert repeat.reads == 1 and repeat.written == []

    def test_a_resume_through_deltas_journals_a_snapshot(self, journalled):
        instance, want, keys, directory = journalled
        for key in keys[12:]:  # killed after 12 events
            os.unlink(os.path.join(directory, f"{key}.pkl"))
        cache = RecordingCache(directory)
        got = _resume(instance, directory, cache)
        assert got.resumed_at == 12
        # Eight misses above the deepest checkpoint, then back to the
        # snapshot: the restored state is journalled in full before the
        # first delta after it.
        assert cache.reads == 8 + 12
        (key, result), *rest = cache.written
        assert key == keys[11] and "delta" not in result.value
        assert [r.value["parent"] for _k, r in rest[:1]] == [
            f"event:11:{result.value['chain']}"]

        repeat = RecordingCache(directory)
        assert _resume(instance, directory, repeat).resumed_at == 20
        assert repeat.reads == 1
        assert got.trace_fingerprint == want.trace_fingerprint

    @pytest.mark.parametrize("kill_after", [35, 45, 60])
    def test_a_bounded_disk_tier_keeps_the_deepest_checkpoint(
            self, tmp_path, kill_after):
        # Eviction deletes the least recently used files, so it takes a
        # chain's snapshot first; the checkpoint that finds it gone is
        # journalled in full, and the deepest one always resolves.
        tg, topo = stdlib.load("jacobi", rows=3, cols=3), networks.mesh(2, 3)
        events = generate_scenario(tg, topo, seed=5, n_events=60).events
        instance = (tg, topo, events, SessionConfig())
        directory = str(tmp_path / "journal")
        bounded = RecordingCache(directory, max_disk_bytes=30_000)
        want = _killed(instance, bounded, kill_after)
        assert bounded.stats()["evictions_disk"] > 0
        assert sum("delta" not in r.value for _k, r in bounded.written) > 1

        got = _resume(instance, directory)
        assert got.resumed_at == kill_after
        assert got.trace_fingerprint == _killed(
            instance, ArtifactCache(None)).trace_fingerprint


class TestFullSnapshotLayout:
    def test_a_journal_of_full_snapshots_resumes(self, tmp_path):
        captured = json.loads((DATA / "session_journal_snapshot.json").read_text())
        directory = tmp_path / "journal"
        directory.mkdir()
        shutil.copy(DATA / "session_journal_snapshot.pkl",
                    directory / f"{captured['cache_key']}.pkl")
        instance = _chaos_instance()
        assert len(instance[2]) == captured["n_events"]

        got = _resume(instance, str(directory))
        assert got.session_key == captured["session_key"]
        assert got.resumed_at == captured["resumed_at"]
        assert got.trace_fingerprint == captured["trace_fingerprint"]
        assert (got.final_mapping_fingerprint
                == captured["final_mapping_fingerprint"])

        # The resumed session journalled deltas on top of the old entry,
        # then its last checkpoint in full; a second resume reads that.
        again = _resume(instance, str(directory))
        assert again.resumed_at == captured["n_events"]
        assert again.trace_fingerprint == captured["trace_fingerprint"]
