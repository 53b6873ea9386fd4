"""Concurrent-writer safety of the artifact cache's disk tier.

The journal streams checkpoints from many supervisor threads -- and, for
the sweep's process executor, from many *processes* sharing one cache
directory -- so disk-tier writes race by design.  Safety rests on
:func:`repro.io.save_artifact` staging each pickle into a unique temp
file and publishing it with an atomic ``os.replace``: readers must only
ever see either a complete old envelope or a complete new one, never a
torn file.  These tests hammer one key from several processes and
threads at once and assert exactly that.

The in-process tiers are all :class:`repro.util.lru.BoundedLRU`
instances; the last two tests hammer one directly and through
``Topology.distance_matrix`` (reached from serve's thread executor),
asserting the counter identities a lost update would break.
"""

import multiprocessing
import sys
import threading

import numpy as np

from repro.arch import networks
from repro.pipeline import ArtifactCache
from repro.util.lru import BoundedLRU

_N_WRITERS = 4
_N_ROUNDS = 30
_KEY = "contended-key"


def _payload(writer: int, round_: int) -> dict:
    # Big enough that a torn read could not parse as a valid pickle
    # envelope by accident.
    return {"writer": writer, "round": round_, "pad": list(range(2000))}


def _hammer(directory: str, writer: int) -> None:
    cache = ArtifactCache(directory)
    for round_ in range(_N_ROUNDS):
        cache.put(_KEY, _payload(writer, round_))


def _valid(value) -> bool:
    return (
        isinstance(value, dict)
        and 0 <= value["writer"] < _N_WRITERS
        and 0 <= value["round"] < _N_ROUNDS
        and value == _payload(value["writer"], value["round"])
    )


def test_concurrent_process_writers_never_tear(tmp_path):
    directory = str(tmp_path / "cache")
    ctx = multiprocessing.get_context()
    writers = [
        ctx.Process(target=_hammer, args=(directory, w))
        for w in range(_N_WRITERS)
    ]
    for p in writers:
        p.start()

    # A fresh reader per probe: no memory tier, every get is a disk read
    # racing the writers.
    seen = 0
    while any(p.is_alive() for p in writers):
        hit = ArtifactCache(directory).get(_KEY)
        if hit is not None:
            value, tier = hit
            assert tier == "disk"
            assert _valid(value), f"torn envelope surfaced: {value!r}"
            seen += 1
    for p in writers:
        p.join()
        assert p.exitcode == 0

    value, _ = ArtifactCache(directory).get(_KEY)
    assert _valid(value)
    assert seen > 0, "the reader never raced a writer; test proved nothing"


def test_concurrent_thread_writers_share_one_cache(tmp_path):
    # One ArtifactCache instance under writer threads (the journal's
    # actual shape): the memory tier's lock plus the disk tier's atomic
    # replace keep every read coherent.
    cache = ArtifactCache(str(tmp_path / "cache"))
    threads = [
        threading.Thread(target=_hammer, args=(cache.directory, w))
        for w in range(_N_WRITERS)
    ]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        hit = cache.get(_KEY)
        if hit is not None:
            assert _valid(hit[0])
    for t in threads:
        t.join()
    assert _valid(cache.get(_KEY)[0])


_N_THREADS = 16


def _run_on_threads(work) -> None:
    """``work(thread_index)`` on 16 threads at a shortened switch interval."""
    errors = []

    def run(index):
        try:
            work(index)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(index,))
        for index in range(_N_THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


def test_bounded_lru_counters_survive_a_thread_hammer():
    lru = BoundedLRU(32)
    keys = [f"k{i}" for i in range(lru.capacity + 4)]
    rounds = 500
    puts = [0] * _N_THREADS

    def read_through(index):
        for i in range(rounds):
            key = keys[(index * 5 + i) % len(keys)]
            value = lru.get(key)
            if value is None:
                lru.put(key, key)
                puts[index] += 1
            else:
                assert value == key
            assert len(lru) <= lru.capacity

    _run_on_threads(read_through)
    shared = lru.stats()
    assert shared["hits"] + shared["misses"] == _N_THREADS * rounds
    assert shared["entries"] == lru.capacity
    # Two threads that miss the same key both put it and the second put
    # replaces, so on shared keys the puts only bound the evictions ...
    assert 0 < shared["evictions"] <= sum(puts) - shared["entries"]

    def insert_fresh(index):
        for i in range(rounds):
            lru.put((index, i), i)

    # ... while on never-seen keys every put inserts, and the identity
    # evictions == insertions - growth is exact.
    _run_on_threads(insert_fresh)
    fresh = lru.stats()
    assert fresh["entries"] == len(lru) == lru.capacity
    assert (
        fresh["evictions"] - shared["evictions"]
        == _N_THREADS * rounds - (fresh["entries"] - shared["entries"])
    )
    assert (fresh["hits"], fresh["misses"]) == (shared["hits"], shared["misses"])


def test_distance_matrix_cache_shared_by_threads():
    # 36 ring sizes against the 32-entry structural cache: every thread's
    # put can evict the matrix another thread is about to look up.
    sizes = list(range(4, 40))
    expected = {n: networks.ring(n).distance_matrix().copy() for n in sizes}

    def build_all(index):
        for n in sizes[index:] + sizes[:index]:
            assert np.array_equal(
                networks.ring(n).distance_matrix(), expected[n]
            )

    _run_on_threads(build_all)
