"""``repro serve``'s own memory: one malloc arena, one in-memory copy of
each hot entry, and its resident set in ``/v1/stats``.

Each thread that allocates would otherwise get a glibc arena of its own,
and an arena keeps the chunks its thread freed; the interpreter lock lets
one thread run Python at a time, so one arena serves them all.  glibc's
own ``MALLOC_ARENA_MAX`` (or ``glibc.malloc.arena_max`` in
``GLIBC_TUNABLES``) wins when the operator set it.

The server's ``rendered`` LRU of response bytes is its only memory tier:
it reads and writes through a disk-only store (``capacity=0``) built from
the cache it is handed, so neither hot map entries nor session
checkpoints keep a pickled copy in memory beside the bytes.
"""

import os
import platform
import subprocess
import sys
import threading
import types
from contextlib import contextmanager

import pytest

from repro.pipeline import ArtifactCache
from repro.serve import server
from repro.util.lru import BoundedLRU
from tests.serve_client import request_once

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="malloc arenas are glibc's")

# Eight threads allocate and free 64 KB blocks (below glibc's mmap
# threshold, so they come from an arena) at the same time, then
# malloc_info writes every arena's heap to the file named by argv[2].
_CHURN = """
import ctypes, sys, threading
from repro.serve import server

if sys.argv[1] == "cap":
    server._one_malloc_arena()
start = threading.Barrier(8)

def churn():
    start.wait()
    for _ in range(200):
        blocks = [bytes(65536) for _ in range(8)]
        del blocks

threads = [threading.Thread(target=churn) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
libc = ctypes.CDLL(None)
libc.fopen.argtypes, libc.fopen.restype = (ctypes.c_char_p, ctypes.c_char_p), ctypes.c_void_p
libc.malloc_info.argtypes, libc.malloc_info.restype = (ctypes.c_int, ctypes.c_void_p), ctypes.c_int
libc.fclose.argtypes, libc.fclose.restype = (ctypes.c_void_p,), ctypes.c_int
out = libc.fopen(sys.argv[2].encode(), b"w")
assert out and libc.malloc_info(0, out) == 0
libc.fclose(out)
"""


def _heaps(tmp_path, mode: str) -> int:
    env = {k: v for k, v in os.environ.items()
           if k not in ("MALLOC_ARENA_MAX", "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = SRC
    dump = tmp_path / f"malloc-info-{mode}.xml"
    subprocess.run([sys.executable, "-c", _CHURN, mode, str(dump)],
                   env=env, check=True, timeout=120)
    return dump.read_text().count("<heap nr=")


@glibc_only
def test_threads_share_one_arena_under_the_cap(tmp_path):
    assert _heaps(tmp_path, "cap") == 1
    assert _heaps(tmp_path, "control") > 1


def _fake_libc(monkeypatch, **functions):
    """Stand a namespace of *functions* in for the process's C library."""
    monkeypatch.setattr(server.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(**functions))


def _recording_mallopt(monkeypatch) -> list:
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    _fake_libc(monkeypatch, mallopt=mallopt)
    return calls


def test_the_cap_is_one_arena(monkeypatch):
    monkeypatch.delenv("MALLOC_ARENA_MAX", raising=False)
    monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
    calls = _recording_mallopt(monkeypatch)
    server._one_malloc_arena()
    assert calls == [(-8, 1)]  # M_ARENA_MAX


@pytest.mark.parametrize("name, value", [
    ("MALLOC_ARENA_MAX", "4"),
    ("GLIBC_TUNABLES", "glibc.malloc.arena_max=2"),
    ("GLIBC_TUNABLES", "glibc.malloc.tcache_count=0:glibc.malloc.arena_max=3"),
])
def test_the_operators_setting_wins(monkeypatch, name, value):
    monkeypatch.delenv("MALLOC_ARENA_MAX", raising=False)
    monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
    monkeypatch.setenv(name, value)
    calls = _recording_mallopt(monkeypatch)
    server._one_malloc_arena()
    assert calls == []


def test_a_libc_without_mallopt_is_left_alone(monkeypatch):
    monkeypatch.delenv("MALLOC_ARENA_MAX", raising=False)
    monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
    _fake_libc(monkeypatch)
    server._one_malloc_arena()


def test_serve_caps_before_it_builds_the_server(monkeypatch):
    order = []

    class Built(Exception):
        pass

    def build(*args, **kwargs):
        order.append("server")
        raise Built

    monkeypatch.setattr(server, "_one_malloc_arena",
                        lambda: order.append("cap"))
    monkeypatch.setattr(server, "MappingServer", build)
    with pytest.raises(Built):
        server.serve(port=0, ready_line=False)
    assert order == ["cap", "server"]


def test_process_memory_is_null_without_a_status_file(monkeypatch, tmp_path):
    monkeypatch.setattr(server, "_STATUS", str(tmp_path / "missing"))
    assert server._process_memory() == {"rss_mb": None, "peak_rss_mb": None}


# ----------------------------------------------------------------------
# one in-memory copy of each hot entry
# ----------------------------------------------------------------------

def _body(**config) -> dict:
    return {"program": "dnc", "bind": {"m": 3}, "topology": "mesh:2x2",
            "config": {"sim": {"hop_latency": 2.0}, **config}}


@contextmanager
def _serving(cache):
    """An in-process server over *cache* on an ephemeral port."""
    srv = server.MappingServer(("127.0.0.1", 0), cache=cache)
    loop = threading.Thread(target=srv.serve_forever,
                            kwargs={"poll_interval": 0.05}, daemon=True)
    loop.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        loop.join(10)


def _post(srv, path, body) -> dict:
    status, doc = request_once("127.0.0.1", srv.port, "POST", path, body,
                               timeout=120)
    assert status == 200, doc
    return doc


def _tier(srv, body) -> str:
    return _post(srv, "/v1/map", body)["serving"]["cache"]["tier"]


def _stats(srv) -> dict:
    status, doc = request_once("127.0.0.1", srv.port, "GET", "/v1/stats")
    assert status == 200
    return doc


def test_a_zero_capacity_lru_holds_nothing():
    lru = BoundedLRU(0)
    lru.put("k", 1)
    assert lru.get("k") is None
    assert len(lru) == 0
    assert lru.stats() == {"entries": 0, "capacity": 0, "hits": 0,
                           "misses": 1, "evictions": 0}
    with pytest.raises(ValueError, match="capacity must be >= 0, got -1"):
        BoundedLRU(-1)


def test_a_zero_capacity_store_is_disk_only(tmp_path):
    cache = ArtifactCache(str(tmp_path), capacity=0)
    cache.put("k", {"v": 1})
    for _ in range(2):  # a disk hit promotes nothing
        assert cache.get("k") == ({"v": 1}, "disk")
    assert len(cache) == 0
    stats = cache.stats()
    assert (stats["memory_entries"], stats["memory_capacity"]) == (0, 0)
    assert (stats["hits_memory"], stats["hits_disk"]) == (0, 2)
    assert stats["evictions_memory"] == 0


def test_the_server_store_is_the_handed_cache_without_its_memory_tier(tmp_path):
    handed = ArtifactCache(str(tmp_path), capacity=7, max_disk_bytes=1 << 20)
    srv = server.MappingServer(("127.0.0.1", 0), cache=handed)
    try:
        assert srv.cache.directory == handed.directory
        assert srv.cache.max_disk_bytes == handed.max_disk_bytes
        assert srv.cache.capacity == 0
        assert srv.rendered.capacity == 7
    finally:
        srv.server_close()


def test_distinct_maps_are_held_once(tmp_path):
    """After N distinct maps the store holds no envelope in memory, and
    ``/v1/stats`` reports the ``rendered`` LRU as the memory tier."""
    n = 5
    with _serving(ArtifactCache(str(tmp_path))) as srv:
        bodies = [_body(sim={"hop_latency": 2.0 + i}) for i in range(n)]
        assert [_tier(srv, body) for body in bodies] == ["computed"] * n
        assert [_tier(srv, body) for body in bodies] == ["memory"] * n
        doc = _stats(srv)
        assert len(srv.cache) == 0
        assert srv.cache.stats()["memory_entries"] == 0
    cache, held = doc["cache"], doc["lru"]["rendered"]
    assert cache["memory_entries"] == held["entries"] == n
    assert cache["memory_capacity"] == held["capacity"] == 128
    assert cache["hits_memory"] == held["hits"] == n
    assert (cache["hits_disk"], cache["misses"], cache["puts"]) == (0, n, n)
    assert cache["hit_rate"] == pytest.approx(0.5)
    assert cache["disk"]["entries"] == n


def test_an_uncached_request_is_not_a_hit(tmp_path):
    """``config.cache: false`` computes, and neither counts nor stamps the
    entry the server holds for the same key."""
    with _serving(ArtifactCache(str(tmp_path))) as srv:
        key = _post(srv, "/v1/map", _body())["serving"]["cache"]["key"]
        path = os.path.join(srv.cache.directory, f"{key}.pkl")
        stamp = os.stat(path).st_mtime_ns
        doc = _post(srv, "/v1/map", _body(cache=False))
        assert (doc["serving"]["cache"]["key"], doc["serving"]["cache"]["tier"]) == (
            key, "computed")
        assert os.stat(path).st_mtime_ns == stamp
        cache = _stats(srv)["cache"]
    assert (cache["hits_memory"], cache["hits_disk"], cache["misses"]) == (0, 0, 1)


def test_a_long_session_does_not_push_a_held_map_to_disk(tmp_path):
    """A 200-event session writes its checkpoints to disk only, so the map
    response the server holds is still a memory hit afterwards."""
    body = _body()
    with _serving(ArtifactCache(str(tmp_path))) as srv:
        assert [_tier(srv, body) for _ in range(2)] == ["computed", "memory"]
        puts = _stats(srv)["cache"]["puts"]
        session = _post(srv, "/v1/session", {
            "program": "jacobi", "bind": {"rows": 4, "cols": 4},
            "topology": "mesh:2x2", "generate": {"seed": 1, "events": 200},
        })
        assert session["report"]["events"] == 200
        before = _stats(srv)["cache"]
        assert before["puts"] - puts > 200  # every checkpoint went through
        assert _tier(srv, body) == "memory"
        after = _stats(srv)["cache"]
    assert after["hits_disk"] == before["hits_disk"]
    assert after["hits_memory"] == before["hits_memory"] + 1
