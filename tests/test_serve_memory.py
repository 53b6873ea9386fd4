"""``repro serve``'s own memory: one malloc arena, and its resident set
in ``/v1/stats``.

Each thread that allocates would otherwise get a glibc arena of its own,
and an arena keeps the chunks its thread freed; the interpreter lock lets
one thread run Python at a time, so one arena serves them all.  glibc's
own ``MALLOC_ARENA_MAX`` (or ``glibc.malloc.arena_max`` in
``GLIBC_TUNABLES``) wins when the operator set it.
"""

import os
import platform
import subprocess
import sys
import types

import pytest

from repro.serve import server

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
