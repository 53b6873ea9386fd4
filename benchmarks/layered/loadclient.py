"""A lean HTTP load client and the server process it drives.

The client handles raw bytes only: requests are built once, a response is
read into memory and its ``result`` member is compared to the instance's
cold response by one byte comparison after the clock has stopped.  It
parses no JSON inside the timed interval, opens at most one connection per
thread, and reports its own CPU share, so the numbers measure the server.
(``repro.serve.loadgen.fire`` re-parses, re-dumps and hashes every
response, which costs several times the round trip it times.)
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from benchmarks.layered.harness import child_environment, cpu_seconds

_RESULT_OPEN = b', "result": '
_SERVING_OPEN = b', "serving": '
_READY = re.compile(r"http://127\.0\.0\.1:(\d+) ")


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------

def _die_with_parent():
    """Ask the kernel to SIGTERM the server if the harness is killed."""
    try:
        import ctypes

        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGTERM)
    except (OSError, AttributeError):
        pass  # not Linux: the finally blocks still reap on normal exits


class Server:
    """``python -m repro serve --port 0`` over a fresh cache directory."""

    def __init__(self, cache_dir: str):
        if os.listdir(cache_dir):
            raise RuntimeError(f"server cache directory {cache_dir} is not empty")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=child_environment(cache_dir), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, preexec_fn=_die_with_parent,
        )
        try:
            line = self.proc.stdout.readline()
            match = _READY.search(line)
            if match is None:
                raise RuntimeError(f"server did not come up: {line!r}")
            self.port = int(match.group(1))
        except BaseException:
            self.close()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def close(self) -> None:
        """SIGTERM, wait for the drain, SIGKILL if it does not end."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# one keep-alive connection
# ----------------------------------------------------------------------

def build_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode() + body


class Connection:
    """A plain blocking socket; no client-side socket options, so it sees
    the latency an ordinary HTTP caller would."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)

    def exchange(self, request: bytes) -> tuple[int, bytes, float, float]:
        """Send one request; returns ``(status, body, sent_at,
        first_byte_at)`` (both ``perf_counter`` readings)."""
        self.sock.sendall(request)
        sent_at = time.perf_counter()
        buf = self.sock.recv(65536)
        first_byte_at = time.perf_counter()
        while True:
            if not buf:
                raise ConnectionError("server closed the connection")
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            buf += self.sock.recv(65536)
        head = buf[:end]
        status = int(head[9:12])
        mark = head.lower().find(b"content-length:")
        length = int(head[mark + 15:].split(b"\r\n", 1)[0])
        body = bytearray(buf[end + 4:])
        while len(body) < length:
            chunk = self.sock.recv(min(1 << 20, length - len(body)))
            if not chunk:
                raise ConnectionError("server closed mid-body")
            body += chunk
        return status, bytes(body), sent_at, first_byte_at

    def get_json(self, path: str) -> dict:
        status, body, _, _ = self.exchange(build_request("GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


def split_response(body: bytes) -> tuple[bytes, dict]:
    """``(result bytes, serving envelope)`` of a ``/v1/map`` success body.

    The envelope is the short tail of the body, so this costs one slice
    and one small ``json.loads`` however large the mapping is.
    """
    start = body.find(_RESULT_OPEN, 0, 200)
    end = body.rfind(_SERVING_OPEN)
    if start < 0 or end < 0:
        raise ValueError("not a /v1/map success body")
    result = body[start + len(_RESULT_OPEN):end]
    serving = json.loads(body[end + len(_SERVING_OPEN):-1])
    return result, serving


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """One request as the client saw it."""

    item: int                 # index into the request list
    start: float
    sent: float
    first_byte: float
    end: float
    status: int
    size: int
    tier: str = ""
    handler_ms: float = 0.0
    failure: str = ""


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    kept_bodies: list[tuple[int, bytes]] = field(default_factory=list)
    wall_s: float = 0.0
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0


def run_closed_loop(server: Server, requests: list[bytes], streams: list[list[int]],
                    expected: dict[int, bytes], *, seconds: float,
                    keep_unexpected: int = 200) -> LoadResult:
    """Drive one connection per stream, each sending its next request only
    after the previous response is complete, until *seconds* have passed.

    *streams* holds one index sequence per connection; a stream that runs
    out before the deadline starts over.  A response to item ``i`` must be
    a 200 whose ``result`` bytes equal ``expected[i]``; items without an
    expectation (never-seen instances) have their bodies kept, up to
    *keep_unexpected*, for the caller to check afterwards.
    """
    out = LoadResult()
    lock = threading.Lock()
    connections = [Connection(server.port) for _ in streams]
    start_gate = threading.Barrier(len(streams) + 1)
    deadline = [0.0]

    def worker(conn: Connection, stream: list[int]):
        mine: list[Sample] = []
        kept: list[tuple[int, bytes]] = []
        start_gate.wait()
        pos = 0
        while True:
            begin = time.perf_counter()
            if begin >= deadline[0]:
                break
            item = stream[pos % len(stream)]
            pos += 1
            try:
                status, body, sent, first = conn.exchange(requests[item])
            except (OSError, ValueError) as exc:
                now = time.perf_counter()
                mine.append(Sample(item, begin, now, now, now, 0, 0,
                                   failure=f"{type(exc).__name__}: {exc}"))
                break
            end = time.perf_counter()
            # the clock has stopped: everything below is checking
            sample = Sample(item, begin, sent, first, end, status, len(body))
            if status != 200:
                sample.failure = f"status {status}"
            else:
                try:
                    result, serving = split_response(body)
                except ValueError as exc:
                    sample.failure = str(exc)
                else:
                    sample.tier = serving["cache"]["tier"]
                    sample.handler_ms = serving["elapsed_ms"]
                    want = expected.get(item)
                    if want is None:
                        if len(kept) < keep_unexpected:
                            kept.append((item, body))
                    elif result != want:
                        sample.failure = "result bytes differ from the cold response"
            mine.append(sample)
        with lock:
            out.samples.extend(mine)
            out.kept_bodies.extend(kept)

    threads = [threading.Thread(target=worker, args=(c, s), daemon=True)
               for c, s in zip(connections, streams)]
    try:
        for t in threads:
            t.start()
        cpu0, srv0 = time.process_time(), server.cpu_seconds()
        wall0 = time.perf_counter()
        deadline[0] = wall0 + seconds
        start_gate.wait()
        for t in threads:
            t.join(timeout=seconds + 120)
        out.wall_s = time.perf_counter() - wall0
        out.client_cpu_s = time.process_time() - cpu0
        out.server_cpu_s = server.cpu_seconds() - srv0
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a load thread did not finish")
    finally:
        for conn in connections:
            conn.close()
    out.samples.sort(key=lambda s: s.start)
    return out
