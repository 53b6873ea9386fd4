"""``repro serve`` -- the mapping pipeline as a long-lived HTTP service.

A thread-per-connection stdlib HTTP server (no new dependencies) exposing
the staged pipeline under heavy concurrent traffic:

* ``POST /v1/map``   -- map one instance (see :mod:`repro.serve.protocol`
  for the body).  Repeat queries are answered by content fingerprint
  from the response bytes the server holds (its ``rendered`` LRU, the one
  in-memory copy of each hot entry) or from the shared
  :class:`~repro.pipeline.ArtifactCache`'s disk tier; a
  thundering herd of identical cold requests computes **once** through
  single-flight; a distinct cold request runs one supervised task from
  its own handler thread, at most ``--workers`` of them at once.
* ``GET /v1/health`` -- liveness, version, uptime (``"draining"`` while a
  graceful shutdown drains in-flight work).
* ``GET /v1/stats``  -- request counters, cache hit/miss/eviction and
  single-flight counters, the supervised-run count (the ``batcher``
  member, named for the stats document's readers), the uniform ``lru`` group
  (``aliases``, ``rendered``, ``dist_matrix``, ``larcs_programs``), the
  server's resident memory (``process``) and the process perf counters.

Every LRU here is a :class:`~repro.util.lru.BoundedLRU` and every counter
bag a :class:`~repro.util.perf.PerfRegistry`; the only synchronisation
this module owns is the semaphore that bounds cold computations.

Graceful shutdown: SIGTERM (or SIGINT) stops the accept loop and lets
every in-flight handler finish and respond.  Keep-alive connections are
asked to close after their current response and idle ones are bounded by
the handler's socket timeout, so the drain always terminates.
"""

from __future__ import annotations

import ctypes
import io
import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import __version__
from repro.arch.topology import DIST_MATRIX_CACHE
from repro.larcs.compiler import PROGRAM_CACHE
from repro.pipeline.cache import ArtifactCache, with_memory_tier
from repro.pipeline.engine import pipeline_key, pipeline_task
from repro.runtime.supervisor import _default_workers, run_supervised
from repro.serve import protocol
from repro.util import perf
from repro.util.lru import BoundedLRU

__all__ = ["MappingServer", "serve"]

_M_ARENA_MAX = -8   # glibc <malloc.h>: mallopt's arena-count parameter
_STATUS = "/proc/self/status"


def _one_malloc_arena() -> None:
    """Cap glibc at one malloc arena (see :func:`serve`).  Does nothing
    off glibc, or when the operator set ``MALLOC_ARENA_MAX`` or a
    ``glibc.malloc.arena_max`` tunable: their setting wins."""
    if (os.name != "posix" or "MALLOC_ARENA_MAX" in os.environ
            or "arena_max" in os.environ.get("GLIBC_TUNABLES", "")):
        return
    # dlopen(NULL): the C library the interpreter runs on
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


def _process_memory() -> dict:
    """This process's resident set now and at its peak, in MB; ``None``
    where there is no ``/proc/self/status``."""
    names = {"VmRSS:": "rss_mb", "VmHWM:": "peak_rss_mb"}
    memory = dict.fromkeys(names.values())
    try:
        with open(_STATUS) as fh:
            for line in fh:
                if line[:6] in names:   # "VmRSS:\t   1792 kB"
                    memory[names[line[:6]]] = int(line.split()[1]) / 1024
    except FileNotFoundError:
        pass
    return memory


class MappingServer(ThreadingHTTPServer):
    """The serving socket plus everything the handlers share."""

    allow_reuse_address = True
    daemon_threads = False   # server_close() joins in-flight handlers
    block_on_close = True
    # The stdlib default listen backlog (5) resets simultaneous connects
    # under bursts; a herd of ~1000 clients must all get through.
    request_queue_size = 1024

    def __init__(self, address, *, cache: ArtifactCache | None,
                 executor: str = "thread", workers: int | None = None,
                 deadline: float | None = None, retry=None,
                 quiet: bool = True):
        if workers is not None and workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {workers}")
        super().__init__(address, _Handler)
        # The handed cache's directory and byte budget, without its memory
        # tier: ``rendered`` below holds each hot entry once, as response
        # bytes, and /v1/session checkpoints go to disk only (a handed
        # cache without a directory leaves the server ``rendered`` alone).
        self.cache = None if cache is None else ArtifactCache(
            cache.directory, capacity=0, max_disk_bytes=cache.max_disk_bytes)
        # each cold request's supervision; at most *workers* compute at once
        self.executor, self.deadline, self.retry = executor, deadline, retry
        self.slots = threading.BoundedSemaphore(workers or _default_workers(executor))
        self.runs = perf.PerfRegistry()
        self.quiet = quiet
        self.draining = False
        self.started = time.time()
        self.stats = perf.PerfRegistry()
        # The warm fast paths, both pure memoization over content-addressed
        # values: a request body's digest -> its pipeline key (a repeated
        # body skips recompiling and re-fingerprinting), and a pipeline
        # key -> the serialized ``result`` member (a repeated instance
        # skips re-serializing a large mapping), sized as the handed
        # cache's memory tier, whose place it takes.
        self.aliases = BoundedLRU(4096)
        self.rendered = BoundedLRU(cache.capacity if cache is not None else 0)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def cache_stats(self) -> dict | None:
        """``/v1/stats``'s ``cache`` group: the store's counters, with the
        memory-tier members read from ``rendered``."""
        if self.cache is None:
            return None
        return with_memory_tier(self.cache.stats(), self.rendered.stats())


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"       # keep-alive: load clients reuse sockets
    server_version = f"repro/{__version__}"
    sys_version = ""                    # no Python version leak in Server:
    timeout = 30                        # idle keep-alive connections expire

    server: MappingServer  # narrowed for the attribute accesses below

    def version_string(self) -> str:
        # the default joins server_version and sys_version with a space,
        # leaving a trailing space when sys_version is suppressed
        return self.server_version

    # ------------------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        if not self.server.quiet:
            sys.stderr.write(
                f"{self.address_string()} - {fmt % args}\n"
            )

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_body(status, json.dumps(payload).encode())

    def _send_body(self, status: int, body: bytes) -> None:
        # Header block and body leave in one write.  Flushed on its own,
        # the ~150-byte header block is a small segment, and Nagle then
        # holds the body until the client's delayed ACK arrives (40 ms on
        # every response under ~64 KB).
        wire, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.server.draining or self.close_connection:
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = wire
        self.wfile.write(head + body)
        self.server.stats.count(f"responses_{status // 100}xx")

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self.server.stats.count("requests")
        if self.path == "/v1/health":
            self.server.stats.count("health")
            self._send_json(200, {
                "format": protocol.HEALTH_FORMAT,
                "status": "draining" if self.server.draining else "ok",
                "version": __version__,
                "uptime_s": time.time() - self.server.started,
            })
            return
        if self.path == "/v1/stats":
            self.server.stats.count("stats")
            self._send_json(200, {
                "format": protocol.STATS_FORMAT,
                "version": __version__,
                "uptime_s": time.time() - self.server.started,
                "server": self.server.stats.counters(),
                "aliases": len(self.server.aliases),
                "cache": self.server.cache_stats(),
                # one count under the two names the stats readers know:
                # a cold request is one supervised run, a batch of one
                "batcher": dict.fromkeys(
                    ("batches", "requests"),
                    self.server.runs.counters().get("supervised", 0),
                ),
                "lru": {
                    "aliases": self.server.aliases.stats(),
                    "rendered": self.server.rendered.stats(),
                    "dist_matrix": DIST_MATRIX_CACHE.stats(),
                    "larcs_programs": PROGRAM_CACHE.stats(),
                },
                "process": _process_memory(),
                "perf_counters": perf.counters(),
            })
            return
        self._send_json(404, {
            "format": protocol.MAP_FORMAT,
            "error": {"type": "NotFound",
                      "message": f"no such endpoint {self.path!r}",
                      "exit_code": 2},
        })

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        self.server.stats.count("requests")
        # A request refused before its body is read ends the connection:
        # the unread bytes must not parse as the next request.
        if self.path not in ("/v1/map", "/v1/session"):
            self.close_connection = True
            self._send_json(404, {
                "format": protocol.MAP_FORMAT,
                "error": {"type": "NotFound",
                          "message": f"no such endpoint {self.path!r}",
                          "exit_code": 2},
            })
            return
        if self.server.draining:
            self._send_json(503, {
                "format": protocol.MAP_FORMAT,
                "error": {"type": "Draining",
                          "message": "server is draining for shutdown",
                          "exit_code": 4},
            })
            return
        kind = "map" if self.path == "/v1/map" else "session"
        self.server.stats.count(f"{kind}_requests")
        start = time.perf_counter()
        raw = None
        try:
            with perf.span(f"serve.{kind}"):
                text = self.headers.get("Content-Length") or "0"
                try:
                    length = int(text)
                except ValueError:
                    length = -1
                if length < 0:
                    raise protocol.ProtocolError(
                        f"Content-Length must be a non-negative integer, "
                        f"got {text!r}")
                if length > protocol.MAX_BODY_BYTES:
                    raise protocol.ProtocolError(
                        f"request body of {length} bytes exceeds the "
                        f"{protocol.MAX_BODY_BYTES}-byte limit",
                        status=413, kind="PayloadTooLarge",
                    )
                raw = self.rfile.read(length)
                if kind == "map":
                    payload = self._serve_map(raw, start)
                else:
                    payload = self._serve_session(raw, start)
        except BaseException as exc:  # every failure becomes a typed body
            if isinstance(exc, (SystemExit, KeyboardInterrupt)):
                raise
            status, body = protocol.error_response(exc)
            self.server.stats.count(f"{kind}_errors")
            self.close_connection |= raw is None
            self._send_json(status, body)
            return
        self._send_body(200, payload)

    def _serve_session(self, raw: bytes, start: float) -> bytes:
        """One whole mapping session per request: parse the instance and
        event stream, drive the session in-process (checkpointing to the
        shared cache's disk tier), and return its report.  Deliberately
        synchronous and un-batched -- a session is one long computation,
        not a cacheable pure lookup.  A cacheless server's session does
        not checkpoint."""
        from repro.online import MappingSession

        request = protocol.parse_session_request(raw)
        session = MappingSession(
            request.tg, request.topology, request.config,
            cache=self.server.cache,
        )
        report = session.run(request.scenario.events, resume="auto")
        return protocol.session_response(
            request.scenario,
            report,
            include_trace=request.include_trace,
            elapsed_s=time.perf_counter() - start,
        )

    def _serve_map(self, raw: bytes, start: float) -> bytes:
        cache = self.server.cache

        # Warm fast path: a body seen before resolves straight to its
        # pipeline key -- no recompile, no re-fingerprint.  Aliases are
        # only written after a body parsed successfully, so the fast path
        # never skips validation of anything new.  The body is decoded
        # here once; the parser takes it from there.
        rkey = None
        alias = None
        body = raw
        if cache is not None:
            try:
                body = json.loads(raw)
            except ValueError:
                pass  # parse_map_request says what is wrong with the bytes
            if isinstance(body, dict):
                rkey = protocol.request_key(body)
                alias = self.server.aliases.get(rkey)

        if alias is not None and alias[2]:  # (key, fingerprints, use_cache, deadline)
            key, fingerprints, use_cache, _ = alias
            self.server.stats.count("alias_hits")
            request = None  # parsed only if the cache has to compute
        else:
            request = protocol.parse_map_request(body)
            key, fingerprints = pipeline_key(
                request.tg, request.topology, request.config, request.faults
            )
            use_cache = cache is not None and request.use_cache
            if rkey is not None:
                self.server.aliases.put(
                    rkey,
                    (key, fingerprints, request.use_cache, request.deadline_s),
                )

        def compute():
            parsed = (request if request is not None
                      else protocol.parse_map_request(body))
            server = self.server
            with server.slots:
                server.runs.count("supervised")
                return run_supervised(
                    pipeline_task,
                    [(parsed.tg, parsed.topology, parsed.config, parsed.faults)],
                    keys=[key], deadline=parsed.deadline_s or server.deadline,
                    executor=server.executor, retry=server.retry, strict=True,
                )[0].value

        # Rendering a large mapping dominates warm latency; the serialized
        # result member is content-addressed by the same pipeline key, so
        # repeats reuse the bytes instead of re-serializing.  They are the
        # server's memory tier: a held response stamps the entry's file
        # as used, and anything else goes to the disk store or computes.
        rendered = self.server.rendered.get(key) if use_cache else None
        if rendered is not None:
            cache.touch(key)
            tier = "memory"
        elif use_cache:
            result, tier = cache.get_or_compute(key, compute)
        else:
            result, tier = compute(), "computed"
        if rendered is None:
            rendered = protocol.render_result(result, fingerprints=fingerprints)
            if use_cache:
                self.server.rendered.put(key, rendered)
        return protocol.map_response(
            rendered,
            key=key,
            tier=tier,
            elapsed_s=time.perf_counter() - start,
        )


def serve(
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    workers: int | None = None,
    executor: str = "thread",
    deadline: float | None = None,
    retry=None,
    cache: ArtifactCache | None = None,
    quiet: bool = True,
    ready_line: bool = True,
) -> int:
    """Run the mapping service until SIGTERM/SIGINT; returns the exit code.

    *cache* is the shared :class:`~repro.pipeline.ArtifactCache`; ``None``
    means a cacheless server, which writes nothing (the CLI resolves
    ``REPRO_CACHE``/``REPRO_CACHE_DIR``/``REPRO_CACHE_MAX_MB`` before
    calling).  ``port=0`` binds
    an ephemeral port -- the ready line printed to stdout names the real
    one, which is how the load generator and the tests find it.

    First the process is capped at one glibc malloc arena.  Each handler
    and attempt thread would otherwise get an arena of its own, although
    the interpreter lock lets one of them run Python at a time.  Those
    arenas keep their freed chunks, so the resident set grows with the
    number of threads.  Process-executor workers are forked from here and
    inherit the cap.  Off glibc, or when ``MALLOC_ARENA_MAX`` or a
    ``glibc.malloc.arena_max`` tunable is set, nothing changes.
    """
    _one_malloc_arena()
    server = MappingServer((host, port), cache=cache, executor=executor,
                           workers=workers, deadline=deadline, retry=retry,
                           quiet=quiet)

    def _begin_drain(signum, frame):
        server.draining = True
        # shutdown() blocks until the accept loop exits; never call it
        # from the signal frame of the thread running serve_forever.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _begin_drain)
    try:
        if ready_line:
            where = cache.directory if cache is not None else "off"
            print(
                f"repro serve listening on http://{host}:{server.port} "
                f"(version {__version__}, executor {executor}, cache {where})",
                flush=True,
            )
        server.serve_forever(poll_interval=0.05)
        # Drain: joins every in-flight handler thread, so each pending
        # request gets its response before the process exits.
        server.server_close()
        if ready_line:
            print("repro serve drained, shutting down", flush=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0
