"""End-to-end tests against a real ``repro serve`` subprocess.

Boots ``python -m repro serve --port 0`` exactly as a user would, talks
to it over real sockets, and asserts the serving contract: versioned
health, cold-compute vs warm-hit with byte-identical ``result`` members,
structured 400/404/504 errors, thundering-herd deduplication observable
in ``/v1/stats``, and a graceful SIGTERM drain that answers every
in-flight request before exiting 0.
"""

import http.client
import json
import os
import signal
import socket
import statistics
import threading
import time

import pytest

from repro import __version__
from repro.pipeline.cache import ArtifactCache
from tests.serve_client import (
    burst,
    drain_server,
    request_once,
    spawn_server,
)

BODY = {
    "program": "dnc",
    "bind": {"m": 3},
    "topology": "mesh:2x2",
}
# distinct cost-model values give distinct pipeline fingerprints
_uniq = iter(range(10_000))


def unique_body(**overrides) -> dict:
    body = dict(BODY)
    body["config"] = {"sim": {"hop_latency": 2.0 + next(_uniq) * 0.001}}
    body.update(overrides)
    return body


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("serve-cache"))
    env = {**os.environ, "REPRO_CACHE_DIR": cache_dir}
    env.pop("REPRO_CACHE", None)
    env.pop("REPRO_CHAOS", None)
    process, host, port = spawn_server(env=env)
    yield host, port
    drain_server(process)


class TestEndpoints:
    def test_health_reports_version(self, server):
        host, port = server
        status, doc = request_once(host, port, "GET", "/v1/health")
        assert status == 200
        assert doc["format"] == "oregami-serve-health-v1"
        assert doc["status"] == "ok"
        assert doc["version"] == __version__

    def test_server_header_names_the_version(self, server):
        host, port = server
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Server") == f"repro/{__version__}"
        finally:
            conn.close()

    def test_unknown_route_is_404(self, server):
        host, port = server
        for method, path in [("GET", "/nope"), ("POST", "/v1/nope")]:
            status, doc = request_once(host, port, method, path,
                                       body={} if method == "POST" else None)
            assert status == 404
            assert doc["error"]["type"] == "NotFound"

    def test_stats_shape(self, server):
        host, port = server
        status, doc = request_once(host, port, "GET", "/v1/stats")
        assert status == 200
        assert doc["format"] == "oregami-serve-stats-v1"
        assert {"server", "cache", "batcher", "perf_counters"} <= set(doc)
        assert doc["cache"]["disk"]["directory"]

    def test_stats_show_the_swap_scans_selectivity(self, server):
        host, port = server
        status, _ = request_once(host, port, "POST", "/v1/map", unique_body(
            program="jacobi", bind={"rows": 8, "cols": 8},
            config={"map": {"strategy": "multilevel"}},
        ))
        assert status == 200
        _, doc = request_once(host, port, "GET", "/v1/stats")
        counters = doc["perf_counters"]
        assert counters["mapper.refine.swap_scans"] >= 1
        assert "mapper.refine.swap_viable" in counters
        assert (
            counters["mapper.refine.swap_candidates"]
            >= counters["mapper.refine.swap_applied"]
            >= 0
        )

    def test_stats_keys_are_the_ones_pr13_served(self, tmp_path):
        """Key sets captured from ``/v1/stats`` at the commit before the
        hand-written stores went (one map, then stats, on a fresh server);
        the document only gained the uniform ``lru`` group and the
        server's resident memory (``process``)."""
        cache_keys = {
            "hits_memory", "hits_disk", "misses", "puts", "computed",
            "evictions_memory", "evictions_disk", "singleflight_leaders",
            "singleflight_waits", "crossprocess_waits", "disk_write_errors",
            "memory_entries", "memory_capacity", "hit_rate", "disk",
        }
        assert set(ArtifactCache().stats()) == cache_keys
        env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path)}
        env.pop("REPRO_CACHE", None)
        process, host, port = spawn_server(env=env)
        try:
            status, _ = request_once(host, port, "POST", "/v1/map", BODY)
            assert status == 200
            # a response is counted after its last byte is written, so the
            # map's 2xx can trail the next request by a moment
            deadline = time.monotonic() + 10
            while True:
                _, doc = request_once(host, port, "GET", "/v1/stats")
                if "responses_2xx" in doc["server"] or time.monotonic() > deadline:
                    break
        finally:
            drain_server(process)
        assert set(doc) == {
            "format", "version", "uptime_s", "server", "aliases", "cache",
            "batcher", "perf_counters", "lru", "process",
        }
        assert set(doc["process"]) == {"rss_mb", "peak_rss_mb"}
        assert 0 < doc["process"]["rss_mb"] <= doc["process"]["peak_rss_mb"]
        assert set(doc["server"]) == {
            "requests", "map_requests", "responses_2xx", "stats",
        }
        assert set(doc["cache"]) == cache_keys
        assert set(doc["cache"]["disk"]) == {
            "directory", "max_bytes", "entries", "bytes",
        }
        # one supervised run per cold request: a batch of one
        assert doc["batcher"] == {"batches": 1, "requests": 1}
        assert set(doc["lru"]) == {
            "aliases", "rendered", "dist_matrix", "larcs_programs",
        }
        for group in doc["lru"].values():
            assert set(group) == {
                "entries", "capacity", "hits", "misses", "evictions",
            }
        assert doc["lru"]["rendered"]["capacity"] == 128
        assert not any(
            name.startswith(("pipeline.cache.", "serve.batch"))
            for name in doc["perf_counters"]
        )


class TestMapping:
    def test_cold_then_warm_bit_identical(self, server):
        host, port = server
        body = unique_body()
        s1, cold = request_once(host, port, "POST", "/v1/map", body)
        s2, warm = request_once(host, port, "POST", "/v1/map", body)
        assert (s1, s2) == (200, 200)
        assert cold["serving"]["cache"]["hit"] is False
        assert cold["serving"]["cache"]["tier"] == "computed"
        assert warm["serving"]["cache"]["hit"] is True
        assert warm["serving"]["cache"]["tier"] in ("memory", "disk")
        assert cold["result"] == warm["result"]
        assert cold["serving"]["cache"]["key"] == warm["serving"]["cache"]["key"]
        assert "cache" not in cold["result"]

    def test_no_cache_config_always_computes(self, server):
        host, port = server
        body = unique_body()
        body["config"]["cache"] = False
        for _ in range(2):
            status, doc = request_once(host, port, "POST", "/v1/map", body)
            assert status == 200
            assert doc["serving"]["cache"]["tier"] == "computed"

    def test_malformed_json_is_400(self, server):
        host, port = server
        conn = http.client.HTTPConnection(*server, timeout=30)
        try:
            conn.request("POST", "/v1/map", body=b"{broken",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 400
            assert doc["error"]["type"] == "BadRequest"
            assert doc["error"]["exit_code"] == 2
            assert "JSON" in doc["error"]["message"]
        finally:
            conn.close()

    def test_unknown_program_is_400(self, server):
        host, port = server
        status, doc = request_once(
            host, port, "POST", "/v1/map",
            {"program": "nonesuch", "topology": "ring:4"},
        )
        assert status == 400
        assert "unknown stdlib program" in doc["error"]["message"]

    def test_oversized_machine_is_400_before_it_is_built(self, server):
        host, port = server
        start = time.perf_counter()
        status, doc = request_once(host, port, "POST", "/v1/map",
                                   dict(BODY, topology="hypercube:30"))
        elapsed = time.perf_counter() - start
        assert status == 400
        assert "at most 16384" in doc["error"]["message"]
        # building it never returns; hypercube:18 held a handler for 24 s
        assert elapsed < 1.0

    def test_oversized_binding_is_400_before_it_is_elaborated(self, server):
        host, port = server
        start = time.perf_counter()
        status, doc = request_once(
            host, port, "POST", "/v1/map",
            {"program": "jacobi", "bind": {"rows": 100000, "cols": 100000},
             "topology": "mesh:4x4"},
        )
        elapsed = time.perf_counter() - start
        assert status == 400
        assert doc["error"]["type"] == "BadRequest"
        assert "declares 10000000000 nodes" in doc["error"]["message"]
        # elaborating it runs, outside any deadline, until memory is gone
        assert elapsed < 1.0

    def test_blown_deadline_is_504(self, server):
        host, port = server
        body = unique_body(
            program="jacobi",
            bind={"rows": 16, "cols": 16, "msize": 4},
            topology="mesh:4x4",
        )
        body["deadline_s"] = 0.001
        status, doc = request_once(host, port, "POST", "/v1/map", body,
                                   timeout=60)
        assert status == 504
        assert doc["error"]["exit_code"] == 3

    def test_herd_computes_once(self, server):
        host, port = server
        _, before = request_once(host, port, "GET", "/v1/stats")
        herd_body = unique_body()
        responses = burst(host, port, [herd_body] * 40, concurrency=40,
                          barrier=True, timeout=120)
        assert [status for status, _ in responses] == [200] * 40
        assert all(doc["result"] == responses[0][1]["result"]
                   for _, doc in responses)
        _, after = request_once(host, port, "GET", "/v1/stats")
        computed = after["cache"]["computed"] - before["cache"]["computed"]
        assert computed == 1
        # exactly one "computed" tier response
        tiers = [doc["serving"]["cache"]["tier"] for _, doc in responses]
        assert tiers.count("computed") == 1

    def test_repeat_burst_is_deterministic(self, server):
        host, port = server
        bodies = [unique_body() for _ in range(6)] * 3
        first = burst(host, port, bodies, concurrency=6)
        second = burst(host, port, bodies, concurrency=6)
        assert {status for status, _ in first + second} == {200}
        assert [doc["result"] for _, doc in first] == [
            doc["result"] for _, doc in second
        ]
        assert all(doc["serving"]["cache"]["hit"] for _, doc in second)


def _round_trip(sock, request: bytes) -> tuple[float, bytes, bytes]:
    """Send *request*, read one response: (seconds, header block, body)."""
    start = time.perf_counter()
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        data += sock.recv(65536)
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(next(
        line.split(b":")[1] for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    ))
    while len(body) < length:
        body += sock.recv(65536)
    return time.perf_counter() - start, head, body


class TestRoundTripTime:
    """Small responses must not wait out the client's delayed ACK: the
    header block and the body travel in one write.  A plain socket with no
    options set, as most clients are."""

    def _median_ms(self, server, request: bytes) -> tuple[float, bytes, bytes]:
        with socket.create_connection(server, timeout=30) as sock:
            trips = [_round_trip(sock, request) for _ in range(20)]
        _, head, body = trips[-1]
        return statistics.median(t[0] for t in trips) * 1e3, head, body

    def test_keepalive_health_round_trips(self, server):
        request = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
        median_ms, head, body = self._median_ms(server, request)
        assert median_ms < 20, f"median health round trip {median_ms:.1f} ms"
        # the bytes on the wire are what they always were
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 200 OK"
        assert [line.split(b":")[0] for line in lines[1:]] == [
            b"Server", b"Date", b"Content-Type", b"Content-Length",
        ]
        assert json.loads(body)["format"] == "oregami-serve-health-v1"

    def test_warm_map_round_trips(self, server):
        host, port = server
        payload = unique_body()
        status, reference = request_once(host, port, "POST", "/v1/map",
                                         payload)
        assert status == 200
        raw = json.dumps(payload).encode()
        request = (
            b"POST /v1/map HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(raw)
        ) + raw
        median_ms, head, body = self._median_ms(server, request)
        assert median_ms < 20, f"median warm map round trip {median_ms:.1f} ms"
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        doc = json.loads(body)
        assert doc["serving"]["cache"]["hit"] is True
        assert doc["result"] == reference["result"]


class TestRefusedBodies:
    """A request refused before its body is read gets its typed error at
    once and ends the connection, so the unread bytes never parse as the
    next request."""

    def _refused(self, server, request: bytes) -> tuple[bytes, dict]:
        with socket.create_connection(server, timeout=10) as sock:
            _, head, body = _round_trip(sock, request)
            assert sock.recv(1) == b""  # the server closed the connection
        assert b"\r\nConnection: close" in head
        return head, json.loads(body)

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_bad_content_length_is_a_400(self, server, length):
        head, doc = self._refused(server, (
            b"POST /v1/map HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + length + b"\r\n\r\n"
            + json.dumps(BODY).encode()
        ))
        assert head.startswith(b"HTTP/1.1 400 ")
        assert doc["error"]["type"] == "BadRequest"
        assert doc["error"]["message"] == (
            "Content-Length must be a non-negative integer, "
            f"got {length.decode()!r}"
        )

    def test_oversized_body_is_a_413(self, server):
        head, doc = self._refused(server, (
            b"POST /v1/map HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % (64 * 1024 * 1024)
            + b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
        ))
        assert head.startswith(b"HTTP/1.1 413 ")
        assert doc["error"]["type"] == "PayloadTooLarge"

    def test_unknown_post_route_is_a_404(self, server):
        raw = json.dumps(BODY).encode()
        head, doc = self._refused(server, (
            b"POST /v1/nope HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % len(raw) + raw
        ))
        assert head.startswith(b"HTTP/1.1 404 ")
        assert doc["error"]["type"] == "NotFound"


class TestGracefulDrain:
    def test_sigterm_drains_in_flight_request(self, tmp_path):
        env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path)}
        env.pop("REPRO_CACHE", None)
        process, host, port = spawn_server(env=env)
        slow_body = {
            "program": "jacobi",
            "bind": {"rows": 32, "cols": 32, "msize": 4},
            "topology": "mesh:8x8",
        }
        outcome = {}

        def post():
            outcome["response"] = request_once(
                host, port, "POST", "/v1/map", slow_body, timeout=120
            )

        poster = threading.Thread(target=post)
        poster.start()
        time.sleep(0.5)  # request is in flight (compute takes seconds)
        process.send_signal(signal.SIGTERM)
        poster.join(timeout=120)
        assert not poster.is_alive()
        status, doc = outcome["response"]
        assert status == 200
        assert doc["result"]["mapping"]
        assert process.wait(timeout=60) == 0
        output = process.stdout.read()
        process.stdout.close()
        assert "drained" in output


class TestSession:
    BODY = {
        "program": "dnc",
        "bind": {"m": 3},
        "topology": "mesh:2x2",
        "generate": {"seed": 11, "events": 10},
    }

    def test_cold_session_runs_scenario(self, server):
        host, port = server
        status, doc = request_once(
            host, port, "POST", "/v1/session", self.BODY, timeout=120
        )
        assert status == 200
        assert doc["format"] == "oregami-serve-session-v1"
        assert doc["scenario"]["events"] == 10
        assert doc["report"]["events"] == 10
        assert doc["report"]["final_comm_cost"] > 0

    def test_repeat_resumes_from_journal_bit_identically(self, server):
        host, port = server
        body = dict(self.BODY, generate={"seed": 12, "events": 10})
        s1, cold = request_once(host, port, "POST", "/v1/session", body,
                                timeout=120)
        s2, warm = request_once(host, port, "POST", "/v1/session", body,
                                timeout=120)
        assert (s1, s2) == (200, 200)
        assert cold["report"]["resumed_at"] is None
        assert warm["report"]["resumed_at"] == 10
        assert (warm["report"]["trace_fingerprint"]
                == cold["report"]["trace_fingerprint"])
        assert (warm["report"]["final_comm_cost"]
                == cold["report"]["final_comm_cost"])

    def test_bad_session_request_is_400(self, server):
        host, port = server
        status, doc = request_once(
            host, port, "POST", "/v1/session",
            dict(self.BODY, session={"executor": "process"}),
        )
        assert status == 400
        assert "'serial' or 'thread'" in doc["error"]["message"]

    @pytest.mark.parametrize("session", [
        {"strategies": ["nope"]}, {"load_bound": "x"}, {"strategy": 7},
        {"checkpoint_every": 1.5}, {"retries": "a"},
    ], ids=str)
    def test_mistyped_session_is_400_not_500(self, server, session):
        host, port = server
        status, doc = request_once(host, port, "POST", "/v1/session",
                                   dict(self.BODY, session=session))
        assert status == 400
        assert next(iter(session)) in doc["error"]["message"]

    def test_no_cache_server_session_writes_nothing(self, tmp_path):
        """A ``--no-cache`` server's session neither checkpoints nor caches
        a remap, though the process default would be on."""
        env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path)}
        env.pop("REPRO_CACHE", None)
        env.pop("REPRO_CHAOS", None)
        process, host, port = spawn_server(["--no-cache"], env=env)
        body = {
            "program": "jacobi",
            "bind": {"rows": 4, "cols": 4},
            "topology": "hypercube:3",
            "generate": {"seed": 3, "events": 30},
        }
        try:
            status, doc = request_once(host, port, "POST", "/v1/session", body,
                                       timeout=120)
        finally:
            drain_server(process)
        assert status == 200
        assert doc["report"]["events"] == 30
        assert doc["report"]["resumed_at"] is None
        assert "checkpoints" not in doc["report"]["counters"]
        assert os.listdir(tmp_path) == []

    def test_session_stats_counted(self, server):
        host, port = server
        _, stats = request_once(host, port, "GET", "/v1/stats")
        assert stats["server"]["session_requests"] >= 2
        assert stats["server"]["session_errors"] >= 1
