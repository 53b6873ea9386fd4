"""Cold ``/v1/map`` compute: each request runs its own supervised task.

An in-process :class:`~repro.serve.server.MappingServer` on an ephemeral
port, with ``repro.pipeline.engine.run_pipeline`` (what
``pipeline_task`` calls) patched so a test decides which instance blocks,
fails or is slow.  Requests are told apart by their machine.
"""

import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro import io
from repro.cli import parse_topology
from repro.larcs import stdlib
from repro.pipeline import ArtifactCache, RunConfig, engine
from repro.serve.server import MappingServer
from tests.serve_client import burst, request_once

_real_run_pipeline = engine.run_pipeline


def _body(topology: str, **extra) -> dict:
    return {"program": "dnc", "bind": {"m": 3}, "topology": topology, **extra}


@contextmanager
def _serving(tmp_path, executor="thread", **supervision):
    server = MappingServer(("127.0.0.1", 0), cache=ArtifactCache(str(tmp_path)),
                           executor=executor, **supervision)
    loop = threading.Thread(target=server.serve_forever,
                            kwargs={"poll_interval": 0.05}, daemon=True)
    loop.start()
    try:
        yield "127.0.0.1", server.port
    finally:
        server.shutdown()
        server.server_close()
        loop.join(10)


@pytest.fixture
def release():
    """Set on teardown, so no patched worker outlives its test."""
    event = threading.Event()
    yield event
    event.set()


def _post_in_background(host, port, body):
    outcome = {}

    def post():
        outcome["response"] = request_once(host, port, "POST", "/v1/map", body,
                                           timeout=120)

    thread = threading.Thread(target=post, daemon=True)
    thread.start()
    return thread, outcome


def test_a_cold_request_does_not_wait_behind_another(tmp_path, monkeypatch, release):
    """B is answered while A is still computing: no head-of-line wait."""
    started = threading.Event()

    def run_pipeline(tg, topology, config, faults=None):
        if topology.name == "mesh2x2":
            started.set()
            release.wait(60)
        return _real_run_pipeline(tg, topology, config, faults=faults)

    monkeypatch.setattr(engine, "run_pipeline", run_pipeline)
    with _serving(tmp_path) as (host, port):
        a, a_out = _post_in_background(host, port, _body("mesh:2x2"))
        assert started.wait(30)
        b, b_out = _post_in_background(host, port, _body("ring:4"))
        b.join(30)
        assert not b.is_alive(), "B waited for A"
        assert a.is_alive()
        release.set()
        a.join(60)
        assert not a.is_alive()
    for outcome, machine in ((a_out, "mesh2x2"), (b_out, "ring4")):
        status, doc = outcome["response"]
        assert status == 200
        assert doc["serving"]["cache"]["tier"] == "computed"
        assert doc["result"]["mapping"]["topology"]["name"] == machine


@pytest.mark.parametrize("supervision", [{"workers": 1}, {"executor": "serial"}],
                         ids=["workers-1", "serial-default"])
def test_one_worker_computes_one_request_at_a_time(tmp_path, monkeypatch,
                                                   supervision):
    lock = threading.Lock()
    active, peak = [0], [0]

    def run_pipeline(tg, topology, config, faults=None):
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        try:
            time.sleep(0.05)
            return _real_run_pipeline(tg, topology, config, faults=faults)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(engine, "run_pipeline", run_pipeline)
    bodies = [_body(spec) for spec in ("mesh:2x2", "ring:4", "hypercube:2",
                                       "ring:8")]
    with _serving(tmp_path, **supervision) as (host, port):
        responses = burst(host, port, bodies, concurrency=4, barrier=True,
                          timeout=120)
    assert [status for status, _ in responses] == [200] * 4
    assert peak[0] == 1


def test_a_failing_request_answers_its_typed_error_beside_a_good_one(
    tmp_path, monkeypatch, release
):
    failing = threading.Event()

    def run_pipeline(tg, topology, config, faults=None):
        if topology.name == "mesh2x2":
            failing.set()
            release.wait(60)  # fail only once the good request is in flight
            raise RuntimeError("poisoned instance")
        release.set()
        return _real_run_pipeline(tg, topology, config, faults=faults)

    monkeypatch.setattr(engine, "run_pipeline", run_pipeline)
    with _serving(tmp_path) as (host, port):
        bad, bad_out = _post_in_background(host, port, _body("mesh:2x2"))
        assert failing.wait(30)
        good, good_out = _post_in_background(host, port, _body("ring:4"))
        for thread in (bad, good):
            thread.join(60)
            assert not thread.is_alive()
    status, doc = bad_out["response"]
    assert status == 500
    assert doc["error"]["type"] == "RuntimeError"
    assert doc["error"]["message"] == "poisoned instance"
    status, doc = good_out["response"]
    assert status == 200
    assert doc["result"]["mapping"]


def test_a_blown_request_deadline_answers_504(tmp_path, monkeypatch, release):
    def run_pipeline(tg, topology, config, faults=None):
        release.wait(60)  # abandoned by the thread executor at the deadline
        return _real_run_pipeline(tg, topology, config, faults=faults)

    monkeypatch.setattr(engine, "run_pipeline", run_pipeline)
    with _serving(tmp_path) as (host, port):
        status, doc = request_once(host, port, "POST", "/v1/map",
                                   _body("mesh:2x2", deadline_s=0.05),
                                   timeout=60)
    assert status == 504
    assert doc["error"]["type"] == "TaskTimeout"
    assert doc["error"]["exit_code"] == 3


def test_a_cold_request_answers_what_a_direct_run_computes(tmp_path):
    """One request's supervised round trip returns the pipeline's own mapping."""
    with _serving(tmp_path) as (host, port):
        status, doc = request_once(host, port, "POST", "/v1/map",
                                   _body("mesh:2x2"), timeout=60)
    assert status == 200
    assert doc["serving"]["cache"]["tier"] == "computed"
    direct = _real_run_pipeline(stdlib.load("dnc", m=3),
                                parse_topology("mesh:2x2"),
                                RunConfig(cache=False))
    expected = json.loads(json.dumps(io.mapping_to_dict(direct.mapping)))
    assert doc["result"]["mapping"]["assignment"] == expected["assignment"]


def test_server_close_waits_for_an_in_flight_compute(tmp_path, monkeypatch,
                                                     release):
    """Drain is ``server_close()``: it joins the handler still computing."""
    started = threading.Event()

    def run_pipeline(tg, topology, config, faults=None):
        started.set()
        release.wait(60)
        return _real_run_pipeline(tg, topology, config, faults=faults)

    monkeypatch.setattr(engine, "run_pipeline", run_pipeline)
    server = MappingServer(("127.0.0.1", 0), cache=ArtifactCache(str(tmp_path)),
                           executor="thread")
    loop = threading.Thread(target=server.serve_forever,
                            kwargs={"poll_interval": 0.05}, daemon=True)
    loop.start()
    try:
        a, a_out = _post_in_background("127.0.0.1", server.port,
                                       _body("mesh:2x2"))
        assert started.wait(30)
        server.shutdown()
        closer = threading.Thread(target=server.server_close, daemon=True)
        closer.start()
        closer.join(0.5)
        assert closer.is_alive(), "server_close returned with a compute in flight"
        release.set()
        closer.join(60)
        assert not closer.is_alive()
        a.join(60)
        assert not a.is_alive()
    finally:
        release.set()
        loop.join(10)
    status, doc = a_out["response"]
    assert status == 200
    assert doc["result"]["mapping"]["topology"]["name"] == "mesh2x2"


def test_stats_batcher_member_counts_supervised_runs(tmp_path):
    """``batcher`` keeps its two keys; both count the cold computes only."""
    with _serving(tmp_path) as (host, port):
        for spec in ("mesh:2x2", "ring:4", "mesh:2x2"):
            status, _ = request_once(host, port, "POST", "/v1/map",
                                     _body(spec), timeout=60)
            assert status == 200
        status, doc = request_once(host, port, "GET", "/v1/stats")
    assert status == 200
    assert doc["batcher"] == {"batches": 2, "requests": 2}
