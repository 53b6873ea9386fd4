"""The ``/v1/map`` wire protocol: parsing, shaping, and error mapping."""

import json
import time
from pathlib import Path

import pytest

from repro import __version__, io
from repro.errors import RetriesExhausted, TaskTimeout, WorkerCrash
from repro.larcs import stdlib
from repro.serve import protocol
from repro.serve.protocol import (
    MapRequest,
    ProtocolError,
    error_response,
    map_response,
    parse_map_request,
    render_result,
    request_key,
)
from tests.data import capture_cold_path as pinned


def _body(**overrides) -> bytes:
    body = {"program": "dnc", "bind": {"m": 3}, "topology": "mesh:2x2"}
    body.update(overrides)
    return json.dumps(body).encode()


class TestParseMapRequest:
    def test_minimal_program_request(self):
        request = parse_map_request(_body())
        assert isinstance(request, MapRequest)
        assert request.tg.n_tasks == 8
        assert request.topology.n_processors == 4
        assert request.faults is None
        assert request.deadline_s is None
        assert request.use_cache is True
        # the worker-side config never double-caches
        assert request.config.cache is False

    def test_config_cache_flag_becomes_use_cache(self):
        request = parse_map_request(_body(config={"cache": False}))
        assert request.use_cache is False
        assert request.config.cache is False

    def test_inline_task_graph(self):
        tg = stdlib.load("dnc", m=3)
        raw = json.dumps({
            "task_graph": io.taskgraph_to_dict(tg),
            "topology": "mesh:2x2",
        }).encode()
        request = parse_map_request(raw)
        assert request.tg.n_tasks == tg.n_tasks

    def test_program_and_task_graph_together_rejected(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_map_request(_body(task_graph={"tasks": []}))

    def test_neither_program_nor_graph_rejected(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_map_request(json.dumps({"topology": "ring:4"}).encode())

    def test_unknown_program_rejected(self):
        with pytest.raises(ProtocolError, match="unknown stdlib program"):
            parse_map_request(_body(program="nonesuch"))

    def test_path_traversal_is_not_a_program(self):
        """The server must never read files on behalf of a request."""
        with pytest.raises(ProtocolError, match="unknown stdlib program"):
            parse_map_request(_body(program="../../etc/passwd"))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request keys"):
            parse_map_request(_body(shellcode="x"))

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_map_request(b"{nope")

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            parse_map_request(b"[1, 2]")

    def test_non_integer_binding_rejected(self):
        with pytest.raises(ProtocolError, match="must be an integer"):
            parse_map_request(_body(bind={"m": "three"}))

    def test_boolean_binding_rejected(self):
        with pytest.raises(ProtocolError, match="must be an integer"):
            parse_map_request(_body(bind={"m": True}))

    def test_missing_topology_rejected(self):
        raw = json.dumps({"program": "dnc", "bind": {"m": 3}}).encode()
        with pytest.raises(
            ProtocolError, match="exactly one of 'topology' or 'machine'"
        ):
            parse_map_request(raw)

    def test_topology_and_machine_together_rejected(self):
        with pytest.raises(
            ProtocolError, match="exactly one of 'topology' or 'machine'"
        ):
            parse_map_request(
                _body(topology="mesh:2x2", machine="fat_tree:2x2")
            )

    def test_bad_topology_spec_rejected(self):
        with pytest.raises(ProtocolError, match="bad topology spec"):
            parse_map_request(_body(topology="dragonfly:8"))

    @pytest.mark.parametrize("member", [
        {"topology": "hypercube:30"},
        {"topology": "hypercube:1000000000"},
        {"topology": "mesh:128x129"},
        {"topology": "butterfly:11"},
        {"machine": "fat_tree:200x200"},
        {"machine": "ccc:12"},
        {"machine": {"kind": "node_core_tree",
                     "params": {"nodes": 4097, "cores": 4}}},
        {"machine": {"kind": "fat_tree", "params": {"arities": [2] * 2000}}},
        {"machine": {"kind": "topology", "params": {"spec": "torus:1000x1000"}}},
    ], ids=str)
    def test_machine_above_the_bound_rejected_before_it_is_built(self, member):
        body = {"program": "dnc", "bind": {"m": 3}, **member}
        with pytest.raises(ProtocolError, match="at most 16384") as info:
            parse_map_request(json.dumps(body).encode())
        assert info.value.status == 400

    def test_machine_at_the_bound_still_parses(self):
        assert protocol.MAX_PROCESSORS == 128 * 128
        request = parse_map_request(_body(topology="mesh:128x128"))
        assert request.topology.n_processors == protocol.MAX_PROCESSORS

    @pytest.mark.parametrize("parse", [
        parse_map_request, protocol.parse_session_request,
    ])
    @pytest.mark.parametrize("program, bind, count", [
        ("jacobi", {"rows": 100_000, "cols": 100_000}, 10 ** 10),
        ("fft", {"m": 17}, 2 ** 17),
        ("nbody", {"n": 65_537}, 65_537),
        ("fft", {"m": 1_000_000}, r"2\*\*1000000 or more"),
    ])
    def test_bindings_above_the_task_bound_rejected_before_elaboration(
        self, parse, program, bind, count
    ):
        import resource
        import time

        parse(_body(program="nbody", bind={"n": 15}))  # imports, memo warm
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        with pytest.raises(
            ProtocolError, match=f"declares {count} nodes; .* at most 65536"
        ) as info:
            parse(_body(program=program, bind=bind))
        assert time.perf_counter() - start < 0.05
        assert info.value.status == 400
        status, doc = error_response(info.value)
        assert (status, doc["error"]["type"]) == (400, "BadRequest")
        # 65,537 tasks alone are tens of MB (KB here, on Linux).
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        assert grown < 4096

    def test_task_graph_at_the_bound_still_parses(self):
        assert protocol.MAX_TASKS == 256 * 256
        request = parse_map_request(
            _body(program="jacobi", bind={"rows": 256, "cols": 256})
        )
        assert request.tg.n_tasks == protocol.MAX_TASKS

    def test_inline_task_graph_above_the_bound_rejected(self):
        doc = io.taskgraph_to_dict(stdlib.load("dnc", m=3))
        doc["nodes"] = [{"label": i, "weight": 1.0}
                        for i in range(protocol.MAX_TASKS + 1)]
        raw = json.dumps({"task_graph": doc, "topology": "mesh:2x2"}).encode()
        with pytest.raises(ProtocolError, match="65537 nodes; .* at most 65536"):
            parse_map_request(raw)

    def test_binding_named_like_the_budget_is_an_unknown_binding(self):
        with pytest.raises(ProtocolError, match="'max_tasks' matches no parameter"):
            parse_map_request(_body(bind={"m": 3, "max_tasks": 10 ** 9}))

    @pytest.mark.parametrize("params", [
        {"groups": "ab", "routers": 10 ** 9},
        {"groups": 3},
        {"groups": 3, "routers": float("inf")},
    ], ids=str)
    def test_unsizeable_machine_params_are_400(self, params):
        body = {"program": "dnc", "bind": {"m": 3},
                "machine": {"kind": "dragonfly", "params": params}}
        with pytest.raises(ProtocolError, match="bad 'machine'"):
            parse_map_request(json.dumps(body).encode())

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ProtocolError, match="bad 'config'"):
            parse_map_request(_body(config={"warp_speed": 9}))

    @pytest.mark.parametrize("config,needle", [
        ({"sim": {"hop_latency": "x"}}, "hop_latency"),
        ({"map": {"load_bound": "3"}}, "load_bound"),
        ({"cache": "false"}, "cache"),
        ({"stages": "route"}, "stages"),
        # the removed simulator / METRICS knobs are plain unknown keys
        ({"sim": {"kernel": "auto"}}, "unknown SimConfig keys"),
        ({"sim": {"memoize": False}}, "unknown SimConfig keys"),
        ({"analyze": {"kernel": "vector"}}, "unknown RunConfig keys"),
        ({"map": {"load_bound": 2.5}}, "load_bound must be an integer"),
    ])
    def test_bad_config_value_rejected(self, config, needle):
        with pytest.raises(ProtocolError, match="bad 'config'") as info:
            parse_map_request(_body(config=config))
        assert info.value.status == 400 and needle in str(info.value)

    def test_bad_deadline_rejected(self):
        for bad in (0, -1, "soon", True):
            with pytest.raises(ProtocolError, match="deadline_s"):
                parse_map_request(_body(deadline_s=bad))

    def test_valid_deadline_accepted(self):
        request = parse_map_request(_body(deadline_s=2))
        assert request.deadline_s == 2.0

    def test_faults_parsed(self):
        request = parse_map_request(_body(
            topology="mesh:2x2",
            faults={"format": "oregami-faultset-v1",
                    "failed_procs": [0], "failed_links": [],
                    "degraded_links": []},
        ))
        assert request.faults is not None

    def test_bad_faults_rejected(self):
        with pytest.raises(ProtocolError, match="bad 'faults'"):
            parse_map_request(_body(faults={"failed_procs": [0]}))

    def test_oversized_body_is_413(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_BODY_BYTES", 64)
        with pytest.raises(ProtocolError) as info:
            parse_map_request(b"x" * 65)
        assert info.value.status == 413
        assert info.value.kind == "PayloadTooLarge"


class TestRequestKey:
    def test_whitespace_and_order_insensitive(self):
        a = {"program": "dnc", "bind": {"m": 3}, "topology": "ring:4"}
        b = {"topology": "ring:4", "bind": {"m": 3}, "program": "dnc"}
        assert request_key(a) == request_key(b)

    def test_different_bodies_differ(self):
        a = {"program": "dnc", "bind": {"m": 3}, "topology": "ring:4"}
        b = {"program": "dnc", "bind": {"m": 4}, "topology": "ring:4"}
        assert request_key(a) != request_key(b)


class TestMapResponse:
    def _result(self):
        from repro.cli import parse_topology
        from repro.pipeline import RunConfig, run_pipeline

        tg = stdlib.load("dnc", m=3)
        return run_pipeline(tg, parse_topology("mesh:2x2"),
                            RunConfig(cache=False))

    def test_result_member_has_no_request_provenance(self):
        result = self._result()
        rendered = render_result(result, fingerprints={"pipeline": "abc"})
        doc = json.loads(rendered)
        assert "cache" not in doc
        assert doc["fingerprints"] == {"pipeline": "abc"}
        assert "mapping" in doc

    def test_envelope_is_request_scoped(self):
        result = self._result()
        rendered = render_result(result, fingerprints={})
        body = json.loads(map_response(
            rendered, key="k1", tier="memory", elapsed_s=0.01,
        ))
        assert body["format"] == protocol.MAP_FORMAT
        assert body["serving"]["cache"] == {
            "key": "k1", "tier": "memory",
            "hit": True, "deduplicated": False,
        }
        assert body["serving"]["version"] == __version__

    def test_rendering_is_deterministic_across_tiers(self):
        result = self._result()
        rendered = render_result(result, fingerprints={"pipeline": "abc"})
        cold = json.loads(map_response(rendered, key="k", tier="computed",
                                       elapsed_s=1.0))
        warm = json.loads(map_response(rendered, key="k", tier="disk",
                                       elapsed_s=0.001))
        assert cold["result"] == warm["result"]
        assert cold["serving"]["cache"]["hit"] is False
        assert warm["serving"]["cache"]["hit"] is True

    @pytest.mark.parametrize("rendered", [
        b"{}", b'{"mapping": {"assignment": [' + b"7, " * 30_000 + b"7]}}",
    ])
    @pytest.mark.parametrize("tier", ["computed", "memory", "singleflight"])
    def test_bytes_equal_the_concatenated_envelope(self, rendered, tier):
        """The body is one join now; its bytes are the ``+`` chain's."""
        serving = json.dumps({
            "cache": {"key": "k1", "tier": tier,
                      "hit": tier in ("memory", "disk"),
                      "deduplicated": tier == "singleflight"},
            "elapsed_ms": 12.5,
            "version": __version__,
        }).encode()
        concatenated = (
            b'{"format": ' + json.dumps(protocol.MAP_FORMAT).encode()
            + b', "result": ' + rendered
            + b', "serving": ' + serving + b"}"
        )
        assert map_response(rendered, key="k1", tier=tier,
                            elapsed_s=0.0125) == concatenated


class TestRenderedBytesArePinned:
    """``render_result`` through the label table and shared encoders writes
    the bytes PR 18's parent wrote (``tests/data/capture_cold_path.py``),
    ``stage_seconds`` -- wall clock -- aside."""

    PINNED = json.loads(
        Path(pinned.__file__).with_name("cold_path_pr17.json").read_text()
    )["rendered"]

    @pytest.mark.parametrize("name", pinned.REQUESTS)
    def test_bytes_equal_the_parents(self, name):
        from repro.pipeline import pipeline_key, run_pipeline

        request = parse_map_request(pinned.request_bodies()[name])
        key, prints = pipeline_key(request.tg, request.topology, request.config)
        assert key == self.PINNED[name]["key"]
        result = run_pipeline(request.tg, request.topology, request.config)
        rendered = render_result(result, fingerprints=prints)
        assert pinned.blank_stage_seconds(rendered) == self.PINNED[name]["text"]
        assert b'"stage_seconds": {"contract": ' in rendered

    @pytest.mark.parametrize("name", pinned.REQUESTS)
    def test_a_decoded_body_parses_like_its_bytes(self, name):
        """The server decodes a body once, for the alias probe, and hands
        the parser the dict."""
        raw = pinned.request_bodies()[name]
        body = json.loads(raw)
        before = request_key(body)
        from_bytes, from_dict = parse_map_request(raw), parse_map_request(body)
        assert request_key(body) == before  # parsing leaves the body alone
        assert from_dict.tg.fingerprint() == from_bytes.tg.fingerprint()
        assert from_dict.topology.fingerprint() == from_bytes.topology.fingerprint()
        assert (from_dict.config, from_dict.faults, from_dict.deadline_s,
                from_dict.use_cache) == (from_bytes.config, from_bytes.faults,
                                         from_bytes.deadline_s, from_bytes.use_cache)

    def test_a_decoded_non_object_is_still_rejected(self):
        with pytest.raises(ProtocolError, match="must be a JSON object, got list"):
            parse_map_request([1, 2])


class TestServeMapDecodesOnce:
    """``_serve_map`` decodes a first-seen body for the alias probe and
    hands the parser the dict, not the bytes again."""

    @pytest.fixture
    def handler(self, tmp_path):
        from types import SimpleNamespace

        import threading

        from repro.pipeline import ArtifactCache
        from repro.util.lru import BoundedLRU
        from repro.util.perf import PerfRegistry

        return SimpleNamespace(server=SimpleNamespace(
            cache=ArtifactCache(str(tmp_path)), executor="thread",
            deadline=None, retry=None, slots=threading.BoundedSemaphore(1),
            runs=PerfRegistry(), aliases=BoundedLRU(8), rendered=BoundedLRU(8),
            stats=PerfRegistry(),
        ))

    def test_one_decode_per_request(self, handler, monkeypatch):
        import time

        from repro.serve.server import _Handler

        decoded = []
        real = json.loads
        monkeypatch.setattr(
            json, "loads", lambda s, **kw: decoded.append(s) or real(s, **kw)
        )
        raw = _body()
        tiers = []
        for _ in range(2):
            payload = _Handler._serve_map(handler, raw, time.perf_counter())
            assert type(payload) is bytes
            tiers.append(real(payload)["serving"]["cache"]["tier"])
        assert tiers == ["computed", "memory"]
        assert decoded.count(raw) == 2  # one per request, alias hit or not
        handler.server.cache = None  # cacheless: no probe, the parser decodes
        _Handler._serve_map(handler, raw, time.perf_counter())
        assert decoded.count(raw) == 3
        with pytest.raises(ProtocolError, match="not valid JSON"):
            _Handler._serve_map(handler, b"{nope", time.perf_counter())

    def test_held_response_is_counted_not_unpickled(self, handler, monkeypatch):
        """The held rendered bytes are the server's one in-memory copy of
        an entry: a hit on them is counted as the server's memory hit and
        stamps the entry's file without decoding the stored result; once
        they are gone, no pickled copy is left in memory, so the entry is
        a disk hit that decodes once."""
        import os
        import pickle
        import time

        from repro.pipeline import ArtifactCache
        from repro.serve.server import MappingServer, _Handler

        # the disk-only store MappingServer builds from the cache handed to it
        handler.server.cache = ArtifactCache(handler.server.cache.directory,
                                             capacity=0)
        raw = _body()
        payload = _Handler._serve_map(handler, raw, time.perf_counter())
        key = json.loads(payload)["serving"]["cache"]["key"]
        path = os.path.join(handler.server.cache.directory, f"{key}.pkl")
        decoded = []
        real = pickle.loads
        monkeypatch.setattr(
            pickle, "loads", lambda data, **kw: decoded.append(data) or real(data, **kw)
        )
        for n, held in ((1, True), (2, False)):
            if not held:
                handler.server.rendered.clear()
            stamp = os.stat(path).st_mtime_ns
            again = _Handler._serve_map(handler, raw, time.perf_counter())
            tier = json.loads(again)["serving"]["cache"]["tier"]
            assert tier == ("memory" if held else "disk")
            assert json.loads(again)["result"] == json.loads(payload)["result"]
            stats = MappingServer.cache_stats(handler.server)
            assert (stats["hits_memory"], stats["hits_disk"]) == (1, n - 1)
            assert os.stat(path).st_mtime_ns > stamp
            assert len(decoded) == (0 if held else 1)


class TestErrorResponse:
    def test_protocol_error_is_400(self):
        status, body = error_response(ProtocolError("bad"))
        assert status == 400
        assert body["error"]["type"] == "BadRequest"
        assert body["error"]["exit_code"] == 2

    def test_payload_too_large_is_413(self):
        status, body = error_response(
            ProtocolError("big", status=413, kind="PayloadTooLarge")
        )
        assert status == 413
        assert body["error"]["type"] == "PayloadTooLarge"

    def test_task_timeout_is_504_exit_3(self):
        status, body = error_response(TaskTimeout("too slow"))
        assert status == 504
        assert body["error"]["exit_code"] == 3

    def test_retries_exhausted_by_timeout_is_504(self):
        status, _ = error_response(
            RetriesExhausted("gone", last_outcome="timeout")
        )
        assert status == 504

    def test_worker_crash_is_500_with_attempts(self):
        from repro.errors import Attempt

        exc = WorkerCrash("boom", attempts=[
            Attempt(number=1, outcome="crash", detail="exit 9", backoff_s=0.1)
        ])
        status, body = error_response(exc)
        assert status == 500
        assert body["error"]["attempts"] == [
            {"number": 1, "outcome": "crash", "detail": "exit 9",
             "backoff_s": 0.1}
        ]

    def test_value_error_is_400(self):
        status, _ = error_response(ValueError("nope"))
        assert status == 400

    def test_unexpected_error_is_500(self):
        status, body = error_response(RuntimeError("???"))
        assert status == 500
        assert body["error"]["type"] == "RuntimeError"


class TestParseSessionRequest:
    def _body(self, **overrides) -> bytes:
        body = {"program": "dnc", "bind": {"m": 3}, "topology": "mesh:2x2"}
        body.update(overrides)
        return json.dumps(body).encode()

    def test_default_generated_stream(self):
        request = protocol.parse_session_request(self._body())
        assert request.tg.n_tasks == 8
        assert len(request.scenario) == 50  # generator default
        assert request.include_trace is False

    def test_generate_parameters_respected(self):
        request = protocol.parse_session_request(self._body(
            generate={"seed": 9, "events": 12, "rates": {"drift": 5.0}},
        ))
        assert request.scenario.seed == 9
        assert len(request.scenario) == 12

    def test_generate_is_deterministic(self):
        body = self._body(generate={"seed": 3, "events": 20})
        a = protocol.parse_session_request(body)
        b = protocol.parse_session_request(body)
        assert a.scenario.fingerprint() == b.scenario.fingerprint()

    def test_inline_scenario_accepted(self):
        from repro.online import generate_scenario

        seed_req = protocol.parse_session_request(
            self._body(generate={"seed": 5, "events": 8})
        )
        inline = protocol.parse_session_request(self._body(
            scenario=json.loads(json.dumps(seed_req.scenario.to_dict()))
        ))
        assert inline.scenario.fingerprint() == seed_req.scenario.fingerprint()

    def test_scenario_and_generate_together_rejected(self):
        with pytest.raises(ProtocolError, match="at most one"):
            protocol.parse_session_request(self._body(
                scenario={"format": "oregami-scenario-v1"},
                generate={"seed": 1},
            ))

    def test_scenario_must_be_inline_object(self):
        with pytest.raises(ProtocolError, match="never reads files"):
            protocol.parse_session_request(
                self._body(scenario="/tmp/scenario.json")
            )

    def test_bad_scenario_rejected(self):
        with pytest.raises(ProtocolError, match="bad 'scenario'"):
            protocol.parse_session_request(
                self._body(scenario={"format": "nope"})
            )

    def test_unknown_generate_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown 'generate' keys"):
            protocol.parse_session_request(
                self._body(generate={"meteors": 2})
            )

    @pytest.mark.parametrize("generate, key", [
        ({"events": 2.9}, "events"),
        ({"events": True}, "events"),
        ({"seed": "7"}, "seed"),
        ({"burst_len": 2.0}, "burst_len"),
        ({"flap_after": "3"}, "flap_after"),
        ({"max_failed_frac": "0.5"}, "max_failed_frac"),
        ({"rates": {"drift": "5"}}, "drift"),
        ({"rates": ["drift"]}, "rates"),
    ], ids=str)
    def test_mistyped_generate_is_a_400_naming_the_key(self, generate, key):
        """The generator checks its own numbers; nothing coerces them."""
        with pytest.raises(ProtocolError, match="bad 'generate'") as info:
            protocol.parse_session_request(self._body(generate=generate))
        assert info.value.status == 400
        assert key in str(info.value)

    def test_too_many_generated_events_is_a_400_before_generating(self):
        """A count no inline scenario of ``MAX_BODY_BYTES`` could carry is
        refused from the integer, before the generator runs."""
        assert protocol.MAX_EVENTS == 1 << 20
        assert protocol.MAX_EVENTS * len(
            '{"kind":"departure","task":0},'
        ) <= protocol.MAX_BODY_BYTES
        for events in (protocol.MAX_EVENTS + 1, 10**9):
            start = time.perf_counter()
            with pytest.raises(ProtocolError, match="bad 'generate'") as info:
                protocol.parse_session_request(
                    self._body(generate={"events": events})
                )
            assert time.perf_counter() - start < 1.0
            assert info.value.status == 400
            assert f"at most {protocol.MAX_EVENTS}" in str(info.value)

    def test_an_empty_generate_is_the_generator_default(self):
        """The fingerprint ``"generate": {}`` gave when the protocol still
        spelled the generator's defaults itself."""
        request = protocol.parse_session_request(self._body(generate={}))
        assert request.scenario.fingerprint() == (
            "68bff8838bf0f94ac9fad8a6b2b4d27451047b382d708aba0c1ed6b9b38bc4f7"
        )

    def test_session_config_knobs_applied(self):
        request = protocol.parse_session_request(self._body(
            session={"drift_threshold": 0.5, "cooldown_events": 7},
        ))
        assert request.config.drift_threshold == 0.5
        assert request.config.cooldown_events == 7

    def test_bad_session_knob_rejected(self):
        with pytest.raises(ProtocolError, match="bad 'session'"):
            protocol.parse_session_request(
                self._body(session={"warp_speed": 9})
            )

    @pytest.mark.parametrize("session, needle", [
        ({"strategies": ["nope"]}, "strategies: unknown strategy 'nope'"),
        ({"strategies": ["mwm+kl"]}, "strategies: unknown strategy suffix"),
        ({"strategies": "mwm"}, "strategies must be a list"),
        ({"strategy": 7}, "strategy must be one of"),
        ({"strategy": "nope"}, "strategy must be one of"),
        ({"load_bound": "x"}, "load_bound must be an integer"),
        ({"load_bound": 0}, "load_bound must be positive"),
        ({"checkpoint_every": 1.5}, "checkpoint_every must be an integer"),
        ({"retries": "a"}, "retries must be an integer"),
        ({"cooldown_events": True}, "cooldown_events must be an integer"),
        ({"max_workers": 2.0}, "max_workers must be an integer"),
        ({"drift_threshold": "0.5"}, "drift_threshold must be a number"),
        ({"remap_deadline_s": "1"}, "remap_deadline_s must be a number"),
        ({"event_deadline_s": -1}, "event_deadline_s must be positive"),
        ({"executor": "mpi"}, "executor must be one of"),
    ], ids=str)
    def test_mistyped_session_knob_is_400_naming_the_key(self, session, needle):
        with pytest.raises(ProtocolError, match=needle) as info:
            protocol.parse_session_request(self._body(session=session))
        assert info.value.status == 400
        assert str(info.value).startswith("bad 'session'")

    def test_portfolio_entries_accepted(self):
        request = protocol.parse_session_request(self._body(
            session={"strategies": ["mwm", "mwm+refine"], "load_bound": 4},
        ))
        assert request.config.strategies == ("mwm", "mwm+refine")

    def test_process_executor_rejected_over_http(self):
        with pytest.raises(ProtocolError, match="'serial' or 'thread'"):
            protocol.parse_session_request(
                self._body(session={"executor": "process"})
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request keys"):
            protocol.parse_session_request(self._body(shellcode="x"))

    def test_topology_required(self):
        raw = json.dumps({"program": "dnc", "bind": {"m": 3}}).encode()
        with pytest.raises(ProtocolError, match="'topology' or 'machine'"):
            protocol.parse_session_request(raw)

    def test_non_boolean_trace_rejected(self):
        with pytest.raises(ProtocolError, match="'trace' must be a boolean"):
            protocol.parse_session_request(self._body(trace=1))

    def test_bad_bindings_are_400_not_500(self):
        # An unknown stdlib parameter raises a LarcsError deep in the
        # evaluator; the protocol layer must surface it as a 400.
        with pytest.raises(ProtocolError) as info:
            protocol.parse_session_request(self._body(
                program="jacobi", bind={"N": 4},
            ))
        assert info.value.status == 400


class TestSessionResponse:
    def test_envelope_shape(self):
        from repro.arch import networks
        from repro.larcs import stdlib
        from repro.online import MappingSession, SessionConfig, generate_scenario

        tg = stdlib.load("dnc", m=3)
        topo = networks.mesh(2, 2)
        scn = generate_scenario(tg, topo, seed=1, n_events=5)
        report = MappingSession(
            tg, topo, SessionConfig(checkpoint_every=0)
        ).run(scn.events)
        body = json.loads(protocol.session_response(
            scn, report, include_trace=False, elapsed_s=0.25,
        ))
        assert body["format"] == protocol.SESSION_FORMAT
        assert body["scenario"]["events"] == 5
        assert body["scenario"]["fingerprint"] == scn.fingerprint()
        assert body["report"]["counters"]
        assert "records" not in body["report"].get("trace", {})
        assert body["serving"]["version"] == __version__
        assert body["serving"]["elapsed_ms"] == 250.0
