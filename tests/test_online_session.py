"""Continuous-operation mapping sessions (repro.online.session)."""

import pytest

from repro.arch import networks
from repro.graph.taskgraph import TaskGraph
from repro.online import (
    Arrival,
    Departure,
    Drift,
    Fault,
    MappingSession,
    Recovery,
    SessionConfig,
    generate_scenario,
    mapping_fingerprint,
)
from repro.pipeline.cache import ArtifactCache
from repro.resilience import FaultSet


def _ring(n=6):
    tg = TaskGraph("online-ring")
    for i in range(n):
        tg.add_node(i, 1.0)
    phase = tg.add_comm_phase("ring")
    for i in range(n):
        phase.add(i, (i + 1) % n, 1.0)
    tg.add_exec_phase("work", 1.0)
    return tg


def _session(config=None, topo=None, **kwargs):
    return MappingSession(
        _ring(), topo if topo is not None else networks.mesh(2, 3),
        config, **kwargs
    )


class TestSessionConfig:
    def test_defaults_valid(self):
        SessionConfig()

    @pytest.mark.parametrize("bad", [
        {"drift_threshold": 0.0},
        {"clear_threshold": -0.1},
        {"clear_threshold": 0.5, "drift_threshold": 0.25},
        {"cooldown_events": -1},
        {"amortize_events": 0},
        {"checkpoint_every": -1},
    ])
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            SessionConfig(**bad)

    def test_round_trip(self):
        cfg = SessionConfig(strategy="mwm", drift_threshold=0.5,
                            strategies=("group", "mwm+refine"))
        assert SessionConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown session config"):
            SessionConfig.from_dict({"spin": 1})

    def test_canonical_dict_excludes_execution_knobs(self):
        cfg = SessionConfig(executor="thread", max_workers=7,
                            event_deadline_s=0.5, checkpoint_every=3)
        canon = cfg.canonical_dict()
        for key in ("executor", "max_workers", "event_deadline_s",
                    "checkpoint_every"):
            assert key not in canon


class TestEventHandling:
    def test_initial_mapping_valid(self):
        s = _session()
        s.mapping.validate(require_routes=True)
        assert s.baseline > 0

    def test_arrival_places_and_routes(self):
        s = _session()
        record = s.apply(Arrival(
            task="new", weight=1.0, edges=(("ring", 0, "new", 2.0),)
        ))
        assert record.action == "placed"
        assert "new" in s.mapping.assignment
        s.mapping.validate(require_routes=True)

    def test_arrival_unknown_phase_rejected(self):
        s = _session()
        with pytest.raises((ValueError, KeyError)):
            s.apply(Arrival(task="new", edges=(("nope", 0, "new", 1.0),)))

    def test_arrival_unknown_peer_rejected(self):
        s = _session()
        with pytest.raises((ValueError, KeyError)):
            s.apply(Arrival(task="new", edges=(("ring", "ghost", "new", 1.0),)))

    def test_departure_removes_task_and_routes(self):
        s = _session()
        s.apply(Arrival(task="new", edges=(("ring", 0, "new", 1.0),)))
        record = s.apply(Departure(task="new"))
        assert record.action == "removed"
        assert "new" not in s.mapping.assignment
        s.mapping.validate(require_routes=True)

    def test_departure_rekeys_surviving_routes(self):
        # Dropping task 0 removes two ring edges; the remaining edges'
        # indices shift but their routes must stay attached correctly.
        s = _session()
        s.apply(Departure(task=0))
        s.mapping.validate(require_routes=True)
        tg = s.mapping.task_graph
        assert 0 not in tg.nodes
        assert set(s.mapping.routes) == {
            ("ring", i) for i in range(len(tg.comm_phase("ring").edges))
        }

    def test_drift_reweights(self):
        s = _session()
        before = s.mapping.routes[("ring", 0)]
        record = s.apply(Drift(phase="ring", updates=((0, 1, 8.0),)))
        assert record.action == "reweighted"
        tg = s.mapping.task_graph
        edge = tg.comm_phase("ring").edges[0]
        assert edge.volume == 8.0
        assert s.mapping.routes[("ring", 0)] == before  # route untouched

    def test_drift_on_missing_edge_rejected(self):
        s = _session()
        with pytest.raises(ValueError):
            s.apply(Drift(phase="ring", updates=((0, 3, 1.0),)))

    def test_fault_repairs_onto_survivors(self):
        s = _session()
        victim = s.mapping.topology.processors[0]
        record = s.apply(Fault(faults=FaultSet(failed_procs=[victim])))
        assert record.action.startswith("repaired-")
        assert victim not in set(s.mapping.assignment.values())
        s.mapping.validate(require_routes=True)
        assert s.machine.n_processors == 5

    def test_recovery_restores_machine(self):
        s = _session()
        fs = FaultSet(failed_procs=[s.mapping.topology.processors[0]])
        s.apply(Fault(faults=fs))
        record = s.apply(Recovery(faults=fs))
        assert record.action == "recovered"
        assert s.machine.n_processors == 6
        assert s.faults == FaultSet()
        s.mapping.validate(require_routes=True)

    def test_degraded_link_fault_and_recovery(self):
        s = _session()
        link = tuple(sorted(next(iter(s.machine.links))))
        fs = FaultSet(degraded_links=[(link, 2.0)])
        s.apply(Fault(faults=fs))
        assert s.machine.link_slowdowns
        s.apply(Recovery(faults=fs))
        assert not s.machine.link_slowdowns

    def test_recovering_inactive_fault_rejected(self):
        s = _session()
        with pytest.raises(ValueError, match="not failed"):
            s.apply(Recovery(faults=FaultSet(failed_procs=[0])))

    def test_counters_track_kinds(self):
        s = _session()
        s.apply(Arrival(task="x"))
        s.apply(Arrival(task="y"))
        s.apply(Departure(task="x"))
        assert s.counters["events_arrival"] == 2
        assert s.counters["events_departure"] == 1


class TestRemapAndHotSwap:
    def test_drift_triggers_background_remap(self):
        cfg = SessionConfig(drift_threshold=0.01, clear_threshold=0.0,
                            cooldown_events=0, amortize_events=500,
                            checkpoint_every=0)
        s = _session(cfg)
        # Crank one edge hard enough that quality drifts past 1%.
        for volume in (50.0, 100.0):
            s.apply(Drift(phase="ring", updates=((0, 1, volume),)))
        assert s.counters.get("remaps_triggered", 0) >= 1
        triggered = [r for r in s.trace if (r.remap or {}).get("triggered")]
        assert triggered
        decision = triggered[0].remap
        assert decision["outcome"] == "ok"
        assert {"candidate_cost", "migration_cost", "swapped"} <= set(decision)

    @pytest.mark.parametrize("knobs, portfolio", [
        ({}, None),  # the default portfolio
        ({"strategy": "multilevel"}, ("multilevel",)),
        ({"strategy": "mwm", "strategies": ("group", "mwm+refine")},
         ("group", "mwm+refine")),  # an explicit list wins
    ])
    def test_strategy_reaches_the_portfolio(self, monkeypatch, knobs, portfolio):
        import repro.online.session as module

        seen = []

        run_portfolio = module.run_portfolio

        def recording(*args, strategies, **kwargs):
            seen.append(strategies)
            return run_portfolio(*args, strategies=strategies, **kwargs)

        monkeypatch.setattr(module, "run_portfolio", recording)
        s = _session(SessionConfig(drift_threshold=0.01, clear_threshold=0.0,
                                   cooldown_events=0, checkpoint_every=0,
                                   **knobs))
        for volume in (50.0, 100.0):
            s.apply(Drift(phase="ring", updates=((0, 1, volume),)))
        assert len(seen) >= 2  # the initial mapping and a remap
        assert set(seen) == {portfolio}

    def test_swap_only_when_amortized_gain_pays(self):
        # amortize_events=1 makes almost any migration unprofitable for a
        # marginal gain; the session must record the decision either way
        # and keep serving a valid mapping.
        cfg = SessionConfig(drift_threshold=0.01, clear_threshold=0.0,
                            cooldown_events=0, amortize_events=1,
                            checkpoint_every=0)
        s = _session(cfg)
        for volume in (50.0, 100.0):
            s.apply(Drift(phase="ring", updates=((0, 1, volume),)))
        for record in s.trace:
            if (record.remap or {}).get("triggered"):
                if record.remap["swapped"]:
                    gain = record.remap["amortized_gain"]
                    assert gain > record.remap["migration_cost"]
        s.mapping.validate(require_routes=True)

    def test_cooldown_suppresses_retrigger(self):
        cfg = SessionConfig(drift_threshold=0.01, clear_threshold=0.0,
                            cooldown_events=50, checkpoint_every=0)
        s = _session(cfg)
        for volume in (50.0, 100.0, 150.0, 200.0):
            s.apply(Drift(phase="ring", updates=((0, 1, volume),)))
        assert s.counters.get("remaps_triggered", 0) <= 1


class TestDeterminism:
    def test_trace_identical_across_executors(self):
        tg, topo = _ring(), networks.mesh(2, 3)
        scn = generate_scenario(tg, topo, seed=13, n_events=30)
        fps = []
        for executor, workers in (("serial", None), ("thread", 4)):
            cfg = SessionConfig(executor=executor, max_workers=workers,
                                drift_threshold=0.05, clear_threshold=0.0,
                                cooldown_events=1, checkpoint_every=0)
            s = MappingSession(tg, topo, cfg)
            report = s.run(scn.events)
            fps.append((report.trace_fingerprint,
                        report.final_mapping_fingerprint))
        assert fps[0] == fps[1]

    def test_trace_fp_ignores_wall_clock(self):
        tg, topo = _ring(), networks.mesh(2, 3)
        scn = generate_scenario(tg, topo, seed=8, n_events=15)
        fast = MappingSession(tg, topo, SessionConfig(checkpoint_every=0))
        slow = MappingSession(
            tg, topo,
            SessionConfig(checkpoint_every=0, event_deadline_s=1e-12),
        )
        a = fast.run(scn.events)
        b = slow.run(scn.events)
        # Every event blows a 1 ps budget; the canonical trace must not
        # care, only the diagnostic channel does.
        assert any(r.deadline_exceeded for r in b.records)
        assert a.trace_fingerprint == b.trace_fingerprint

    def test_mapping_fingerprint_stable(self):
        s = _session()
        assert mapping_fingerprint(s.mapping) == mapping_fingerprint(s.mapping)


class TestCheckpointResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        tg, topo = _ring(), networks.mesh(2, 3)
        scn = generate_scenario(tg, topo, seed=21, n_events=24)
        cfg = SessionConfig(drift_threshold=0.1, cooldown_events=2)

        full_cache = ArtifactCache(str(tmp_path / "full"))
        uninterrupted = MappingSession(tg, topo, cfg, cache=full_cache)
        want = uninterrupted.run(scn.events)

        part_cache = ArtifactCache(str(tmp_path / "part"))
        killed = MappingSession(tg, topo, cfg, cache=part_cache)
        for event in scn.events[:11]:
            killed.apply(event)
        # ... the process dies here; a fresh session over the same cache
        # resumes from the deepest matching checkpoint.
        resumed = MappingSession(tg, topo, cfg, cache=part_cache)
        got = resumed.run(scn.events, resume="auto")
        assert got.resumed_at == 11
        assert got.trace_fingerprint == want.trace_fingerprint
        assert got.final_mapping_fingerprint == want.final_mapping_fingerprint
        assert got.final_comm_cost == want.final_comm_cost

    def test_resume_ignores_mismatched_event_stream(self, tmp_path):
        tg, topo = _ring(), networks.mesh(2, 3)
        cache = ArtifactCache(str(tmp_path / "ck"))
        cfg = SessionConfig()
        first = MappingSession(tg, topo, cfg, cache=cache)
        first.apply(Arrival(task="a"))
        first.apply(Arrival(task="b"))
        # A different stream sharing no prefix must start from scratch.
        other = MappingSession(tg, topo, cfg, cache=cache)
        report = other.run([Arrival(task="z")], resume="auto")
        assert report.resumed_at is None

    def test_resume_uses_longest_shared_prefix(self, tmp_path):
        tg, topo = _ring(), networks.mesh(2, 3)
        cache = ArtifactCache(str(tmp_path / "ck"))
        cfg = SessionConfig()
        first = MappingSession(tg, topo, cfg, cache=cache)
        events = [Arrival(task="a"), Arrival(task="b"), Arrival(task="c")]
        for event in events:
            first.apply(event)
        fork = events[:2] + [Departure(task="a")]
        other = MappingSession(tg, topo, cfg, cache=cache)
        report = other.run(fork, resume="auto")
        assert report.resumed_at == 2

    def test_config_change_invalidates_checkpoints(self, tmp_path):
        tg, topo = _ring(), networks.mesh(2, 3)
        cache = ArtifactCache(str(tmp_path / "ck"))
        first = MappingSession(tg, topo, SessionConfig(), cache=cache)
        first.apply(Arrival(task="a"))
        other = MappingSession(
            tg, topo, SessionConfig(drift_threshold=0.5), cache=cache
        )
        report = other.run([Arrival(task="a")], resume="auto")
        assert report.resumed_at is None  # different session key

    def test_checkpoint_every_zero_never_journals(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "ck"))
        s = _session(SessionConfig(checkpoint_every=0), cache=cache)
        s.apply(Arrival(task="a"))
        assert "checkpoints" not in s.counters

    def test_bad_resume_mode_rejected(self):
        s = _session()
        with pytest.raises(ValueError, match="resume"):
            s.run([], resume="maybe")


class TestReport:
    def test_report_document(self):
        tg, topo = _ring(), networks.mesh(2, 3)
        scn = generate_scenario(tg, topo, seed=1, n_events=10)
        s = MappingSession(tg, topo, SessionConfig(checkpoint_every=0))
        report = s.run(scn.events)
        doc = report.to_dict()
        assert doc["format"] == "oregami-online-report-v1"
        assert doc["events"] == 10
        assert "trace" not in doc
        with_trace = report.to_dict(include_trace=True)
        assert len(with_trace["trace"]) == 10
        record = with_trace["trace"][0]
        assert {"index", "kind", "action", "comm_cost", "drift",
                "elapsed_ms"} <= set(record)

    def test_on_event_callback_sees_every_record(self):
        tg, topo = _ring(), networks.mesh(2, 3)
        scn = generate_scenario(tg, topo, seed=1, n_events=8)
        seen = []
        s = MappingSession(tg, topo, SessionConfig(checkpoint_every=0))
        s.run(scn.events, on_event=seen.append)
        assert [r.index for r in seen] == list(range(8))


class TestCapacityMachines:
    def test_session_respects_capacity_vectors(self):
        from repro.arch.capacity import Capacities
        from repro.arch.hierarchy import with_capacities

        base = networks.mesh(2, 3)
        topo = with_capacities(
            base,
            Capacities.from_spec(
                {"slots": {"demand": "unit", "cap": 8.0},
                 "mem": {"demand": "weight", "cap": 12.0}},
                base.processors,
            ),
        )
        tg = _ring()
        scn = generate_scenario(tg, topo, seed=17, n_events=25)
        s = MappingSession(tg, topo, SessionConfig(checkpoint_every=0))
        s.run(scn.events)
        # validate() enforces the vectors on the final served mapping.
        s.mapping.validate(require_routes=True)
