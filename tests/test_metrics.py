"""Tests for the METRICS suite (analysis, report, session)."""

import pytest

from repro.arch import networks
from repro.graph import families
from repro.larcs import stdlib
from repro.mapper import map_computation
from repro.metrics import (
    EditSession,
    analyze,
    focus_link,
    focus_processor,
    render_report,
)
from repro.metrics.report import compare_mappings


def nbody_mapping():
    return map_computation(families.nbody(15), networks.hypercube(3))


class TestAnalyze:
    def test_load_metrics(self):
        m = nbody_mapping()
        metrics = analyze(m)
        assert sum(metrics.tasks_per_processor.values()) == 15
        assert metrics.max_tasks == 2 and metrics.min_tasks == 1
        assert metrics.load_imbalance >= 1.0

    def test_exec_time_per_processor(self):
        m = nbody_mapping()
        metrics = analyze(m)
        # The family constructor's compute1 and compute2 cost 1 per task.
        for proc, n_tasks in metrics.tasks_per_processor.items():
            assert metrics.exec_time_per_processor[proc] == pytest.approx(
                n_tasks * 2.0
            )

    def test_dilation_matches_distances(self):
        m = nbody_mapping()
        metrics = analyze(m)
        tg, topo = m.task_graph, m.topology
        for phase, pm in metrics.phase_links.items():
            for idx, edge in enumerate(tg.comm_phase(phase).edges):
                expected = topo.distance(m.proc_of(edge.src), m.proc_of(edge.dst))
                assert pm.dilations[idx] == expected

    def test_total_ipc_counts_crossing_volume_only(self):
        tg = families.ring(4)
        # Force MWM so clusters are the contiguous {0,1} and {2,3} (the
        # group path would pick the striped cosets {0,2}, {1,3}).
        m = map_computation(tg, networks.ring(2), strategy="mwm")
        metrics = analyze(m)
        # Ring edges 1->2 and 3->0 cross between the two clusters.
        assert metrics.total_ipc == 2.0

    def test_contention_positive_on_congested_phase(self):
        m = nbody_mapping()
        metrics = analyze(m)
        # 15 chordal messages over 12 links force at least one shared link.
        assert metrics.phase_links["chordal"].max_contention >= 2

    def test_completion_time_positive(self):
        metrics = analyze(nbody_mapping())
        assert metrics.estimated_completion_time > 0

    def test_phase_critical_time_in_metrics_and_report(self):
        m = nbody_mapping()
        metrics = analyze(m)
        assert set(metrics.phase_critical_time) == {
            "ring",
            "chordal",
            "compute1",
            "compute2",
        }
        assert sum(metrics.phase_critical_time.values()) == pytest.approx(
            metrics.estimated_completion_time
        )
        assert "phase times" in render_report(m, metrics)

    def test_empty_phase_defaults(self):
        tg = families.ring(2)
        tg.add_comm_phase("silent")
        m = map_computation(tg, networks.ring(2))
        metrics = analyze(m)
        pm = metrics.phase_links["silent"]
        assert pm.max_contention == 0
        assert pm.average_dilation == 0.0


class TestReport:
    def test_render_contains_sections(self):
        m = nbody_mapping()
        text = render_report(m)
        assert "load balancing" in text
        assert "link metrics" in text
        assert "total IPC" in text
        assert "nbody15" in text

    def test_focus_processor(self):
        m = nbody_mapping()
        text = focus_processor(m, 0)
        assert "processor 0" in text
        assert "phase ring" in text

    def test_focus_link(self):
        m = nbody_mapping()
        text = focus_link(m, 1)
        assert "link 1" in text
        assert "chordal" in text

    def test_report_renders_for_all_stdlib(self):
        for name, kw, topo in [
            ("jacobi", dict(rows=3, cols=3), networks.mesh(3, 3)),
            ("fft", dict(m=3), networks.hypercube(3)),
            ("voting", dict(m=3), networks.hypercube(2)),
        ]:
            m = map_computation(stdlib.load(name, **kw), topo)
            assert render_report(m)


class TestCompareMappings:
    def test_table_structure(self):
        tg = families.nbody(15)
        topo = networks.hypercube(3)
        table = compare_mappings(
            {
                "canned": map_computation(tg, topo),
                "mwm": map_computation(tg, topo, strategy="mwm"),
            }
        )
        assert "canned" in table and "mwm" in table
        assert "total IPC" in table and "est. completion" in table

    def test_single_mapping(self):
        m = map_computation(families.ring(8), networks.hypercube(3))
        assert "strategy" in compare_mappings({"only": m})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_mappings({})

    def test_precomputed_metrics_accepted(self):
        m = map_computation(families.ring(8), networks.hypercube(3))
        table = compare_mappings({"a": m}, {"a": analyze(m)})
        assert "a" in table


class TestSession:
    def test_move_task_updates_assignment_and_routes(self):
        session = EditSession(nbody_mapping())
        before = session.metrics.total_ipc
        target = session.mapping.proc_of(1)
        session.move_task(0, target)
        assert session.mapping.proc_of(0) == target
        session.mapping.validate(require_routes=True)
        assert session.metrics.total_ipc != before or True  # recomputed

    def test_move_task_recomputes_metrics(self):
        session = EditSession(nbody_mapping())
        m1 = session.metrics
        session.move_task(0, session.mapping.proc_of(7))
        m2 = session.metrics
        assert m1 is not m2

    def test_move_unknown_task(self):
        session = EditSession(nbody_mapping())
        with pytest.raises(KeyError):
            session.move_task(99, 0)
        with pytest.raises(KeyError):
            session.move_task(0, 99)

    def test_reroute_valid(self):
        m = map_computation(families.ring(4), networks.complete(4), strategy="mwm")
        session = EditSession(m)
        edge = m.task_graph.comm_phase("ring").edges[0]
        src, dst = m.proc_of(edge.src), m.proc_of(edge.dst)
        if src != dst:
            mid = next(
                p for p in m.topology.processors if p not in (src, dst)
            )
            session.reroute("ring", 0, [src, mid, dst])
            assert session.mapping.routes[("ring", 0)] == [src, mid, dst]

    def test_reroute_invalid_path_rejected(self):
        session = EditSession(nbody_mapping())
        with pytest.raises(ValueError):
            session.reroute("ring", 0, [0, 7])  # 0 and 7 not adjacent in Q3

    def test_reroute_wrong_endpoints_rejected(self):
        session = EditSession(nbody_mapping())
        m = session.mapping
        with pytest.raises(ValueError):
            session.reroute("ring", 0, [m.proc_of(5), m.proc_of(6)])

    def test_undo_restores(self):
        session = EditSession(nbody_mapping())
        orig_proc = session.mapping.proc_of(0)
        orig_routes = dict(session.mapping.routes)
        session.move_task(0, session.mapping.proc_of(7))
        session.undo()
        assert session.mapping.proc_of(0) == orig_proc
        assert session.mapping.routes == orig_routes
        assert session.edits == 0

    def test_undo_empty(self):
        session = EditSession(nbody_mapping())
        with pytest.raises(RuntimeError):
            session.undo()

    def test_report_available(self):
        session = EditSession(nbody_mapping())
        assert "OREGAMI mapping" in session.report()

    def test_user_can_improve_then_measure(self):
        # The METRICS workflow: inspect, tweak, compare.
        session = EditSession(nbody_mapping())
        t0 = session.metrics.estimated_completion_time
        session.move_task(0, session.mapping.proc_of(1))
        t1 = session.metrics.estimated_completion_time
        assert t0 > 0 and t1 > 0
