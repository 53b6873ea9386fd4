"""Tests for the multilevel strategy and delta-gain refinement (PR 7).

Covers the opt-in ``multilevel`` mapping strategy (coarsen / pack /
uncoarsen-and-refine), the standalone :func:`repro.mapper.refine.refine`
delta-gain pass, the widened ``MapConfig.refine`` knob, and the
``map.*`` perf counters surfaced through the metrics JSON.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import networks
from repro.graph import TaskGraph, families
from repro.larcs import stdlib
from repro.mapper import map_computation
from repro.mapper.contraction.multilevel import multilevel_assignment
from repro.mapper.refine import refine
from repro.metrics import analyze, comm_cost
from repro.metrics.analysis import metrics_to_dict
from repro.pipeline.config import MapConfig, RunConfig


def loads(assignment):
    out = collections.Counter()
    for proc in assignment.values():
        out[proc] += 1
    return out


def check_valid(tg, topology, assignment, bound):
    assert set(assignment) == set(tg.nodes)
    assert set(assignment.values()) <= set(topology.processors)
    assert max(loads(assignment).values()) <= bound


class TestMultilevelAssignment:
    def test_small_mesh_valid_and_balanced(self):
        tg = stdlib.load("jacobi", rows=8, cols=8)
        topo = networks.hypercube(4)
        assignment, stats = multilevel_assignment(tg, topo)
        check_valid(tg, topo, assignment, bound=4)
        assert stats["map.coarsen_levels"] >= 1

    def test_respects_explicit_load_bound(self):
        tg = stdlib.load("jacobi", rows=6, cols=6)
        topo = networks.hypercube(3)
        assignment, _ = multilevel_assignment(tg, topo, load_bound=6)
        check_valid(tg, topo, assignment, bound=6)

    def test_infeasible_bound_raises(self):
        tg = stdlib.load("jacobi", rows=4, cols=4)
        with pytest.raises(ValueError):
            multilevel_assignment(tg, networks.hypercube(2), load_bound=3)

    def test_deterministic_across_runs(self):
        tg = families.random_geometric(300, seed=7)
        topo = networks.torus(4, 4)
        a1, s1 = multilevel_assignment(tg, topo)
        a2, s2 = multilevel_assignment(tg, topo)
        assert a1 == a2
        assert s1 == s2

    def test_fewer_tasks_than_procs(self):
        tg = families.ring(5)
        topo = networks.hypercube(3)
        assignment, _ = multilevel_assignment(tg, topo)
        check_valid(tg, topo, assignment, bound=1)

    def test_matches_or_beats_mwm_on_kilotask_grid(self):
        """The PR 7 acceptance bar: no worse than the portfolio's best."""
        tg = stdlib.load("jacobi", rows=25, cols=40)  # 1000 tasks
        topo = networks.hypercube(6)
        ml = map_computation(tg, topo, strategy="multilevel", route=False)
        mwm = map_computation(
            tg, topo, strategy="mwm", route=False, refine=True
        )
        assert comm_cost(ml) <= comm_cost(mwm)


class TestMultilevelStrategy:
    def test_forced_via_dispatch(self):
        tg = stdlib.load("jacobi", rows=6, cols=6)
        m = map_computation(tg, networks.hypercube(4), strategy="multilevel")
        assert m.provenance == "multilevel"
        m.validate(require_routes=True)

    def test_not_in_auto_chain(self):
        # auto on a canned-eligible input must not pick multilevel
        m = map_computation(families.ring(8), networks.hypercube(3))
        assert m.provenance == "canned"

    def test_stats_flow_to_mapping(self):
        tg = stdlib.load("jacobi", rows=6, cols=6)
        m = map_computation(tg, networks.hypercube(4), strategy="multilevel")
        assert m.map_stats["map.coarsen_levels"] >= 1
        assert "map.refine_moves" in m.map_stats

    def test_counters_surface_in_metrics_json(self):
        tg = stdlib.load("jacobi", rows=6, cols=6)
        m = map_computation(tg, networks.hypercube(4), strategy="multilevel")
        out = metrics_to_dict(analyze(m), m)
        counters = out["overall"]["map_counters"]
        assert counters["map.coarsen_levels"] >= 1
        assert counters["map.refine_moves"] >= 0

    def test_other_strategies_emit_no_counters(self):
        m = map_computation(families.ring(8), networks.hypercube(3))
        assert "map_counters" not in metrics_to_dict(analyze(m), m)["overall"]


class TestStandaloneRefine:
    def test_never_worsens_and_keeps_bound(self):
        tg = stdlib.load("jacobi", rows=6, cols=6)
        topo = networks.hypercube(4)
        base = map_computation(tg, topo, strategy="mwm", route=False)
        out = refine(base, "delta_gain")
        assert comm_cost(out) <= comm_cost(base)
        bound = max(loads(base.assignment).values())
        check_valid(tg, topo, out.assignment, bound)
        assert out.provenance == base.provenance + "+delta_gain"
        # input untouched
        assert base.provenance.endswith("mwm")

    def test_unknown_method_rejected(self):
        base = map_computation(
            families.ring(8), networks.hypercube(3), route=False
        )
        with pytest.raises(ValueError):
            refine(base, "simulated_annealing")

    def test_refine_stats_recorded(self):
        tg = stdlib.load("jacobi", rows=6, cols=6)
        base = map_computation(tg, networks.hypercube(4), strategy="mwm",
                               route=False)
        out = refine(base, "delta_gain")
        assert out.map_stats["map.refine_gain"] >= 0.0


def random_problem():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=24))
        tg = TaskGraph("rand")
        tg.add_nodes(range(n))
        ph = tg.add_comm_phase("c")
        for _ in range(draw(st.integers(0, 3 * n))):
            u = draw(st.integers(0, n - 1))
            v = draw(st.integers(0, n - 1))
            if u != v:
                ph.add(u, v, float(draw(st.integers(1, 9))))
        dim = draw(st.integers(min_value=1, max_value=3))
        return tg, networks.hypercube(dim)

    return build()


@given(problem=random_problem())
@settings(max_examples=40, deadline=None)
def test_delta_gain_property_monotone_and_valid(problem):
    """Refinement never raises aggregate comm cost or breaks the bound."""
    tg, topo = problem
    base = map_computation(tg, topo, strategy="mwm", route=False)
    out = refine(base, "delta_gain")
    assert comm_cost(out) <= comm_cost(base) + 1e-9
    check_valid(tg, topo, out.assignment, max(loads(base.assignment).values()))


@given(problem=random_problem())
@settings(max_examples=25, deadline=None)
def test_multilevel_property_valid_and_deterministic(problem):
    tg, topo = problem
    a1, _ = multilevel_assignment(tg, topo)
    a2, _ = multilevel_assignment(tg, topo)
    assert a1 == a2
    import math

    bound = math.ceil(tg.n_tasks / topo.n_processors)
    check_valid(tg, topo, a1, bound)


class TestRefineConfigKnob:
    @pytest.mark.parametrize("value", [False, True, "none", "kl", "delta_gain"])
    def test_round_trip(self, value):
        cfg = RunConfig(map=MapConfig(refine=value))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.fingerprint()  # fingerprintable

    def test_bool_fingerprints_are_stable_vs_strings(self):
        # the boolean forms predate PR 7; strings must not collide
        fps = {
            RunConfig(map=MapConfig(refine=v)).fingerprint()
            for v in (False, True, "none", "kl", "delta_gain")
        }
        assert len(fps) == 5

    @pytest.mark.parametrize("bad", ["bogus", "KL", "delta-gain", 2])
    def test_rejects_bad_values(self, bad):
        with pytest.raises((ValueError, TypeError)):
            MapConfig(refine=bad)

    def test_from_dict_rejects_bad_refine(self):
        with pytest.raises(ValueError):
            MapConfig.from_dict({"refine": "anneal"})


def test_level_zero_takes_the_csr_arrays(monkeypatch):
    """Level 0's adjacency is the task graph's CSR bundle itself, equal to
    the arrays ``_Level`` builds from the folded pairs, and the clusters are
    the ones a level 0 built that way yields."""
    from repro.mapper.contraction import multilevel

    tg = families.random_geometric(600, seed=3)
    topo = networks.torus(4, 4)
    csr = tg.csr()
    firsts = []
    real_match = multilevel._match

    def spy(level, *args):
        firsts.append(level)
        return real_match(level, *args)

    monkeypatch.setattr(multilevel, "_match", spy)
    assignment, _ = multilevel_assignment(tg, topo)
    level = firsts[0]
    built = multilevel._Level(level.n, level.pu, level.pv, level.pw, level.sizes)
    for name in ("indptr", "indices", "weights"):
        assert getattr(level, name) is getattr(csr, name)
        assert getattr(built, name).dtype == getattr(level, name).dtype
        assert np.array_equal(getattr(built, name), getattr(level, name))

    real_init = multilevel._Level.__init__
    monkeypatch.setattr(
        multilevel._Level, "__init__",
        lambda self, n, pu, pv, pw, sizes, adjacency=None:
            real_init(self, n, pu, pv, pw, sizes),
    )
    assert multilevel_assignment(tg, topo)[0] == assignment
