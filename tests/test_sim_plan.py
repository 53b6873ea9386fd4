"""One message plan per routed mapping.

The simulator splits its compiled state in two: a model-free message plan
built once per mapping (``engine.message_plan``: link-id tables and
per-edge hop counts) and a pricing per (cost model, slowdowns) that holds
only execution tables.  Under test: every cost model,
``simulate``, ``step_cost`` and METRICS read the one plan; every result
still equals the uncached oracle; the plan is what a second cost model
does *not* pay for again; and an unrouted edge or an edit in place cannot
leave a caller reading the wrong tables.
"""

import gc
import random
import tracemalloc

import pytest

from repro.arch import networks
from repro.graph import families
from repro.graph.phase_expr import Rep, parse_phase_expr
from repro.larcs import stdlib
from repro.mapper import map_computation
from repro.mapper.aggregate import add_aggregation_phase
from repro.mapper.mapping import Mapping
from repro.metrics import EditSession, analyze
from repro.metrics.analysis import MappingMetrics
from repro.sim import CostModel, simulate, step_cost
from repro.sim import engine
from tests.oracles import simulate_uncached
from tests.oracles.metrics import phase_link_metrics_reference

SWITCHING = ("store_and_forward", "cut_through")


def models(seed: int = 7) -> list[CostModel]:
    """The default model and four drawn ones, each in both switching
    modes -- the grid a cost-model sweep prices one mapping under."""
    rng = random.Random(seed)
    triples = [(1.0, 1.0, 1.0)] + [
        tuple(round(rng.uniform(0.5, 2.0), 3) for _ in range(3))
        for _ in range(4)
    ]
    return [CostModel(h, b, e, sw) for h, b, e in triples for sw in SWITCHING]


def parallel_jacobi(reps: int):
    """Jacobi whose steps run several comm phases at once (merged message
    lists) next to one-phase steps, repeated *reps* times."""
    tg = stdlib.load("jacobi", rows=4, cols=4)
    tg.phase_expr = Rep(
        parse_phase_expr("(north || south); (east || west || relax); north"),
        reps,
    )
    return tg


def fft_repeated(reps: int):
    tg = stdlib.load("fft", m=3)
    tg.phase_expr = Rep(tg.phase_expr, reps)
    return tg


MAPPINGS = {
    "jacobi-parallel-short/mesh2x2": lambda: map_computation(
        parallel_jacobi(2), networks.mesh(2, 2)),
    "jacobi-parallel-long/mesh2x2": lambda: map_computation(
        parallel_jacobi(120), networks.mesh(2, 2)),
    "fft-long/hypercube2": lambda: map_computation(
        fft_repeated(100), networks.hypercube(2)),
    "ring16/mesh2x4": lambda: map_computation(
        families.ring(16), networks.mesh(2, 4)),
}


def steps_of(mapping):
    tg = mapping.task_graph
    if tg.phase_expr is not None:
        return tg.phase_expr.linearize()
    return [frozenset(tg.phase_names)]


def slowdowns_for(mapping):
    n = mapping.topology.n_links
    return {lid: 1.5 + 0.25 * lid for lid in range(1, n + 1, 2)}


# ---------------------------------------------------------------------------
# (a) one plan, every model
# ---------------------------------------------------------------------------
class TestOnePlan:
    @pytest.mark.parametrize("name", sorted(MAPPINGS))
    def test_every_model_prices_the_same_plan(self, name):
        mapping = MAPPINGS[name]()
        plan = engine.message_plan(mapping)
        tables = None
        for slow in (None, slowdowns_for(mapping)):
            for model in models():
                simulate(mapping, model, link_slowdowns=slow)
                compiled = engine._compiled_for(mapping, model, slow)
                assert compiled.plan is plan
                assert engine.message_plan(mapping) is plan
                if tables is None:
                    tables = {n: plan.comm_table(n)
                              for n in mapping.task_graph.comm_phase_names}
        # No model built message tables of its own: the tables the first
        # model built are the very objects every later model used.
        for n, table in tables.items():
            assert plan.comm_table(n) is table
        # Twenty pricings (ten models, with and without slowdowns).
        # The entry is [edits, plan, pricings, validated].
        assert len(engine._COMPILED_CACHE[mapping][2]) == 20

    def test_a_copy_gets_its_own_plan(self):
        mapping = MAPPINGS["ring16/mesh2x4"]()
        dup = mapping.copy()
        assert engine.message_plan(dup) is not engine.message_plan(mapping)

    def test_step_cost_reads_the_plan_simulate_built(self):
        mapping = MAPPINGS["jacobi-parallel-short/mesh2x2"]()
        simulate(mapping)
        plan = engine.message_plan(mapping)
        built = dict(plan._phases)
        for model in models():
            step_cost(mapping, model, {"north", "south"})
        assert plan._phases == built
        assert all(plan._phases[n] is built[n] for n in built)
        assert engine.message_plan(mapping) is plan

    def test_dropped_mapping_drops_its_plan(self):
        mapping = MAPPINGS["ring16/mesh2x4"]()
        simulate(mapping)
        plan = engine.message_plan(mapping)
        assert mapping in engine._COMPILED_CACHE
        del mapping
        gc.collect()
        # The plan holds its mapping weakly, so nothing kept it alive.
        assert plan.mapping is None


# ---------------------------------------------------------------------------
# (b) results equal the uncached oracle
# ---------------------------------------------------------------------------
class TestSharedPlanResults:
    @pytest.mark.parametrize("name", sorted(MAPPINGS))
    def test_both_engines_equal_the_oracle(self, name):
        """The event loop, read directly and through ``simulate``, against
        the oracle's own step solver, under every model of the grid."""
        mapping = MAPPINGS[name]()
        steps = steps_of(mapping)
        for slow in (None, slowdowns_for(mapping)):
            for model in models():
                compiled = engine._compiled_for(mapping, model, slow)
                oracle = simulate_uncached(mapping, model, link_slowdowns=slow)
                assert engine._event_loop(compiled, steps) == oracle
                assert simulate(mapping, model, link_slowdowns=slow) == oracle

    def test_pricing_order_does_not_matter(self):
        """A model priced after nine others reads exactly what it reads
        on a fresh plan."""
        shared = MAPPINGS["jacobi-parallel-long/mesh2x2"]()
        grid = models()
        for model in grid:
            simulate(shared, model)
        for model in reversed(grid):
            fresh = shared.copy()
            assert simulate(fresh, model) == simulate(shared, model)


# ---------------------------------------------------------------------------
# (c) METRICS reads the plan
# ---------------------------------------------------------------------------
class TestMetricsReadThePlan:
    @pytest.mark.parametrize("name", sorted(MAPPINGS))
    @pytest.mark.parametrize("simulated_first", [True, False])
    def test_phase_links_equal_the_reference(self, name, simulated_first):
        mapping = MAPPINGS[name]()
        if simulated_first:
            for model in models():
                simulate(mapping, model)
        expected = MappingMetrics()
        phase_link_metrics_reference(mapping, expected)
        for model in models()[:2]:
            got = analyze(mapping, model)
            assert got.phase_links == expected.phase_links
            assert got.total_ipc == expected.total_ipc
        plan = engine.message_plan(mapping)
        for n, pm in got.phase_links.items():
            assert pm.dilations is not plan.dilations(n)

    def test_intra_processor_edges_keep_dilation_zero(self):
        tg = stdlib.load("jacobi", rows=4, cols=4)
        mapping = map_computation(tg, networks.mesh(2, 2))
        simulate(mapping)
        metrics = analyze(mapping)
        dil = metrics.phase_links["north"].dilations
        assert len(dil) == len(tg.comm_phase("north").edges)
        assert 0 in dil and max(dil) >= 1


# ---------------------------------------------------------------------------
# (d) retention: prices grow per model, the plan does not
# ---------------------------------------------------------------------------
def _traced_bytes(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keep = fn()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del keep
    return after - before


def test_compiled_state_for_ten_models_is_not_ten_copies():
    mapping = map_computation(
        families.random_geometric(2000, seed=1), networks.parse_topology("torus:8x8")
    )
    grid = models(1)
    # Fill the topology's shared route caches first, on a throwaway copy.
    simulate(mapping.copy(), grid[0])

    def priced(count):
        def run():
            dup = mapping.copy()
            for model in grid[:count]:
                simulate(dup, model)
            return dup
        return run

    one = _traced_bytes(priced(1))
    ten = _traced_bytes(priced(10))
    assert one > 0
    assert ten <= 2.5 * one, (one, ten)


# ---------------------------------------------------------------------------
# plan building names what is missing
# ---------------------------------------------------------------------------
class TestUnroutedEdges:
    def unrouted(self):
        tg = stdlib.load("jacobi", rows=4, cols=4)
        topo = networks.mesh(2, 2)
        routed = map_computation(tg, topo)
        return Mapping(tg, topo, dict(routed.assignment))

    def test_step_cost_names_the_phase_and_edge(self):
        mapping = self.unrouted()
        with pytest.raises(ValueError, match="edge 0 of phase 'north'"):
            step_cost(mapping, CostModel(), {"north"})

    def test_first_unrouted_edge_is_named(self):
        tg = stdlib.load("jacobi", rows=4, cols=4)
        topo = networks.mesh(2, 2)
        routed = map_computation(tg, topo)
        routes = {k: r for k, r in routed.routes.items() if k != ("north", 3)}
        mapping = Mapping(tg, topo, dict(routed.assignment), routes)
        with pytest.raises(ValueError, match="edge 3 of phase 'north'"):
            step_cost(mapping, CostModel(), {"north"})
        # The phases that are routed still price.
        assert step_cost(mapping, CostModel(), {"south"}) > 0

    def test_simulate_says_the_same(self):
        mapping = self.unrouted()
        with pytest.raises(ValueError, match="edge 0 of phase 'north'"):
            simulate(mapping)


# ---------------------------------------------------------------------------
# edits in place
# ---------------------------------------------------------------------------
class TestEditSession:
    def test_reroute_is_simulated_with_the_new_route(self):
        m = map_computation(families.ring(4), networks.complete(4), strategy="mwm")
        session = EditSession(m)
        before = session.metrics.estimated_completion_time
        idx, edge = next(
            (i, e) for i, e in enumerate(m.task_graph.comm_phase("ring").edges)
            if m.proc_of(e.src) != m.proc_of(e.dst)
        )
        src, dst = m.proc_of(edge.src), m.proc_of(edge.dst)
        mid = next(p for p in m.topology.processors if p not in (src, dst))
        after = session.reroute("ring", idx, [src, mid, dst])
        fresh = analyze(session.mapping.copy())
        assert after.phase_links == fresh.phase_links
        assert after.estimated_completion_time == fresh.estimated_completion_time
        assert after.estimated_completion_time > before
        undone = session.undo()
        assert undone.estimated_completion_time == before


class TestRawEdits:
    """Writes that go around ``EditSession``: the mapping's dicts stamp
    them, so the plan, its pricings and the validation memo follow."""

    def jacobi(self):
        tg = stdlib.load("jacobi", rows=4, cols=4)
        m = map_computation(tg, networks.parse_topology("mesh:2x2"))
        assert m.routes[("north", 4)] == [2, 0]
        assert simulate(m).total_time == 32.0
        assert analyze(m).average_dilation == pytest.approx(1 / 3)
        return m

    def test_valid_reroute_in_place_is_simulated_and_analyzed(self):
        m = self.jacobi()
        m.routes[("north", 4)] = [2, 3, 1, 0]
        got = simulate(m)
        assert got.total_time == 36.0
        assert got == simulate(m.copy()) == simulate_uncached(m)
        metrics = analyze(m)
        assert metrics.average_dilation == 0.375
        assert metrics == analyze(m.copy())

    def test_moving_a_task_but_not_its_routes_fails_validation(self):
        m = self.jacobi()
        task = next(t for t in m.task_graph.nodes if m.proc_of(t) != 3)
        m.assignment[task] = 3
        with pytest.raises(ValueError, match="does not connect"):
            simulate(m)

    def test_raw_delete_makes_simulate_and_the_pipeline_revalidate(
        self, monkeypatch
    ):
        """A delete paired with an insert keeps the table's size, which a
        size token could not tell from no edit at all."""
        from repro.metrics import analysis
        from repro.pipeline import RunConfig, run_pipeline

        def corrupt(m):
            del m.routes[("north", 4)]
            m.routes[("north", 4)] = [0]  # edge 4 runs from processor 2

        m = self.jacobi()
        assert engine.validated_by_simulate(m)
        corrupt(m)
        assert not engine.validated_by_simulate(m)
        with pytest.raises(ValueError, match="does not connect"):
            simulate(m)

        real = analysis.analyze

        def analyze_then_corrupt(mapping, model=None, *, sim=None):
            metrics = real(mapping, model, sim=sim)
            corrupt(mapping)
            return metrics

        monkeypatch.setattr(analysis, "analyze", analyze_then_corrupt)
        tg = stdlib.load("jacobi", rows=4, cols=4)
        with pytest.raises(ValueError, match="does not connect"):
            run_pipeline(tg, networks.parse_topology("mesh:2x2"), RunConfig())


class TestAggregationPhase:
    def test_added_phase_is_simulated_and_analyzed(self):
        tg = families.ring(16)
        tg.phase_expr = None  # every phase, the added one too, in one step
        m = map_computation(tg, networks.mesh(2, 4))
        for model in models()[:2]:
            simulate(m, model)
        analyze(m)
        add_aggregation_phase(m, root=0, volume=2.0)
        for model in models()[:2]:
            assert simulate(m, model) == simulate_uncached(m, model)
        expected = MappingMetrics()
        phase_link_metrics_reference(m, expected)
        got = analyze(m)
        assert "aggregate" in got.phase_links
        assert got.phase_links == expected.phase_links
        assert got.estimated_completion_time == analyze(m.copy()).estimated_completion_time
