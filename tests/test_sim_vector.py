"""Equivalence and behaviour tests for the batched numpy step kernel.

The contract under test: the batch kernel (``plan_batch(...).run()``)
produces a :class:`~repro.sim.SimulationResult` whose every field is
*identical* (plain ``==``, no tolerance) to the event loop's -- across
graph families, machines, both switching modes, degraded links, and
arbitrary hypothesis-generated workloads, on runs below *and* above the
size rule that picks between them in production.  Both are also held to
``tests.oracles.simulate_uncached``.  Plus the seams around the kernel:
the FIFO tie-break, the hazard fallback, the size rule itself, the
``sim.kernel_*`` / ``sim.step_cache_*`` perf counters, and the public
``step_cost`` API.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import networks
from repro.arch.topology import Topology
from repro.graph import families
from repro.graph.phase_expr import Rep, parse_phase_expr
from repro.graph.taskgraph import TaskGraph
from repro.mapper import map_computation
from repro.mapper.mapping import Mapping
from repro.sim import CostModel, SimulationResult, simulate, step_cost
from repro.sim import engine
from repro.sim.vector import plan_batch
from repro.util import perf
from tests.invariants import expected_link_busy
from tests.oracles import simulate_uncached

GRAPHS = {
    "ring16": lambda: families.ring(16),
    "torus4x4": lambda: families.torus(4, 4),
    "hypercube4": lambda: families.hypercube(4),
    "butterfly16": lambda: families.fft_butterfly(16),
    "binomial_tree4": lambda: families.binomial_tree(4),
}
TOPOLOGIES = {
    "mesh2x4": lambda: networks.mesh(2, 4),
    "hypercube3": lambda: networks.hypercube(3),
}
SWITCHING = ("store_and_forward", "cut_through")

GRID = [
    pytest.param(g, t, s, id=f"{g}-{t}-{s}")
    for g in GRAPHS
    for t in TOPOLOGIES
    for s in SWITCHING
]


def assert_identical(ref: SimulationResult, vec: SimulationResult):
    """Every result field equal under ``==`` -- the bit-identity contract."""
    assert vec.total_time == ref.total_time
    assert vec.step_times == ref.step_times
    assert vec.link_busy == ref.link_busy
    assert vec.proc_busy == ref.proc_busy
    assert vec.phase_time == ref.phase_time
    assert vec.messages == ref.messages


def both_kernels(mapping, model, link_slowdowns=None):
    """Run each engine directly, whichever side of the size rule the run
    falls on, and hold both to the uncached oracle and to link-busy
    conservation (an expectation computed without the simulator)."""
    mapping.validate(require_routes=True)
    tg = mapping.task_graph
    if tg.phase_expr is not None:
        steps = tg.phase_expr.linearize()
    else:
        steps = [frozenset(tg.phase_names)]
    compiled = engine._compiled_for(mapping, model, link_slowdowns)
    ref = engine._event_loop(compiled, steps)
    vec = plan_batch(compiled, steps).run()
    assert ref.kernel == "reference"
    assert vec.kernel == "vector"
    assert_identical(ref, vec)
    # Per-phase rows: first occurrence, then declaration order within a
    # step -- never the order a step's frozenset happens to iterate.
    order = []
    for step in steps:
        order += [n for n in tg.phase_names if n in step and n not in order]
    assert list(ref.phase_time) == list(vec.phase_time) == order
    assert_identical(
        simulate_uncached(mapping, model, link_slowdowns=link_slowdowns), vec
    )
    conserved = expected_link_busy(mapping, model, link_slowdowns)
    for result in (ref, vec):
        assert result.link_busy.keys() == conserved.keys()
        assert result.link_busy == pytest.approx(conserved, rel=1e-9)
    return ref, vec


class TestGridEquivalence:
    @pytest.mark.parametrize("gname,tname,switching", GRID)
    def test_pristine(self, gname, tname, switching):
        model = CostModel(
            hop_latency=1.0, byte_time=0.5, exec_time=0.25, switching=switching
        )
        # 5 repetitions stay below the size rule, 300 cross it.
        for reps, side in ((5, "reference"), (300, "vector")):
            tg = GRAPHS[gname]()
            tg.phase_expr = Rep(tg.phase_expr, reps)
            m = map_computation(tg, TOPOLOGIES[tname]())
            both_kernels(m, model)
            assert simulate(m, model).kernel == side

    @pytest.mark.parametrize("gname,tname,switching", GRID)
    def test_degraded_links(self, gname, tname, switching):
        tg = GRAPHS[gname]()
        tg.phase_expr = Rep(tg.phase_expr, 3)
        topo = TOPOLOGIES[tname]()
        m = map_computation(tg, topo)
        model = CostModel(
            hop_latency=1.0, byte_time=0.5, exec_time=0.25, switching=switching
        )
        # Degrade a third of the machine's links with distinct factors.
        slowdowns = {lid: 1.5 + 0.25 * lid for lid in range(1, topo.n_links, 3)}
        both_kernels(m, model, link_slowdowns=slowdowns)

    def test_degraded_topology_slowdowns_default(self):
        """A degrade()d machine's own slowdown map feeds both kernels."""
        from repro.resilience import FaultSet

        topo = networks.mesh(2, 4)
        link = next(iter(topo.links))
        faults = FaultSet(degraded_links={tuple(link): 3.0})
        degraded = topo.degrade(faults)
        tg = families.ring(8)
        tg.phase_expr = Rep(tg.phase_expr, 4)
        m = map_computation(tg, degraded)
        both_kernels(m, CostModel(hop_latency=1.0, byte_time=0.5))


# ----------------------------------------------------------------------
# hypothesis: random workloads, both switching modes
# ----------------------------------------------------------------------

def _random_workload(draw):
    n_tasks = draw(st.integers(4, 9))
    tasks = [f"t{i}" for i in range(n_tasks)]
    n_phases = draw(st.integers(1, 3))
    tg = TaskGraph("hyp")
    for t in tasks:
        tg.add_node(t)
    names = []
    for p in range(n_phases):
        name = f"c{p}"
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_tasks - 1),
                    st.integers(0, n_tasks - 1),
                    st.floats(0.125, 16.0, allow_nan=False, allow_infinity=False),
                ),
                min_size=1,
                max_size=8,
            )
        )
        phase = tg.add_comm_phase(name)
        for a, b, vol in edges:
            if a != b:
                phase.add(tasks[a], tasks[b], vol)
        names.append(name)
    tg.add_exec_phase("work", draw(st.floats(0.0, 2.0, allow_nan=False)))
    # Random expression over the phases: sequence of refs/repetitions
    # of parallel groups, e.g. (c0 || work); (c1; c0)^3.
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        group = draw(st.sampled_from(names + ["work"]))
        other = draw(st.sampled_from(names + ["work"]))
        expr = f"({group} || {other})" if group != other else group
        reps = draw(st.integers(1, 4))
        parts.append(f"({expr})^{reps}" if reps > 1 else expr)
    tg.phase_expr = parse_phase_expr("; ".join(parts))
    return tg


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hypothesis_equivalence(data):
    tg = _random_workload(data.draw)
    topo = data.draw(
        st.sampled_from([networks.mesh(2, 2), networks.ring(5), networks.mesh(2, 3)])
    )
    switching = data.draw(st.sampled_from(SWITCHING))
    m = map_computation(tg, topo)
    slowdowns = data.draw(
        st.one_of(
            st.none(),
            st.dictionaries(
                st.integers(1, topo.n_links),
                st.floats(1.0, 4.0, allow_nan=False),
                max_size=topo.n_links,
            ),
        )
    )
    model = CostModel(
        hop_latency=data.draw(st.floats(0.0, 2.0, allow_nan=False)),
        byte_time=data.draw(st.floats(0.0, 2.0, allow_nan=False)),
        exec_time=0.25,
        switching=switching,
    )
    both_kernels(m, model, link_slowdowns=slowdowns)


# ----------------------------------------------------------------------
# deterministic tie-break and hazard fallback
# ----------------------------------------------------------------------

def _manual_mapping(tg, topo, assignment, routes):
    m = Mapping(tg, topo, assignment, provenance="manual")
    m.routes = routes
    return m


class TestFifoTieBreak:
    def test_equal_arrivals_serve_in_message_id_order(self):
        """Two messages hit one link at t=0; the lower id must go first.

        msg 0 (volume 4) continues p0-p1-p2; msg 1 (volume 1) stops at p1.
        If the tie on link (p0, p1) broke the other way, msg 0 would reach
        its second hop later and the step would take longer -- so the
        totals below only hold under the id-order tie-break.
        """
        topo = Topology("path3", [("p0", "p1"), ("p1", "p2")])
        tg = TaskGraph("tie")
        for t in ("a", "b", "far", "near"):
            tg.add_node(t)
        ph = tg.add_comm_phase("c")
        ph.add("a", "far", 4.0)   # msg 0: p0 -> p2
        ph.add("b", "near", 1.0)  # msg 1: p0 -> p1
        tg.phase_expr = parse_phase_expr("c")
        m = _manual_mapping(
            tg,
            topo,
            {"a": "p0", "b": "p0", "far": "p2", "near": "p1"},
            {("c", 0): ["p0", "p1", "p2"], ("c", 1): ["p0", "p1"]},
        )
        model = CostModel(hop_latency=1.0, byte_time=1.0, exec_time=0.0)
        ref, vec = both_kernels(m, model)
        # msg 0 first on (p0,p1): done 5, second hop 5..10; msg 1 queues
        # behind it, 5..7.  (Reversed order would finish at 12.)
        assert vec.total_time == 10.0

    def test_cut_through_launch_order(self):
        topo = Topology("path3", [("p0", "p1"), ("p1", "p2")])
        tg = TaskGraph("tie-ct")
        for t in ("a", "b", "far", "near"):
            tg.add_node(t)
        ph = tg.add_comm_phase("c")
        ph.add("a", "far", 4.0)
        ph.add("b", "near", 1.0)
        tg.phase_expr = parse_phase_expr("c")
        m = _manual_mapping(
            tg,
            topo,
            {"a": "p0", "b": "p0", "far": "p2", "near": "p1"},
            {("c", 0): ["p0", "p1", "p2"], ("c", 1): ["p0", "p1"]},
        )
        model = CostModel(
            hop_latency=1.0, byte_time=1.0, exec_time=0.0, switching="cut_through"
        )
        ref, vec = both_kernels(m, model)
        # msg 0 holds both links 0..6; msg 1 launches at 6, done at 8.
        assert vec.total_time == 8.0


class TestHazardFallback:
    def _inversion_mapping(self):
        """A schedule where round-major order breaks FIFO on a link.

        msg 0 (3 hops, small) reaches link (x2, x3) at its hop 2; msg 1
        (2 hops, huge first hop) reaches the same link at its hop 1 but
        *later*.  The round-major candidate serves msg 1 first (round 1
        precedes round 2), inverting the FIFO order the event loop
        produces -- the kernel must detect this and fall back.
        """
        topo = Topology(
            "hazard", [("x0", "x1"), ("x1", "x2"), ("x2", "x3"), ("y0", "x2")]
        )
        tg = TaskGraph("hazard")
        for t in ("a", "b", "da", "db"):
            tg.add_node(t)
        ph = tg.add_comm_phase("c")
        ph.add("a", "da", 1.0)    # msg 0: x0-x1-x2-x3, per-hop 2
        ph.add("b", "db", 50.0)   # msg 1: y0-x2-x3, per-hop 51
        tg.phase_expr = parse_phase_expr("c")
        return _manual_mapping(
            tg,
            topo,
            {"a": "x0", "b": "y0", "da": "x3", "db": "x3"},
            {("c", 0): ["x0", "x1", "x2", "x3"], ("c", 1): ["y0", "x2", "x3"]},
        )

    def test_fallback_matches_reference(self):
        m = self._inversion_mapping()
        model = CostModel(hop_latency=1.0, byte_time=1.0, exec_time=0.0)
        perf.reset()
        ref, vec = both_kernels(m, model)
        assert perf.counters().get("sim.vector_fallback", 0) >= 1
        # Event-loop semantics: msg 0 arrives at (x2,x3) at t=4 and goes
        # first (4..6); msg 1 arrives at 51, serves 51..102.
        assert vec.total_time == 102.0


# ----------------------------------------------------------------------
# kernel selection, provenance, and the public step API
# ----------------------------------------------------------------------

class TestKernelSelection:
    def test_auto_small_run_uses_reference(self):
        tg = families.ring(4)
        m = map_computation(tg, networks.ring(4))
        assert simulate(m).kernel == "reference"

    def test_auto_large_run_uses_vector(self):
        """Distinct steps are solved once, so 300 repetitions do not
        multiply the hop count -- but they cross the step threshold."""
        tg = families.ring(16)
        tg.phase_expr = Rep(tg.phase_expr, 300)
        m = map_computation(tg, networks.mesh(2, 4))
        assert len(tg.phase_expr.linearize()) >= engine._AUTO_MIN_STEPS
        assert simulate(m).kernel == "vector"

    def test_many_hops_in_few_steps_use_vector(self):
        tg = families.complete(48)
        assert tg.phase_expr is None  # one step running every phase
        m = map_computation(tg, networks.mesh(4, 4))
        hops = engine.message_plan(m).step_hops(frozenset(tg.phase_names))
        assert hops >= engine._AUTO_MIN_HOPS
        assert simulate(m).kernel == "vector"

    def test_perf_counters_record_path(self):
        small = map_computation(families.ring(4), networks.ring(4))
        tg = families.ring(16)
        tg.phase_expr = Rep(tg.phase_expr, 300)
        large = map_computation(tg, networks.mesh(2, 4))
        for m, side in ((small, "reference"), (large, "vector")):
            steps = m.task_graph.phase_expr.linearize()
            perf.reset()
            simulate(m)
            counters = perf.counters()
            assert counters.get(f"sim.kernel_{side}") == 1
            # Both engines solve each distinct step once and say so.
            assert counters["sim.step_cache_miss"] == len(set(steps))
            assert counters["sim.step_cache_hit"] == len(steps) - len(set(steps))


class TestStepCost:
    def test_matches_single_step_simulation(self):
        tg = families.torus(4, 4)
        tg.phase_expr = None  # simulate() treats this as one parallel step
        m = map_computation(tg, networks.mesh(2, 4))
        model = CostModel(hop_latency=1.0, byte_time=0.5, exec_time=0.25)
        expected = simulate_uncached(m, model).step_times[0]
        assert step_cost(m, model) == expected

    def test_subset_of_phases(self):
        tg = families.ring(8)
        m = map_computation(tg, networks.mesh(2, 4))
        model = CostModel(hop_latency=1.0, byte_time=0.5, exec_time=0.25)
        full = step_cost(m, model)
        comm_only = step_cost(m, model, tg.comm_phase_names)
        exec_only = step_cost(m, model, tg.exec_phase_names)
        assert full >= max(comm_only, exec_only)
        assert exec_only > 0

    def test_degraded_links_raise_cost(self):
        tg = families.ring(8)
        m = map_computation(tg, networks.mesh(2, 4))
        model = CostModel(hop_latency=1.0, byte_time=0.5, exec_time=0.0)
        base = step_cost(m, model)
        slow = step_cost(
            m, model, link_slowdowns={lid: 2.0 for lid in range(1, 11)}
        )
        assert slow > base
