"""Step memoization must be invisible: cached and uncached runs agree exactly.

The simulator solves each distinct step (phase set) once and reuses the
outcome.  These tests pin the semantics-preservation contract on the
paper's workloads: every field of :class:`SimulationResult` --
``total_time``, ``step_times``, ``link_busy``, ``proc_busy``, ``messages``,
``phase_time`` -- must be *bit-identical* between :func:`repro.sim.simulate`
and ``tests.oracles.simulate_uncached`` (every step solved afresh), under
both switching modes.
"""

import gc
import weakref

import pytest

from repro.arch import networks
from repro.graph import families
from repro.graph.phase_expr import Rep
from repro.larcs import stdlib
from repro.mapper import map_computation
from repro.sim import CostModel, simulate
from tests.oracles import simulate_uncached

WORKLOADS = [
    ("jacobi8x8", lambda: stdlib.load("jacobi", rows=8, cols=8, msize=4),
     lambda: networks.mesh(4, 4)),
    ("fft64", lambda: stdlib.load("fft", m=6, msize=4),
     lambda: networks.hypercube(4)),
    ("nbody63", lambda: families.nbody(63, volume=4.0),
     lambda: networks.hypercube(4)),
]

SWITCHING = ["store_and_forward", "cut_through"]


def assert_identical(a, b):
    assert a.total_time == b.total_time
    assert a.step_times == b.step_times
    assert a.link_busy == b.link_busy
    assert a.proc_busy == b.proc_busy
    assert a.messages == b.messages
    assert a.phase_time == b.phase_time


@pytest.mark.parametrize("switching", SWITCHING)
@pytest.mark.parametrize("name,tg_fn,topo_fn", WORKLOADS)
def test_memoized_equals_uncached(name, tg_fn, topo_fn, switching):
    tg, topo = tg_fn(), topo_fn()
    mapping = map_computation(tg, topo)
    model = CostModel(hop_latency=1.0, byte_time=0.5, exec_time=0.05,
                      switching=switching)
    memo = simulate(mapping, model)
    plain = simulate_uncached(mapping, model)
    assert_identical(memo, plain)
    assert memo.total_time > 0


@pytest.mark.parametrize("switching", SWITCHING)
def test_repeated_phase_expression(switching):
    """A 50x-repeated step sequence exercises the cache heavily."""
    tg = stdlib.load("jacobi", rows=4, cols=4, msize=2)
    tg.phase_expr = Rep(tg.phase_expr, 50)
    mapping = map_computation(tg, networks.mesh(2, 2))
    model = CostModel(switching=switching)
    memo = simulate(mapping, model)
    plain = simulate_uncached(mapping, model)
    assert_identical(memo, plain)
    # Each of the 5 distinct steps recurs 50 times.
    assert len(memo.step_times) == 250


def test_memoized_repetitions_scale_linearly():
    """k repetitions of a step sequence cost exactly k times one pass."""
    def run(reps):
        tg = families.ring(8, volume=2.0)
        tg.phase_expr = Rep(tg.phase_expr, reps)
        mapping = map_computation(tg, networks.hypercube(3))
        return simulate(mapping)

    one, ten = run(1), run(10)
    assert ten.total_time == pytest.approx(10 * one.total_time)
    assert ten.messages == 10 * one.messages


def test_simulate_result_equality_object():
    """The dataclass equality used elsewhere covers every field."""
    tg = families.ring(6)
    mapping = map_computation(tg, networks.hypercube(3))
    assert simulate(mapping) == simulate_uncached(mapping)


@pytest.mark.parametrize("switching", SWITCHING)
def test_compiled_tables_do_not_keep_the_mapping_alive(switching):
    """The per-mapping compiled-table cache must die with its mapping: a
    process that simulates candidate after candidate gives each one back."""
    tg = stdlib.load("jacobi", rows=4, cols=4, msize=2)
    mapping = map_computation(tg, networks.mesh(2, 2))
    model = CostModel(switching=switching)
    candidate = mapping.copy()
    assert_identical(simulate(candidate, model), simulate(mapping, model))
    gone = weakref.ref(candidate)
    del candidate
    gc.collect()
    assert gone() is None
