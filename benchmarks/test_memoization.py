"""Microbenchmark for the step-memoized simulation kernel.

An iterative computation repeats the same synchronous step structure many
times (the paper's n-body sweeps, Jacobi relaxation rounds, ...), so the
simulator's per-step memoization should collapse a ``(steps)^k`` phase
expression to one event-loop evaluation per *distinct* step.  The
acceptance bar for PR 1: at least a 5x wall-clock win on a 100x-repeated
Jacobi sweep, with bit-identical results.

The uncached side is ``tests.oracles.simulate_uncached`` -- the event loop
run on every step, which is what the simulator would cost without its step
cache.
"""

import time

from repro.arch import networks
from repro.graph.phase_expr import Rep
from repro.larcs import stdlib
from repro.mapper import map_computation
from repro.sim import CostModel, simulate
from tests.oracles import simulate_uncached

MODEL = CostModel(hop_latency=1.0, byte_time=0.5, exec_time=0.05)


def repeated_jacobi(reps=100):
    tg = stdlib.load("jacobi", rows=8, cols=8, msize=4)
    tg.phase_expr = Rep(tg.phase_expr, reps)
    return map_computation(tg, networks.mesh(4, 4))


def best_of(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_repeated_phase_speedup(benchmark):
    mapping = repeated_jacobi(100)
    memoized = benchmark(lambda: simulate(mapping, MODEL))
    plain = simulate_uncached(mapping, MODEL)
    assert memoized == plain  # every SimulationResult field identical

    t_memo = best_of(lambda: simulate(mapping, MODEL))
    t_plain = best_of(lambda: simulate_uncached(mapping, MODEL))
    speedup = t_plain / t_memo
    print(f"jacobi8x8 x100: memoized {t_memo * 1e3:.2f}ms vs "
          f"uncached {t_plain * 1e3:.2f}ms ({speedup:.1f}x)")
    benchmark.extra_info["speedup_vs_uncached"] = round(speedup, 2)
    assert speedup >= 5.0, f"memoization speedup only {speedup:.2f}x"


def test_speedup_grows_with_repetitions(benchmark):
    """More repetitions amortise better: 500x should beat 50x's ratio."""

    def ratios():
        out = []
        for reps in (50, 500):
            mapping = repeated_jacobi(reps)
            t_memo = best_of(lambda: simulate(mapping, MODEL), 3)
            t_plain = best_of(lambda: simulate_uncached(mapping, MODEL), 3)
            out.append((reps, t_plain / t_memo))
        return out

    rows = benchmark.pedantic(ratios, rounds=1, iterations=1)
    for reps, ratio in rows:
        print(f"  {reps:4d} repetitions: {ratio:.1f}x")
    assert rows[1][1] >= rows[0][1] * 0.8  # amortisation (noise-tolerant)
