"""The delta-gain refiner's move-gain product is blocked by elements.

``_delta_gain_arrays`` evaluates the (node x processor) cost matrix a row
block at a time; a block spans ``_BLOCK_ELEMS // processors`` rows, so its
memory is bounded on a large machine too, and the block size never shows
in the result.
"""

import random

import numpy as np

from repro.mapper import refine
from tests.test_refine_scan import local_graph, mapped_2048, run, traced_peak_mb


def ring_distances(n_procs: int) -> np.ndarray:
    i = np.arange(n_procs)
    gap = np.abs(i[:, None] - i[None, :])
    return np.minimum(gap, n_procs - gap).astype(np.float64)


def scrambled_blocks(rng, n, n_procs, swaps):
    """Contiguous runs of ``n // n_procs`` nodes per processor, *swaps*
    pairs of nodes exchanged."""
    proc = (np.arange(n) * n_procs // n).astype(np.intp)
    for _ in range(swaps):
        a, b = rng.sample(range(n), 2)
        proc[a], proc[b] = proc[b], proc[a]
    return proc


def test_block_memory_is_bounded_on_a_large_machine():
    """8,192 nodes on 1,024 processors: one 8,192-row block was a 64 MB
    cost matrix; a 512-row block is 4 MB.  A block is released before the
    next block's product is allocated, and before the swap pass: with two
    blocks live at once the same run peaked at 2.3 blocks."""
    rng = random.Random(3)
    n, n_procs = 8192, 1024
    graph = local_graph(rng, n)
    proc = scrambled_blocks(rng, n, n_procs, 64)
    D = ring_distances(n_procs)
    run(graph, proc, D, n, max_passes=1)  # scipy.sparse imported
    block_mb = refine._BLOCK_ELEMS * 8 / 1e6
    peak = traced_peak_mb(lambda: run(graph, proc, D, n, max_passes=1))
    assert peak < 1.5 * block_mb


def test_swap_scan_memory_is_one_cost_matrix_at_the_limit():
    """At ``_FULL_SWAP_N`` nodes on 256 processors the scan holds the
    (n x P) matrix G and chunk-sized temporaries.  G beside its grouped
    copy, the gathered minima and their sum peaked at 3.3 matrices; ten
    live node-pair arrays per chunk at 1.84 (7.7 MB); five at 1.59."""
    graph, proc, topo = mapped_2048()
    n, n_procs = proc.size, topo.n_processors
    assert (n, n_procs) == (refine._FULL_SWAP_N, 256)
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(graph[0]))
    Df = topo.distance_matrix().astype(np.float64)
    args = rows, graph[1], graph[2], proc, Df
    refine._swap_candidates(*args)  # scipy.sparse imported
    matrix_mb = n * n_procs * 8 / 1e6
    assert traced_peak_mb(lambda: refine._swap_candidates(*args)) < 1.65 * matrix_mb


def test_block_size_does_not_show_in_the_result(monkeypatch):
    """Rows are independent in the product: blocks of 5 rows, of 61 rows
    and the default all end bit-identically, on both sides of the
    all-pairs swap limit."""
    rng = random.Random(4)
    for n, n_procs in ((1500, 64), (3000, 32)):
        graph = local_graph(rng, n)
        proc = scrambled_blocks(rng, n, n_procs, n // 10)
        D = ring_distances(n_procs)
        want = run(graph, proc, D, n // n_procs + 2)
        assert want[1] > 0
        for rows in (5, 61):
            with monkeypatch.context() as patch:
                patch.setattr(refine, "_BLOCK_ELEMS", rows * n_procs)
                assert run(graph, proc, D, n // n_procs + 2) == want


def test_a_second_pass_holds_nothing_of_the_first():
    """Above ``_FULL_SWAP_N`` nodes (adjacent swaps), a pass refills its
    move-gain arrays in place and drops its swap arrays before the next
    pass's product: two passes peak no higher than one plus one
    edge-length array.  With the first pass's swap gains, endpoints and
    selection still live, the second pass's product sat on top of them."""
    rng = random.Random(5)
    n, n_procs = 6000, 64
    graph = local_graph(rng, n)
    proc = scrambled_blocks(rng, n, n_procs, n // 10)
    D = ring_distances(n_procs)
    cap = n // n_procs + 2
    assert run(graph, proc, D, cap, max_passes=2)[1] > run(
        graph, proc, D, cap, max_passes=1
    )[1]  # the second pass has work to do
    one = traced_peak_mb(lambda: run(graph, proc, D, cap, max_passes=1))
    two = traced_peak_mb(lambda: run(graph, proc, D, cap, max_passes=2))
    assert two <= one + graph[1].size * 8 / 1e6
