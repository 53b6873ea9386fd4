"""The delta-gain refiner's move-gain product is blocked by elements.

``_delta_gain_arrays`` evaluates the (node x processor) cost matrix a row
block at a time; a block spans ``_BLOCK_ELEMS // processors`` rows, so its
memory is bounded on a large machine too, and the block size never shows
in the result.
"""

import random

import numpy as np

from repro.mapper import refine
from tests.test_refine_scan import local_graph, run, traced_peak_mb


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
    cost matrix; a 512-row block is 4 MB."""
    rng = random.Random(3)
    n, n_procs = 8192, 1024
    graph = local_graph(rng, n)
    proc = scrambled_blocks(rng, n, n_procs, 64)
    D = ring_distances(n_procs)
    run(graph, proc, D, n, max_passes=1)  # scipy.sparse imported
    assert traced_peak_mb(lambda: run(graph, proc, D, n, max_passes=1)) < 24.0


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
