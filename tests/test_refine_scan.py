"""The pruned all-pairs swap scan against the dense one it replaced.

``repro.mapper.refine._swap_candidates`` finds every improving swap from
(node x processor) arrays; ``tests/oracles/refine_reference.py`` is the
n x n scan it replaced.  The two must return equal arrays -- indices and
gains compared with ``==``, the gains are the same sums in the same order
-- and a whole ``_delta_gain_arrays`` run must end in the same assignment,
move count and gain whichever of them it scans with.  The at-scale mappings
are pinned to ``tests/data/refine_scale_pr18.json``, captured at the parent
commit by ``tests/data/capture_refine_scale.py``.
"""

import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import networks
from repro.arch.capacity import Headroom
from repro.arch.hierarchy import fat_tree
from repro.mapper import refine
from repro.util import perf
from tests.data import capture_refine_scale as pinned
from tests.oracles.refine_reference import swap_candidates_reference

MACHINES = {
    "mesh": lambda: networks.mesh(4, 4),
    "hypercube": lambda: networks.hypercube(4),
    "torus": lambda: networks.torus(4, 4),
    "fat_tree": lambda: fat_tree([4, 4]),
}


def distances(machine: str) -> np.ndarray:
    return MACHINES[machine]().distance_matrix()


def csr_from_pairs(n, pairs):
    """Symmetric CSR of ``{(u, v): w}``; a ``(v, v)`` key is a self-loop."""
    rows, cols, vals = [], [], []
    for (u, v), w in pairs.items():
        rows.append(u), cols.append(v), vals.append(w)
        if u != v:
            rows.append(v), cols.append(u), vals.append(w)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows, minlength=n))]
    ).astype(np.intp)
    graph = indptr, cols[order], np.asarray(vals, dtype=np.float64)[order]
    assert_sorted_rows(*graph[:2])
    return graph


def assert_sorted_rows(indptr, indices):
    """The scan's precondition: columns ascend strictly within each row
    (``TaskGraph.csr()`` and every multilevel level are built that way)."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    key = rows * (indptr.size - 1) + indices
    assert np.all(np.diff(key) > 0)


def local_graph(rng, n, *, weight=lambda rng: rng.uniform(0.1, 9.0),
                nodes=None):
    """Mostly-near edges with a few chords, over *nodes* (default: all):
    contiguous blocks are then a reasonable mapping of it."""
    nodes = list(range(n)) if nodes is None else nodes
    pairs = {}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:i + 1 + rng.randint(1, 4)]:
            if rng.random() < 0.7:
                pairs[(u, v)] = weight(rng)
        if rng.random() < 0.2:
            v = rng.choice(nodes)
            if v != u:
                pairs[(min(u, v), max(u, v))] = weight(rng)
    return csr_from_pairs(n, pairs)


def balanced_random(rng, n, n_procs):
    proc = np.arange(n, dtype=np.intp) % n_procs
    rng.shuffle(proc)
    return proc


def both_scans(graph, proc, D):
    indptr, indices, weights = graph
    rows = np.repeat(np.arange(proc.size, dtype=np.intp), np.diff(indptr))
    Df = D.astype(np.float64)
    return (
        refine._swap_candidates(rows, indices, weights, proc, Df),
        swap_candidates_reference(rows, indices, weights, proc, Df),
    )


def assert_same_scan(graph, proc, D):
    """Equal pair lists and gains; returns the pair count."""
    got, want = both_scans(graph, proc, D)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    return int(got[0].size)


def run(graph, proc, D, cap, dem=None, capv=None, **kwargs):
    """A whole refinement; without *dem*/*capv*, on a capacity-free machine."""
    proc = proc.copy()
    if dem is None:
        dem, capv = np.zeros((proc.size, 0)), np.zeros((D.shape[0], 0))
    moves, gain = refine._delta_gain_arrays(
        *graph, np.ones(proc.size, dtype=np.int64), proc, D, cap,
        Headroom.of_nodes(capv, dem, proc), **kwargs
    )
    return proc.tolist(), moves, gain


def assert_same_run(monkeypatch, graph, proc, D, cap, **kwargs):
    """A whole refinement ends the same with either scan; returns moves."""
    got = run(graph, proc, D, cap, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(refine, "_swap_candidates", swap_candidates_reference)
        want = run(graph, proc, D, cap, **kwargs)
    assert got == want
    return got[1]


@pytest.mark.parametrize("machine", sorted(MACHINES))
class TestAgainstTheDenseScan:
    def test_balanced_random_start(self, machine, monkeypatch):
        # Nearly every (node, processor) pair is viable here.
        rng = random.Random(1)
        D = distances(machine)
        graph = local_graph(rng, 240)
        proc = balanced_random(rng, 240, D.shape[0])
        assert assert_same_scan(graph, proc, D) > 240 * 240 // 8
        assert assert_same_run(monkeypatch, graph, proc, D, 15) > 0

    def test_mapped_start(self, machine, monkeypatch):
        rng = random.Random(2)
        D = distances(machine)
        graph = local_graph(rng, 320)
        proc = (np.arange(320, dtype=np.intp) * D.shape[0]) // 320  # blocks
        assert 0 < assert_same_scan(graph, proc, D) < 320 * 320 // 8
        assert assert_same_run(monkeypatch, graph, proc, D, 20) > 0

    def test_processors_without_a_node(self, machine, monkeypatch):
        rng = random.Random(3)
        D = distances(machine)
        graph = local_graph(rng, 90)
        proc = np.asarray([rng.choice((1, 4, 5, 11)) for _ in range(90)],
                          dtype=np.intp)
        assert assert_same_scan(graph, proc, D) > 0
        # Roomy cap: moves into the empty processors and swaps both apply.
        assert assert_same_run(monkeypatch, graph, proc, D, 40) > 0

    def test_ties_in_the_gain(self, machine, monkeypatch):
        # Unit weights on a ring, integer distances: few distinct gains.
        n = 96
        D = distances(machine)
        graph = csr_from_pairs(n, {(v, v + 1): 1.0 for v in range(n - 1)}
                               | {(0, n - 1): 1.0})
        proc = balanced_random(random.Random(11), n, D.shape[0])
        (_, _, gains), _ = both_scans(graph, proc, D)
        assert np.unique(gains).size * 10 < gains.size
        assert_same_scan(graph, proc, D)
        assert assert_same_run(monkeypatch, graph, proc, D, 6) > 0


def test_every_node_on_one_processor(monkeypatch):
    D = distances("mesh")
    graph = local_graph(random.Random(4), 40)
    proc = np.full(40, 3, dtype=np.intp)
    assert assert_same_scan(graph, proc, D) == 0
    assert_same_run(monkeypatch, graph, proc, D, 40)


def test_two_nodes(monkeypatch):
    D = networks.linear(3).distance_matrix()
    graph = csr_from_pairs(3, {(0, 2): 1.5, (1, 2): 0.25})
    proc = np.asarray([2, 0, 0], dtype=np.intp)
    assert assert_same_scan(graph, proc, D) == 1  # 0 <-> 1 helps
    pair = csr_from_pairs(2, {(0, 1): 2.5})
    for start in ([0, 1], [1, 0], [0, 0]):
        start = np.asarray(start, dtype=np.intp)
        assert assert_same_scan(pair, start, D) == 0
        assert_same_run(monkeypatch, pair, start, D, 1)


def test_isolated_nodes(monkeypatch):
    rng = random.Random(5)
    D = distances("torus")
    graph = local_graph(rng, 120, nodes=sorted(rng.sample(range(120), 70)))
    assert (np.diff(graph[0]) == 0).sum() >= 50
    proc = balanced_random(rng, 120, 16)
    assert assert_same_scan(graph, proc, D) > 0
    assert assert_same_run(monkeypatch, graph, proc, D, 8) > 0


def test_zero_weight_and_self_loop_entries(monkeypatch):
    rng = random.Random(6)
    D = distances("hypercube")
    pairs = {(v, v): rng.choice((0.0, 0.75, 3.0)) for v in range(80)}
    for v in range(79):
        pairs[(v, rng.randrange(v + 1, 80))] = rng.choice((0.0, 1.25, 2.5))
    graph = csr_from_pairs(80, pairs)
    assert (graph[2] == 0.0).sum() > 20
    proc = balanced_random(rng, 80, 16)
    assert assert_same_scan(graph, proc, D) > 0
    assert assert_same_run(monkeypatch, graph, proc, D, 5) > 0


def test_summation_order_shows_in_non_integer_weights():
    # The guard the other tests lean on: with these weights the gains are
    # not exactly representable sums, so adding in another order differs.
    rng = random.Random(7)
    graph = local_graph(rng, 200)
    proc = balanced_random(rng, 200, 16)
    (_, _, gains), _ = both_scans(graph, proc, distances("mesh"))
    assert np.any(gains != np.round(gains, 6))


def test_capacity_vectors_gate_the_same_swaps(monkeypatch):
    # The hotspot1024/node_core_tree shape: one demand column, tight caps.
    rng = random.Random(8)
    D = distances("fat_tree")
    n, n_procs = 160, D.shape[0]
    graph = local_graph(rng, n)
    proc = balanced_random(rng, n, n_procs)
    dem = np.asarray([[8.0 if v < 12 else 1.0] for v in range(n)])
    load = np.zeros((n_procs, 1))
    np.add.at(load, proc, dem)
    capv = np.maximum(load, 24.0)
    cap = n // n_procs
    assert assert_same_run(
        monkeypatch, graph, proc, D, cap, dem=dem, capv=capv
    ) > 0
    assert run(graph, proc, D, cap, dem=dem, capv=capv) != run(
        graph, proc, D, cap
    ), "the capacities never bound: the test shows nothing"


@pytest.mark.parametrize("n, dim", [(600, 4), (1200, 6)])
def test_chunked_expansion_at_its_worst(n, dim):
    # n^2 node pairs from n*P viable ones: several chunks of the expansion.
    rng = random.Random(n)
    D = networks.hypercube(dim).distance_matrix()
    n_procs = D.shape[0]
    graph = local_graph(rng, n)
    proc = balanced_random(rng, n, n_procs)
    perf.reset()
    assert assert_same_scan(graph, proc, D) > n * n // 8
    viable = perf.counters()["mapper.refine.swap_viable"]
    assert viable * (n // n_procs) > 2 * 8 * refine._BLOCK  # chunks: > 2


def mapped_2048():
    """32 x 64 stencil in 2 x 4 blocks on ``torus:16x16``, 16 pairs of
    tasks exchanged: a mapped start with something left to find."""
    rng = random.Random(9)
    side, width = 32, 64
    pairs = {}
    for r in range(side):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                pairs[(v, v + 1)] = rng.uniform(0.5, 2.0)
            if r + 1 < side:
                pairs[(v, v + width)] = rng.uniform(0.5, 2.0)
    v = np.arange(side * width)
    proc = ((v // width) // 2 * 16 + (v % width) // 4).astype(np.intp)
    for _ in range(16):
        a, b = rng.sample(range(proc.size), 2)
        proc[a], proc[b] = proc[b], proc[a]
    return csr_from_pairs(proc.size, pairs), proc, networks.torus(16, 16)


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_scan_memory_is_bounded():
    graph, proc, topo = mapped_2048()
    assert proc.size == refine._FULL_SWAP_N
    D = topo.distance_matrix()
    run(graph, proc, D, 8)  # scipy.sparse imported, caches warm
    # The dense scan's 2048 x 2048 arrays took 148 MB here.
    assert traced_peak_mb(lambda: run(graph, proc, D, 8)) < 32.0

    # Worst case for the expansion: stay at or under what the dense scan
    # took on the same input.
    rng = random.Random(10)
    graph = local_graph(rng, 1200)
    start = balanced_random(rng, 1200, 64)
    rows = np.repeat(np.arange(1200, dtype=np.intp), np.diff(graph[0]))
    Df = networks.hypercube(6).distance_matrix().astype(np.float64)
    args = rows, graph[1], graph[2], start, Df
    pruned = traced_peak_mb(lambda: refine._swap_candidates(*args))
    dense = traced_peak_mb(lambda: swap_candidates_reference(*args))
    assert pruned <= dense


def test_scan_runs_up_to_the_limit_and_not_above(monkeypatch):
    graph, proc, topo = mapped_2048()
    D = topo.distance_matrix()
    assert assert_same_scan(graph, proc, D) > 0
    assert assert_same_run(monkeypatch, graph, proc, D, 8, max_passes=1) > 0

    # One more (isolated) node: adjacent swaps only, the scan never runs.
    def never(*args):
        raise AssertionError("all-pairs scan above _FULL_SWAP_N")

    monkeypatch.setattr(refine, "_swap_candidates", never)
    indptr = np.append(graph[0], graph[0][-1])
    assert run((indptr, *graph[1:]), np.append(proc, 0), D, 9)[1] > 0
    with pytest.raises(AssertionError, match="all-pairs scan"):
        run(graph, proc, D, 8)


def test_selectivity_counters_are_exact_and_repeat():
    graph, proc, topo = mapped_2048()
    D = topo.distance_matrix()
    seen = []
    for _ in range(2):
        perf.reset()
        _, moves, _ = run(graph, proc, D, 8)
        counters = perf.counters()
        seen.append({
            name: counters[f"mapper.refine.swap_{name}"]
            for name in ("scans", "viable", "candidates", "applied")
        })
    assert seen[0] == seen[1]
    first = seen[0]
    assert first["scans"] >= 1
    assert first["viable"] < proc.size * 256 // 8  # the pruning prunes
    assert 0 < first["applied"] <= moves
    assert first["applied"] <= first["candidates"]
    got, _ = both_scans(graph, proc, D)
    assert first["candidates"] >= got[0].size  # the first scan's share


@st.composite
def small_problems(draw):
    n = draw(st.integers(2, 24))
    topo = draw(st.sampled_from([
        networks.hypercube(1), networks.hypercube(3), networks.mesh(2, 3),
        networks.ring(5), networks.linear(4),
    ]))
    weight = st.one_of(
        st.integers(0, 4).map(float),
        st.floats(0.0, 10.0, allow_nan=False, allow_subnormal=False),
    )
    pairs = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
            lambda uv: (min(uv), max(uv))),
        weight, max_size=3 * n,
    ))
    proc = draw(st.lists(
        st.integers(0, topo.n_processors - 1), min_size=n, max_size=n))
    cap = draw(st.integers(1, n))
    return csr_from_pairs(n, pairs), np.asarray(proc, dtype=np.intp), topo, cap


@given(problem=small_problems())
@settings(max_examples=150, deadline=None)
def test_property_scan_and_run_match_the_dense_scan(problem):
    graph, proc, topo, cap = problem
    D = topo.distance_matrix()
    assert_same_scan(graph, proc, D)
    with pytest.MonkeyPatch.context() as patch:
        assert_same_run(patch, graph, proc, D, max(cap, np.bincount(proc).max()))


@pytest.mark.parametrize("label", sorted(pinned.INSTANCES))
def test_at_scale_mappings_match_the_parent(label):
    golden = json.loads(
        Path(pinned.HERE, "refine_scale_pr18.json").read_text()
    )
    assert pinned.capture_instance(label) == golden[label]
