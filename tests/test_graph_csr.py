"""Tests for the CSR static-graph bundle (:mod:`repro.graph.csr`).

The contract under test: :meth:`TaskGraph.csr` is the flat-array twin of
``static_graph()`` -- same folded undirected weights bit for bit, same
edge iteration order, plus the raw directed message stream -- cached
behind the same mutation counter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import TaskGraph, families
from repro.graph.csr import CSRGraph
from repro.larcs import stdlib

INDEX_ARRAYS = ("src", "dst", "edge_u", "edge_v", "indices")
ARRAYS = INDEX_ARRAYS + (
    "node_weights", "vol", "edge_w", "indptr", "weights"
)

FAMILY_GRID = [
    ("ring", lambda: families.ring(17)),
    ("mesh", lambda: families.mesh(5, 7)),
    ("torus", lambda: families.torus(4, 6)),
    ("hypercube", lambda: families.hypercube(4)),
    ("butterfly", lambda: families.fft_butterfly(16)),
    ("binomial_tree", lambda: families.binomial_tree(5)),
    ("nbody", lambda: families.nbody(9)),
    ("rgg", lambda: families.random_geometric(60, seed=3)),
    ("kron", lambda: families.kron(6, edge_factor=8, seed=1)),
]


def directed_stream(tg):
    """The declaration-order message stream straight off the phases."""
    idx = tg.task_index()
    out = []
    for ph in tg.comm_phases.values():
        for e in ph.edges:
            out.append((idx[e.src], idx[e.dst], e.volume))
    return out


@pytest.mark.parametrize("name,make", FAMILY_GRID, ids=[n for n, _ in FAMILY_GRID])
class TestCsrMatchesNx:
    def test_task_bijection(self, name, make):
        tg = make()
        csr = tg.csr()
        assert csr.tasks == tuple(tg.nodes)
        assert csr.n == tg.n_tasks
        assert all(csr.index[t] == i for i, t in enumerate(csr.tasks))
        assert csr.index is tg.task_index()  # one dict, not a copy

    def test_folded_pairs_match_static_graph_exactly(self, name, make):
        """Same pairs, same order, bit-identical accumulated weights."""
        tg = make()
        csr = tg.csr()
        idx = tg.task_index()
        nx_edges = [
            (idx[u], idx[v], d["weight"])
            for u, v, d in tg.static_graph().edges(data=True)
        ]
        nx_edges = [(min(u, v), max(u, v), w) for u, v, w in nx_edges]
        got = list(
            zip(csr.edge_u.tolist(), csr.edge_v.tolist(), csr.edge_w.tolist())
        )
        assert got == nx_edges  # exact ==, including float bits

    def test_directed_stream_is_declaration_order(self, name, make):
        tg = make()
        csr = tg.csr()
        want = directed_stream(tg)
        got = list(zip(csr.src.tolist(), csr.dst.tolist(), csr.vol.tolist()))
        assert got == want

    def test_adjacency_is_symmetric_with_ascending_columns(self, name, make):
        tg = make()
        csr = tg.csr()
        assert csr.indptr.shape == (csr.n + 1,)
        assert csr.indptr[0] == 0 and csr.indptr[-1] == csr.nnz
        assert csr.nnz == 2 * csr.edge_u.size
        pw = csr.pair_weight_map()
        for u in range(csr.n):
            cols = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
            ws = csr.weights[csr.indptr[u] : csr.indptr[u + 1]]
            assert np.all(np.diff(cols) > 0)  # strictly ascending, no loops
            for v, w in zip(cols.tolist(), ws.tolist()):
                assert pw[(min(u, v), max(u, v))] == w

    def test_degrees_match_static_graph(self, name, make):
        tg = make()
        csr = tg.csr()
        G = tg.static_graph()
        idx = tg.task_index()
        want = np.zeros(csr.n, dtype=np.intp)
        for t in tg.nodes:
            want[idx[t]] = G.degree(t)
        assert np.array_equal(csr.degrees(), want)

    def test_node_weights(self, name, make):
        tg = make()
        csr = tg.csr()
        assert csr.node_weights.tolist() == [tg.node_weight(t) for t in tg.nodes]

    def test_index_arrays_are_int32_and_every_array_read_only(self, name, make):
        csr = make().csr()
        for field in INDEX_ARRAYS:
            assert getattr(csr, field).dtype == np.int32, field
        assert csr.indptr.dtype == np.intp
        for field in ARRAYS:
            assert not getattr(csr, field).flags.writeable, field
        with pytest.raises(ValueError, match="read-only"):
            csr.edge_w[:1] = 0.0


def test_identity_fold_shares_the_stream():
    """A random geometric graph declares each pair once, lower endpoint
    first, in fold order: the folded pairs are the stream's arrays."""
    csr = families.random_geometric(60, seed=3).csr()
    assert csr.edge_u is csr.src
    assert csr.edge_v is csr.dst
    assert csr.edge_w is csr.vol


@pytest.mark.parametrize("make", [
    lambda: families.mesh(5, 7),
    lambda: stdlib.load("jacobi", rows=4, cols=4),
    lambda: families.kron(6, edge_factor=8, seed=1),
], ids=["mesh", "jacobi", "kron"])
def test_merging_fold_keeps_its_own_arrays(make):
    """Antiparallel messages fold into one pair: nothing is shared."""
    csr = make().csr()
    assert csr.edge_u.size < csr.src.size
    assert csr.edge_u is not csr.src
    assert csr.edge_v is not csr.dst
    assert csr.edge_w is not csr.vol


class TestCsrCaching:
    def test_cached_behind_mutation_counter(self):
        tg = families.ring(8)
        first = tg.csr()
        assert tg.csr() is first  # cache hit
        tg.add_node("extra")
        second = tg.csr()
        assert second is not first
        assert second.n == first.n + 1

    def test_edge_append_invalidates(self):
        tg = families.ring(8)
        first = tg.csr()
        ph = next(iter(tg.comm_phases.values()))
        ph.add(0, 4, 3.0)
        second = tg.csr()
        assert second is not first
        assert second.vol.size == first.vol.size + 1
        assert second.pair_weight_map()[(0, 4)] == 3.0

    def test_empty_and_edgeless_graphs(self):
        tg = TaskGraph("empty")
        csr = tg.csr()
        assert isinstance(csr, CSRGraph)
        assert csr.n == 0 and csr.nnz == 0
        tg2 = TaskGraph("lonely")
        tg2.add_nodes(range(3))
        csr2 = tg2.csr()
        assert csr2.n == 3 and csr2.nnz == 0
        assert csr2.indptr.tolist() == [0, 0, 0, 0]


@given(
    n=st.integers(min_value=1, max_value=12),
    edges=st.lists(
        st.tuples(
            st.integers(0, 11),
            st.integers(0, 11),
            st.floats(0.125, 100.0, allow_nan=False, width=32),
        ),
        max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_random_multigraph_fold_matches_nx(n, edges):
    """Parallel/antiparallel/self-loop soup folds identically to nx."""
    tg = TaskGraph("rand")
    tg.add_nodes(range(n))
    ph = tg.add_comm_phase("c")
    for u, v, w in edges:
        ph.add(u % n, v % n, float(w))
    csr = tg.csr()
    G = tg.static_graph()
    got = {
        (min(u, v), max(u, v)): w
        for u, v, w in zip(
            csr.edge_u.tolist(), csr.edge_v.tolist(), csr.edge_w.tolist()
        )
    }
    want = {
        (min(u, v), max(u, v)): d["weight"]
        for u, v, d in G.edges(data=True)
        if u != v
    }
    assert got == want  # keys and float bits
    # Directed stream keeps the self-loops the fold drops.
    loops = sum(1 for u, v, _ in edges if u % n == v % n)
    assert int(np.sum(csr.src == csr.dst)) == loops
