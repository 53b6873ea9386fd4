"""The one graph core against the networkx reference it replaced.

``Topology`` keeps one adjacency and one all-pairs matrix;
``tests/oracles/topology_reference.py`` is the construction it had on
networkx (node/edge insertion, ``g.edges`` numbering, BFS distance dicts,
label ``next_hops``).  Every numbering a fingerprint, pipeline key or
golden hangs off must agree, machine for machine: the generators at three
sizes each, arbitrary edge lists, and what ``degrade`` makes of them.
``bfs_contract`` is held to the networkx BFS-tree walk the same way.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import cayley_networks, hierarchy, networks, topology
from repro.arch.topology import DisconnectedTopologyError, Topology
from repro.graph import families
from repro.groups import Permutation, PermutationGroup
from repro.mapper.contraction.baselines import bfs_contract
from repro.resilience import FaultSet
from tests.oracles.topology_reference import (
    TopologyReference,
    bfs_contract_reference,
)


class _Recording(Topology):
    """A ``Topology`` that also builds the reference from the same inputs
    (the production class forgets the global link-declaration order)."""

    def __init__(self, name, edges, *, nodes=(), **kwargs):
        edges, nodes = list(edges), list(nodes)
        super().__init__(name, edges, nodes=nodes, **kwargs)
        self.reference = TopologyReference(name, edges, nodes=nodes, **kwargs)


@pytest.fixture
def recording(monkeypatch):
    for module in (networks, cayley_networks, hierarchy):
        monkeypatch.setattr(module, "Topology", _Recording)


def _cyclic(n):
    gen = Permutation([(i + 1) % n for i in range(n)])
    return cayley_networks.cayley_topology(
        PermutationGroup.cyclic(n), [gen, gen.inverse()], name=f"c{n}"
    )


GENERATORS = {
    "ring": (networks.ring, [(3,), (8,), (17,)]),
    "linear": (networks.linear, [(2,), (5,), (12,)]),
    "mesh": (networks.mesh, [(2, 2), (3, 4), (5, 5)]),
    "torus": (networks.torus, [(3, 3), (3, 5), (4, 4)]),
    "hypercube": (networks.hypercube, [(1,), (3,), (5,)]),
    "complete": (networks.complete, [(2,), (5,), (9,)]),
    "star": (networks.star, [(2,), (5,), (9,)]),
    "full_binary_tree": (networks.full_binary_tree, [(1,), (3,), (4,)]),
    "cube_connected_cycles": (networks.cube_connected_cycles, [(3,), (4,), (5,)]),
    "de_bruijn": (networks.de_bruijn, [(2,), (3,), (5,)]),
    "shuffle_exchange": (networks.shuffle_exchange, [(2,), (3,), (5,)]),
    "butterfly": (networks.butterfly, [(1,), (2,), (3,)]),
    "cayley_cyclic": (_cyclic, [(3,), (5,), (12,)]),
    "transposition_star": (cayley_networks.transposition_star, [(3,), (4,), (5,)]),
    "pancake": (cayley_networks.pancake, [(3,), (4,), (5,)]),
    "fat_tree": (hierarchy.fat_tree, [([2, 2],), ([2, 4],), ([2, 2, 3],)]),
    "dragonfly": (hierarchy.dragonfly, [(2, 2), (3, 4), (4, 3)]),
    "node_core_tree": (hierarchy.node_core_tree, [(1, 4), (2, 3), (4, 4)]),
}
CASES = [
    pytest.param(make, args, id=f"{name}{args}")
    for name, (make, sizes) in GENERATORS.items()
    for args in sizes
]


def _pairs(procs, cap=400):
    """All ordered pairs, or a seeded sample of *cap* of them."""
    pairs = [(u, v) for u in procs for v in procs]
    if len(pairs) > cap:
        pairs = random.Random(len(procs)).sample(pairs, cap)
    return pairs


def assert_same(topo, ref, *, own_tables=True):
    """Every label-level answer of *topo* equals the reference's."""
    procs = ref.processors
    assert topo.processors == procs
    assert topo.links == ref.links
    for lid, link in enumerate(ref.links, start=1):
        u, v = tuple(link)
        assert topo.link_id(u, v) == topo.link_id(v, u) == ref.link_id(u, v) == lid
        assert topo.link_by_id(lid) == link
    for p in procs:
        assert topo.neighbors(p) == ref.neighbors(p)
        assert topo.degree(p) == ref.degree(p)
    assert topo.degree_array().tolist() == [ref.degree(p) for p in procs]
    assert topo.is_connected == ref.is_connected
    assert topo.components() == ref.components()
    assert topo.diameter == ref.diameter
    assert topo.link_slowdowns == ref.link_slowdowns
    assert topo.fingerprint() == ref.fingerprint()
    assert topo.structural_key() == ref.structural_key()
    for u in procs:
        for v in procs:
            try:
                want = ref.distance(u, v)
            except KeyError:
                with pytest.raises(DisconnectedTopologyError):
                    topo.distance(u, v)
                with pytest.raises(DisconnectedTopologyError):
                    topo.next_hops(u, v)
                continue
            got = topo.distance(u, v)
            assert got == want and type(got) is int
            assert topo.next_hops(u, v) == ref.next_hops(u, v)
    for u, v in _pairs(procs):
        if v in ref._dist[u]:
            assert topo.shortest_routes(u, v, limit=8) == ref.shortest_routes(
                u, v, limit=8
            )
    if topo.is_connected:
        matrix = topo.distance_matrix()
        assert not matrix.flags.writeable
        for u, v in _pairs(procs):
            i, j = topo.index_of(u), topo.index_of(v)
            assert matrix[i, j] == ref.distance(u, v)
            table = [
                (topo.index_of(nb), ref.link_id(u, nb))
                for nb in ref.next_hops(u, v)
            ]
            # A slowdown-only degrade hands its parent's tables on; they
            # list the same first hops in the parent's neighbour order.
            order = list if own_tables else sorted
            assert order(topo.next_hop_links(i, j)) == order(table)


@pytest.mark.parametrize("make, args", CASES)
def test_generators_match_reference(recording, make, args):
    topo = make(*args)
    topo.reference.link_slowdowns = dict(topo.link_slowdowns)  # set after build
    assert_same(topo, topo.reference)


def _fault_sets(ref, seed):
    """Seeded fault sets over a machine: a processor, a link, slowdowns
    only, and all three at once."""
    rng = random.Random(seed)
    links = [tuple(l) for l in ref.links]
    out = [FaultSet(failed_procs=[rng.choice(ref.processors)])]
    if links:
        picks = rng.sample(links, min(3, len(links)))
        out.append(FaultSet(failed_links=picks[:1]))
        out.append(FaultSet(degraded_links=[(l, 2.5) for l in picks[:2]]))
        victim = rng.choice(ref.processors)
        out.append(FaultSet(
            failed_procs=[victim],
            failed_links=[l for l in picks[:1] if victim not in l],
            degraded_links=[(l, 1.5) for l in picks[1:]],
        ))
    return [f for f in out if len(f.failed_procs) < len(ref.processors)]


def assert_degrades_same(topo, ref, faults):
    sub = topo.degrade(faults, allow_disconnected=True)
    # Slowdowns only: the structure is the parent's, and so are its tables.
    shares = not faults.failed_procs and not faults.failed_links
    assert_same(
        sub, ref.degrade(faults, allow_disconnected=True), own_tables=not shares
    )
    assert (sub._next_hop_table is topo._next_hop_table) == shares


@pytest.mark.parametrize("make, args", CASES)
def test_degrade_matches_reference(recording, make, args):
    topo = make(*args)
    if topo.n_processors > 1:
        # Warm the caches a slowdown-only child shares with its parent.
        topo.distance_matrix()
        topo.next_hop_links(0, topo.n_processors - 1)
    for faults in _fault_sets(topo.reference, seed=topo.n_links):
        assert_degrades_same(topo, topo.reference, faults)


def _scipy_matrix(topo):
    """The all-pairs matrix the way PR 16 built every one of them."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = topo.n_processors
    ends = [tuple(map(topo.index_of, link)) for link in topo.links]
    rows = [i for i, _ in ends] + [j for _, j in ends]
    cols = [j for _, j in ends] + [i for i, _ in ends]
    adj = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    return shortest_path(adj, method="D", unweighted=True)


def _fresh_hops(topo):
    """``_hops()`` computed now, not handed over by a cache."""
    topology.DIST_MATRIX_CACHE.clear()
    topo._dist_matrix = None
    return topo._hops()


def assert_matrix_as_scipy(topo):
    got, want = _fresh_hops(topo), _scipy_matrix(topo)
    assert not got.flags.writeable
    assert got.dtype == (np.int64 if topo.is_connected else np.float64)
    assert np.array_equal(got, want)  # inf == inf: the same pairs unreachable
    assert np.isinf(want).any() != topo.is_connected


@pytest.mark.parametrize("make, args", CASES)
def test_bfs_matrix_equals_scipy(recording, monkeypatch, make, args):
    topo = make(*args)
    monkeypatch.setattr(topology, "_scipy_hops", None)  # must not be reached
    assert_matrix_as_scipy(topo)
    for faults in _fault_sets(topo.reference, seed=topo.n_links):
        assert_matrix_as_scipy(topo.degrade(faults, allow_disconnected=True))


def test_matrix_is_the_same_on_both_sides_of_the_size_constant(monkeypatch):
    two_islands = Topology(
        "islands", [(0, 1), (1, 2), ("a", "b")], nodes=["alone"],
        allow_disconnected=True,
    )
    for topo in (networks.torus(4, 5), hierarchy.dragonfly(3, 4), two_islands):
        bfs = _fresh_hops(topo)
        monkeypatch.setattr(topology, "_SCIPY_ABOVE", topo.n_processors - 1)
        monkeypatch.setattr(topology, "_bfs_hops", None)
        via_scipy = _fresh_hops(topo)
        monkeypatch.undo()
        assert via_scipy is not bfs and via_scipy.dtype == bfs.dtype
        assert not via_scipy.flags.writeable
        assert np.array_equal(via_scipy, bfs)
    assert np.isinf(bfs).sum() == 6 * 6 - (3 * 3 + 2 * 2 + 1)


def test_size_constant_picks_the_search(monkeypatch):
    calls = []
    for name in ("_bfs_hops", "_scipy_hops"):
        real = getattr(topology, name)
        monkeypatch.setattr(
            topology, name,
            lambda nbrs, name=name, real=real: calls.append(name) or real(nbrs),
        )
    at, above = topology._SCIPY_ABOVE, topology._SCIPY_ABOVE + 1
    small, large = _fresh_hops(networks.ring(at)), _fresh_hops(networks.ring(above))
    assert calls == ["_bfs_hops", "_scipy_hops"]
    for n, mat in ((at, small), (above, large)):
        assert mat.dtype == np.int64 and not mat.flags.writeable
        assert mat[0].tolist() == [min(k, n - k) for k in range(n)]
        assert np.array_equal(mat, mat.T) and mat.max() == n // 2


def test_pickled_topology_carries_the_machine_not_its_tables():
    topo = hierarchy.node_core_tree(4, 4)
    topo.distance_matrix(), topo.degree_array()
    hops = [topo.next_hop_links(0, j) for j in range(topo.n_processors)]
    route = topo.shortest_routes(topo.processors[0], topo.processors[-1])[0]
    links = topo.route_link_ids(route)
    bare = hierarchy.node_core_tree(4, 4)
    bare.structural_key()  # a digest: it travels
    assert len(pickle.dumps(topo)) == len(pickle.dumps(bare))
    back = pickle.loads(pickle.dumps(topo))
    assert back._dist_matrix is None and back._degree_array is None
    assert back._nbr_links is None
    assert back._next_hop_table == {} == back._route_links_cache
    assert topo._next_hop_table and topo._route_links_cache  # the original keeps its own
    assert np.array_equal(back.distance_matrix(), topo.distance_matrix())
    assert back.degree_array().tolist() == topo.degree_array().tolist()
    assert [back.next_hop_links(0, j) for j in range(back.n_processors)] == hops
    assert back.route_link_ids(route) == links
    assert back.fingerprint() == topo.fingerprint()
    assert back.structural_key() == topo.structural_key()
    assert back.hierarchy == topo.hierarchy and back.link_slowdowns == topo.link_slowdowns


labels = st.one_of(
    st.integers(0, 7),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
links = st.tuples(labels, labels).filter(lambda e: e[0] != e[1])


@settings(max_examples=150, deadline=None)
@given(
    edges=st.lists(links, max_size=14),
    repeats=st.lists(st.tuples(st.integers(0, 13), st.booleans()), max_size=6),
    isolated=st.lists(labels, max_size=3),
    seed=st.integers(0, 3),
)
def test_edge_lists_match_reference(edges, repeats, isolated, seed):
    # Declare some links again, as given or reversed, at the end.
    for i, flip in repeats:
        if i < len(edges):
            u, v = edges[i]
            edges = edges + [(v, u) if flip else (u, v)]
    if not edges and not isolated:
        isolated = [0]
    kwargs = dict(nodes=isolated, allow_disconnected=True)
    topo = Topology("drawn", edges, **kwargs)
    ref = TopologyReference("drawn", edges, **kwargs)
    assert_same(topo, ref)
    for faults in _fault_sets(ref, seed):
        assert_degrades_same(topo, ref, faults)
    # Connected or not is decided the same way, with the same count.
    if not ref.is_connected:
        with pytest.raises(DisconnectedTopologyError) as strict:
            Topology("drawn", edges, nodes=isolated)
        assert f"({len(ref.components())} components)" in str(strict.value)


TASK_GRAPHS = {
    "ring": lambda: families.ring(12),
    "nbody": lambda: families.nbody(9),
    "linear": lambda: families.linear(10),
    "mesh": lambda: families.mesh(3, 4),
    "torus": lambda: families.torus(3, 4),
    "hypercube": lambda: families.hypercube(4),
    "full_binary_tree": lambda: families.full_binary_tree(3),
    "binomial_tree": lambda: families.binomial_tree(4),
    "fft_butterfly": lambda: families.fft_butterfly(8),
    "complete": lambda: families.complete(6),
    "star": lambda: families.star(7),
    "random_geometric": lambda: families.random_geometric(60, seed=3),
    "kron": lambda: families.kron(5, 4, seed=1),
}


def test_every_family_generator_is_covered():
    assert set(families.__all__) <= set(TASK_GRAPHS)


@pytest.mark.parametrize("n_procs", [2, 3, 8])
@pytest.mark.parametrize("name", TASK_GRAPHS)
def test_bfs_contract_matches_reference(name, n_procs):
    tg = TASK_GRAPHS[name]()
    assert bfs_contract(tg, n_procs) == bfs_contract_reference(tg, n_procs)
