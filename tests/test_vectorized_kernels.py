"""Vectorized-kernel equivalence tests (PR 2).

Every production kernel -- the integer-indexed NN-Embed, the table-driven
MM-Route, the bincount METRICS accumulation -- must produce bit-identical
results to its executable specification in ``tests/oracles/`` across the
graph families x topology grid.  These tests pin that contract.
"""

import pytest

from repro.arch import networks
from repro.arch.capacity import Capacities
from repro.arch.hierarchy import with_capacities
from repro.arch.topology import Topology
from repro.graph import families
from repro.mapper import map_computation
from repro.mapper.contraction import mwm_contract
from repro.mapper.embedding.nn_embed import assignment_from_clusters, nn_embed
from repro.mapper.routing.mm_route import mm_route
from repro.metrics.analysis import MappingMetrics, analyze
from repro.sim import CostModel, simulate
from tests.oracles import (
    mm_route_reference,
    nn_embed_reference,
    phase_link_metrics_reference,
)

FAMILIES = [
    ("ring", lambda: families.ring(16)),
    ("torus", lambda: families.torus(4, 4)),
    ("hypercube", lambda: families.hypercube(4)),
    ("butterfly", lambda: families.fft_butterfly(16)),
    ("binomial_tree", lambda: families.binomial_tree(5)),
]

TOPOLOGIES = [
    ("mesh4x4", lambda: networks.mesh(4, 4)),
    ("hypercube4", lambda: networks.hypercube(4)),
]

GRID = [
    pytest.param(tg_fn, topo_fn, id=f"{fam}-{topo}")
    for fam, tg_fn in FAMILIES
    for topo, topo_fn in TOPOLOGIES
]


class TestTopologyVectorCore:
    def test_distance_matrix_matches_distance(self):
        topo = networks.torus(4, 4)
        D = topo.distance_matrix()
        assert D.shape == (16, 16)
        for u in topo.processors:
            for v in topo.processors:
                assert D[topo.index_of(u), topo.index_of(v)] == topo.distance(u, v)

    def test_distance_matrix_is_cached(self):
        topo = networks.hypercube(3)
        assert topo.distance_matrix() is topo.distance_matrix()

    def test_index_bijection(self):
        topo = networks.mesh(3, 5)
        for i, p in enumerate(topo.processors):
            assert topo.index_of(p) == i
            assert topo.proc_by_index(i) == p
        assert topo.proc_indices == {p: i for i, p in enumerate(topo.processors)}

    def test_degree_array(self):
        topo = networks.star(5)
        degrees = topo.degree_array()
        assert [int(degrees[topo.index_of(p)]) for p in topo.processors] == [
            topo.degree(p) for p in topo.processors
        ]

    def test_next_hop_links_matches_next_hops(self):
        topo = networks.hypercube(3)
        for src in topo.processors:
            for dst in topo.processors:
                table = topo.next_hop_links(topo.index_of(src), topo.index_of(dst))
                expected = [
                    (topo.index_of(nb), topo.link_id(src, nb))
                    for nb in topo.next_hops(src, dst)
                ]
                assert list(table) == expected


class TestNnEmbedEquivalence:
    @pytest.mark.parametrize("tg_fn,topo_fn", GRID)
    def test_bit_identical_placements(self, tg_fn, topo_fn):
        tg, topo = tg_fn(), topo_fn()
        clusters = mwm_contract(tg, topo.n_processors)
        assert nn_embed(tg, clusters, topo) == nn_embed_reference(
            tg, clusters, topo
        )

    def test_singleton_clusters(self):
        tg = families.torus(4, 4)
        topo = networks.torus(4, 4)
        clusters = [[t] for t in tg.nodes]
        assert nn_embed(tg, clusters, topo) == nn_embed_reference(
            tg, clusters, topo
        )

    def test_empty_and_single_cluster(self):
        tg = families.ring(4)
        topo = networks.ring(4)
        assert nn_embed(tg, [], topo) == {}
        whole = [list(tg.nodes)]
        assert nn_embed(tg, whole, topo) == nn_embed_reference(tg, whole, topo)

    def test_capacity_machine(self):
        # Two-task clusters fit the even processors' memory only.
        tg, base = families.hypercube(4), networks.hypercube(4)
        topo = with_capacities(base, Capacities.from_spec({"memory": {
            "demand": "weight", "cap": 1.0,
            "per_proc": [[p, 2.0] for p in base.processors if p % 2 == 0],
        }}, base.processors))
        clusters = mwm_contract(tg, 8)
        placement = nn_embed(tg, clusters, topo)
        assert placement == nn_embed_reference(tg, clusters, topo)
        assert all(p % 2 == 0 for p in placement.values())
        assert placement != nn_embed(tg, clusters, base)  # the vectors bind


class TestMmRouteEquivalence:
    @pytest.mark.parametrize("tg_fn,topo_fn", GRID)
    def test_bit_identical_routes(self, tg_fn, topo_fn):
        tg, topo = tg_fn(), topo_fn()
        clusters = mwm_contract(tg, topo.n_processors)
        assignment = assignment_from_clusters(
            clusters, nn_embed(tg, clusters, topo)
        )
        table = mm_route(tg, topo, assignment)
        ref = mm_route_reference(tg, topo, assignment)
        assert table.routes == ref.routes
        assert table.rounds == ref.rounds

    def test_contended_scatter(self):
        # Everything hammers one star hub: many matching rounds per hop.
        tg = families.complete(6)
        topo = networks.star(6)
        assignment = {i: i for i in range(6)}
        table = mm_route(tg, topo, assignment)
        ref = mm_route_reference(tg, topo, assignment)
        assert table.routes == ref.routes
        assert table.rounds == ref.rounds

    def test_string_labels_route_deterministically(self):
        # Labels whose reprs sort differently from their indices ("p10" <
        # "p2" lexicographically) -- the old repr tie-break was fragile
        # here; link ids are label-agnostic.
        procs = [f"p{i}" for i in range(12)]
        topo = Topology(
            "ring12s", [(procs[i], procs[(i + 1) % 12]) for i in range(12)]
        )
        tg = families.complete(12)
        assignment = {i: procs[i] for i in range(12)}
        first = mm_route(tg, topo, assignment)
        again = mm_route(tg, topo, assignment)
        ref = mm_route_reference(tg, topo, assignment)
        assert first.routes == again.routes == ref.routes
        assert first.rounds == again.rounds == ref.rounds


class TestAnalyzeEquivalence:
    @pytest.mark.parametrize("tg_fn,topo_fn", GRID)
    def test_bit_identical_metrics(self, tg_fn, topo_fn):
        tg, topo = tg_fn(), topo_fn()
        mapping = map_computation(tg, topo)
        metrics = analyze(mapping)
        ref = MappingMetrics()
        phase_link_metrics_reference(mapping, ref)
        assert metrics.phase_links == ref.phase_links
        assert metrics.total_ipc == ref.total_ipc

    def test_sim_reuse_skips_resimulation(self):
        mapping = map_computation(families.nbody(15), networks.hypercube(3))
        model = CostModel()
        sim = simulate(mapping, model)
        reused = analyze(mapping, model, sim=sim)
        fresh = analyze(mapping, model)
        assert reused == fresh
        assert reused.estimated_completion_time == sim.total_time
