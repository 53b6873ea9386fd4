"""Tests for repro.arch.topology."""

import pytest
from hypothesis import given, strategies as st

from repro.arch import networks
from repro.arch.topology import DisconnectedTopologyError, Topology


class TestConstruction:
    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            Topology("bad", [(0, 1), (2, 3)])

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Topology("bad", [(0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Topology("bad", [])

    def test_single_node(self):
        t = Topology("solo", [], nodes=[0])
        assert t.n_processors == 1 and t.n_links == 0

    def test_counts(self):
        t = networks.hypercube(3)
        assert t.n_processors == 8
        assert t.n_links == 12


class TestLinks:
    def test_link_ids_one_based_and_unique(self):
        t = networks.hypercube(3)
        ids = {t.link_id(u, v) for u, v in (tuple(l) for l in t.links)}
        assert ids == set(range(1, 13))

    def test_link_id_orientation_free(self):
        t = networks.ring(5)
        assert t.link_id(0, 1) == t.link_id(1, 0)

    def test_link_by_id_roundtrip(self):
        t = networks.mesh(2, 3)
        for link in t.links:
            u, v = tuple(link)
            assert t.link_by_id(t.link_id(u, v)) == link

    def test_missing_link(self):
        t = networks.ring(6)
        with pytest.raises(KeyError):
            t.link_id(0, 3)

    def test_has_link(self):
        t = networks.ring(4)
        assert t.has_link(0, 1) and not t.has_link(0, 2)

    def test_route_links_cached_results_are_fresh_lists(self):
        t = networks.ring(6)
        route = [0, 1, 2]
        first = t.route_links(route)
        first.append(999)  # caller-side mutation must not poison the cache
        assert t.route_links(route) == [t.link_id(0, 1), t.link_id(1, 2)]

    def test_route_links_rejects_non_walks(self):
        t = networks.ring(6)
        with pytest.raises(KeyError):
            t.route_links([0, 3])
        # ... including after a valid prefix was cached
        t.route_links([0, 1])
        with pytest.raises(KeyError):
            t.route_links([0, 1, 4])


class TestDistances:
    def test_hypercube_distance_is_hamming(self):
        t = networks.hypercube(4)
        for u in range(16):
            for v in range(16):
                assert t.distance(u, v) == bin(u ^ v).count("1")

    def test_ring_diameter(self):
        assert networks.ring(8).diameter == 4
        assert networks.ring(7).diameter == 3

    def test_mesh_diameter(self):
        assert networks.mesh(3, 4).diameter == 5

    def test_complete_diameter(self):
        assert networks.complete(5).diameter == 1


class TestNextHopsAndRoutes:
    def test_next_hops_empty_at_destination(self):
        t = networks.hypercube(3)
        assert t.next_hops(5, 5) == []

    def test_next_hops_hypercube(self):
        t = networks.hypercube(3)
        # From 0 to 3 (bits 0 and 1 differ): hops via 1 or 2.
        assert sorted(t.next_hops(0, 3)) == [1, 2]

    def test_shortest_routes_count_hypercube(self):
        t = networks.hypercube(3)
        # Distance-2 pairs have exactly 2 shortest routes; distance-3 have 6.
        assert len(t.shortest_routes(0, 3)) == 2
        assert len(t.shortest_routes(0, 7)) == 6

    def test_shortest_routes_all_valid_and_shortest(self):
        t = networks.mesh(3, 3)
        for dst in range(9):
            for route in t.shortest_routes(0, dst):
                assert t.is_valid_route(route)
                assert len(route) - 1 == t.distance(0, dst)
                assert route[0] == 0 and route[-1] == dst

    def test_shortest_routes_trivial(self):
        t = networks.ring(4)
        assert t.shortest_routes(2, 2) == [[2]]

    def test_shortest_routes_limit(self):
        t = networks.hypercube(4)
        assert len(t.shortest_routes(0, 15, limit=5)) == 5

    def test_route_links(self):
        t = networks.ring(4)
        route = [0, 1, 2]
        lids = t.route_links(route)
        assert lids == [t.link_id(0, 1), t.link_id(1, 2)]

    def test_is_valid_route_rejects_jumps(self):
        t = networks.ring(6)
        assert not t.is_valid_route([0, 2])
        assert not t.is_valid_route([])

    @given(st.integers(min_value=2, max_value=5))
    def test_next_hops_reduce_distance(self, dim):
        t = networks.hypercube(dim)
        n = 1 << dim
        for u in range(0, n, max(1, n // 4)):
            for v in range(0, n, max(1, n // 4)):
                if u == v:
                    continue
                for nb in t.next_hops(u, v):
                    assert t.distance(nb, v) == t.distance(u, v) - 1


class TestUnreachablePairs:
    """On an ``allow_disconnected`` machine every distance-shaped query
    answers inside a component and names the pair across components."""

    def two(self):
        return Topology("two", [(0, 1), (2, 3)], allow_disconnected=True)

    @pytest.mark.parametrize("query", ["distance", "next_hops", "shortest_routes"])
    def test_unreachable_pair_raises_the_named_error(self, query):
        with pytest.raises(DisconnectedTopologyError) as err:
            getattr(self.two(), query)(0, 3)
        assert "0" in str(err.value) and "3" in str(err.value)
        assert "'two'" in str(err.value)

    def test_reachable_pairs_still_answer(self):
        t = self.two()
        assert t.distance(2, 3) == 1 and t.distance(1, 1) == 0
        assert t.next_hops(0, 1) == [1]
        assert t.shortest_routes(3, 2) == [[3, 2]]
        assert t.diameter == 1  # the maximum over connected pairs

    @pytest.mark.parametrize("query", ["distance", "next_hops", "shortest_routes"])
    def test_unknown_processor_stays_a_key_error(self, query):
        for pair in ((0, 9), (9, 0)):
            with pytest.raises(KeyError):
                getattr(self.two(), query)(*pair)
