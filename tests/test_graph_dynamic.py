"""Tests for dynamic spawning (repro.graph.dynamic)."""

import networkx as nx
import pytest

from repro.arch import networks
from repro.graph import families
from repro.graph.dynamic import (
    IncrementalMapper,
    SpawnPattern,
    binomial_spawner,
    full_binary_spawner,
)
from repro.mapper import map_computation
from repro.mapper.contraction.mwm import total_ipc


class TestSpawnPatterns:
    def test_full_binary_unfold_matches_family(self):
        dyn = full_binary_spawner(3).unfold()
        fam = families.full_binary_tree(3)
        assert set(dyn.nodes) == set(fam.nodes)
        assert set(dyn.comm_phase("spawn").pairs()) == set(
            fam.comm_phase("down").pairs()
        )

    def test_binomial_unfold_matches_family(self):
        dyn = binomial_spawner(5).unfold()
        fam = families.binomial_tree(5)
        assert set(dyn.nodes) == set(fam.nodes)
        assert set(dyn.comm_phase("spawn").pairs()) == set(
            fam.comm_phase("divide").pairs()
        )

    def test_unfold_is_tree(self):
        tg = full_binary_spawner(4).unfold()
        assert nx.is_tree(tg.static_graph())

    def test_merge_mirrors_spawn(self):
        tg = binomial_spawner(4).unfold()
        spawn = set(tg.comm_phase("spawn").pairs())
        merge = set(tg.comm_phase("merge").pairs())
        assert merge == {(v, u) for u, v in spawn}

    def test_depth_zero(self):
        tg = full_binary_spawner(0).unfold()
        assert tg.n_tasks == 1 and tg.n_edges == 0

    def test_duplicate_label_rejected(self):
        bad = SpawnPattern("bad", 0, lambda t, d: [0], steps=2)
        with pytest.raises(ValueError, match="re-spawns"):
            bad.unfold()

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            full_binary_spawner(-1)
        with pytest.raises(ValueError):
            binomial_spawner(-2)

    def test_phase_expression(self):
        tg = full_binary_spawner(2).unfold()
        steps = tg.phase_expr.linearize()
        assert [sorted(s)[0] for s in steps] == ["spawn", "work", "merge"]


class TestIncrementalMapper:
    def test_online_mapping_valid(self):
        pattern = binomial_spawner(5)
        mapper = IncrementalMapper(networks.hypercube(3))
        mapping = mapper.run(pattern)
        mapping.validate(require_routes=True)
        assert mapping.provenance == "incremental"
        assert len(mapping.assignment) == 32

    def test_load_balanced(self):
        pattern = full_binary_spawner(4)  # 31 tasks
        mapper = IncrementalMapper(networks.hypercube(3))
        mapping = mapper.run(pattern)
        sizes = [len(ts) for ts in mapping.clusters().values()]
        assert max(sizes) - min(sizes) <= 1

    def test_capacity_respected(self):
        pattern = full_binary_spawner(3)  # 15 tasks
        mapper = IncrementalMapper(networks.hypercube(2), capacity=4)
        mapping = mapper.run(pattern)
        assert all(len(ts) <= 4 for ts in mapping.clusters().values())

    def test_capacity_exhausted(self):
        mapper = IncrementalMapper(networks.ring(2), capacity=1)
        mapper.place_root(0)
        mapper.spawn(0, 1)
        with pytest.raises(RuntimeError, match="capacity"):
            mapper.spawn(0, 2)

    def test_root_placement_unique(self):
        mapper = IncrementalMapper(networks.ring(4))
        mapper.place_root(0)
        with pytest.raises(RuntimeError):
            mapper.place_root(1)

    def test_spawn_requires_placed_parent(self):
        mapper = IncrementalMapper(networks.ring(4))
        mapper.place_root(0)
        with pytest.raises(KeyError):
            mapper.spawn(99, 1)
        with pytest.raises(ValueError):
            mapper.spawn(0, 0)  # already placed

    def test_children_stay_near_parents_when_space(self):
        # With ample capacity on a large ring, the first child of the root
        # lands on the root's processor or a neighbour.
        mapper = IncrementalMapper(networks.ring(16))
        root_proc = mapper.place_root(0)
        child_proc = mapper.spawn(0, 1)
        assert mapper.topology.distance(root_proc, child_proc) <= 1

    def test_online_vs_offline_quality(self):
        # The online mapping cannot beat the offline MWM contraction, but
        # must stay within a reasonable factor on IPC.
        pattern = binomial_spawner(6)
        tg = pattern.unfold()
        online = IncrementalMapper(networks.hypercube(3)).run(pattern)
        offline = map_computation(tg, networks.hypercube(3), strategy="mwm")

        def ipc(mapping):
            clusters = list(mapping.clusters().values())
            return total_ipc(tg, clusters)

        assert ipc(online) <= 4 * max(ipc(offline), 1.0)


class TestIncrementalMapperCapacities:
    """Vector-capacity gating of online placement (PR 10)."""

    @staticmethod
    def _machine(base, spec):
        from repro.arch.capacity import Capacities
        from repro.arch.hierarchy import with_capacities

        return with_capacities(
            base, Capacities.from_spec(spec, base.processors)
        )

    def test_unit_resource_bounds_tasks_per_proc(self):
        topo = self._machine(
            networks.hypercube(2),
            {"slots": {"demand": "unit", "cap": 4.0}},
        )
        mapper = IncrementalMapper(topo)  # topology capacities picked up
        mapping = mapper.run(full_binary_spawner(3))  # 15 tasks on 4 procs
        assert all(len(ts) <= 4 for ts in mapping.clusters().values())

    def test_weight_resource_bounds_consumed_demand(self):
        topo = self._machine(
            networks.ring(4),
            {"mem": {"demand": "weight", "cap": 3.0}},
        )
        mapper = IncrementalMapper(topo)
        mapper.place_root(0, weight=2.0)
        for child in (1, 2, 3):
            mapper.spawn(0, child, weight=2.0)
        loads = {}
        for task, proc in mapper.assignment.items():
            loads[proc] = loads.get(proc, 0.0) + 2.0
        assert max(loads.values()) <= 3.0  # one weight-2 task per proc
        with pytest.raises(RuntimeError, match="spare capacity"):
            mapper.spawn(0, 4, weight=2.0)

    def test_partial_headroom_blocks_placement(self):
        # slots would admit 4 tasks per proc, but mem admits only one
        # weight-2 task: the tighter resource governs.
        topo = self._machine(
            networks.ring(2),
            {"slots": {"demand": "unit", "cap": 4.0},
             "mem": {"demand": "weight", "cap": 2.5}},
        )
        mapper = IncrementalMapper(topo)
        mapper.place_root(0, weight=2.0)
        mapper.spawn(0, 1, weight=2.0)   # lands on the other proc
        procs = set(mapper.assignment.values())
        assert len(procs) == 2
        with pytest.raises(RuntimeError, match="spare capacity"):
            mapper.spawn(0, 2, weight=2.0)
        # A light task still fits on either processor's remaining mem.
        mapper.spawn(0, 3, weight=0.5)

    def test_scalar_bound_still_works_on_capacity_machine(self):
        topo = self._machine(
            networks.ring(4),
            {"slots": {"demand": "unit", "cap": 16.0}},
        )
        mapper = IncrementalMapper(topo, capacity=1)
        mapper.place_root(0)
        mapper.spawn(0, 1)
        mapper.spawn(0, 2)
        mapper.spawn(0, 3)
        with pytest.raises(RuntimeError, match="spare capacity"):
            mapper.spawn(0, 4)
