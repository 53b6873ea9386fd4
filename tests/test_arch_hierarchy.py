"""Hierarchical machine generators and MachineSpec (repro.arch.hierarchy)."""

import json

import pytest

from repro.arch import networks
from repro.arch.networks import parse_topology, spec_processors
from repro.arch.capacity import Capacities
from repro.arch.hierarchy import (
    MACHINE_FORMAT,
    MachineSpec,
    describe_machine,
    dragonfly,
    fat_tree,
    load_machine,
    node_core_tree,
    parse_machine,
    with_capacities,
)


class TestFatTree:
    def test_two_level_shape(self):
        t = fat_tree([4, 8])
        assert t.n_processors == 32
        # 4 complete groups of 8 leaves plus the complete graph of gateways
        assert t.n_links == 4 * (8 * 7 // 2) + (4 * 3 // 2)
        assert t.family == ("fat_tree", (4, 8))
        assert t.hierarchy["kind"] == "fat_tree"
        assert [lvl["arity"] for lvl in t.hierarchy["levels"]] == [4, 8]

    def test_default_bandwidth_doubles_upward(self):
        t = fat_tree([2, 2])
        # leaf links at bandwidth 1.0 carry no slowdown entry; the top
        # level at 2.0 lowers to factor 0.5
        assert set(t.link_slowdowns.values()) == {0.5}
        top_links = sum(1 for f in t.link_slowdowns.values() if f == 0.5)
        assert top_links == 1  # complete graph over 2 gateways

    def test_explicit_bandwidths(self):
        t = fat_tree([2, 2], bandwidths=[4.0, 1.0])
        assert set(t.link_slowdowns.values()) == {0.25}

    def test_distances_route_through_gateways(self):
        t = fat_tree([2, 2])
        # leaves of one pod are adjacent; crossing pods goes leaf ->
        # gateway -> gateway(-> leaf)
        assert t.distance((0, 0), (0, 1)) == 1
        assert t.distance((0, 0), (1, 0)) == 1  # both are gateways
        assert t.distance((0, 1), (1, 1)) == 3

    def test_bad_arities_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            fat_tree([])
        with pytest.raises(ValueError, match="arity"):
            fat_tree([4, 1])

    def test_bandwidth_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bandwidths"):
            fat_tree([2, 2], bandwidths=[1.0])


class TestDragonfly:
    def test_shape_and_links(self):
        t = dragonfly(3, 4)
        assert t.n_processors == 12
        assert t.n_links == 3 * (4 * 3 // 2) + 3  # local cliques + globals
        assert t.hierarchy["kind"] == "dragonfly"

    def test_global_links_are_slower(self):
        t = dragonfly(3, 4, local_bandwidth=1.0, global_bandwidth=0.5)
        assert set(t.link_slowdowns.values()) == {2.0}
        assert sum(1 for f in t.link_slowdowns.values() if f == 2.0) == 3

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="dragonfly"):
            dragonfly(1, 4)


class TestNodeCoreTree:
    def test_shape(self):
        t = node_core_tree(4, 4)
        assert t.n_processors == 16
        # four crossbars of 6 links plus the 4-gateway ring
        assert t.n_links == 4 * 6 + 4

    def test_two_node_case_has_single_inter_link(self):
        t = node_core_tree(2, 3)
        assert t.n_links == 2 * 3 + 1

    def test_inter_node_links_are_thin(self):
        t = node_core_tree(4, 2, inter_bandwidth=0.25)
        assert set(t.link_slowdowns.values()) == {4.0}

    def test_capacities_attach(self):
        t = node_core_tree(
            2, 2, capacities={"memory": {"demand": "weight", "cap": 8.0}}
        )
        assert t.capacities is not None
        assert t.capacities.cap_for((1, 1)) == (8.0,)


class TestWithCapacities:
    def test_structure_and_slowdowns_preserved(self):
        base = networks.mesh(2, 3)
        capped = with_capacities(base, {"slots": 4})
        assert capped.processors == base.processors
        assert capped.n_links == base.n_links
        assert capped.link_slowdowns == base.link_slowdowns
        assert capped.capacities.cap_for(base.processors[0]) == (4.0,)

    def test_fingerprint_differs_but_structure_key_shared(self):
        base = networks.mesh(2, 3)
        capped = with_capacities(base, {"slots": 4})
        assert capped.fingerprint() != base.fingerprint()
        assert capped.structural_key() == base.structural_key()

    def test_accepts_capacities_instance(self):
        base = networks.ring(4)
        caps = Capacities.uniform(["m"], base.processors, 2.0)
        assert with_capacities(base, caps).capacities is caps


class TestDistanceMatrixCache:
    def test_capacity_variant_shares_the_matrix(self):
        base = networks.mesh(3, 3)
        capped = with_capacities(base, {"slots": 4})
        assert base.distance_matrix() is capped.distance_matrix()

    def test_regenerated_hierarchy_shares_the_matrix(self):
        a = fat_tree([2, 4])
        b = fat_tree([2, 4], bandwidths=[8.0, 1.0])
        assert a.distance_matrix() is b.distance_matrix()

    def test_different_structures_do_not_share(self):
        a = networks.ring(5)
        b = networks.linear(5)
        assert a.distance_matrix() is not b.distance_matrix()

    def test_capacity_only_degrade_keeps_matrix(self):
        from repro.resilience import FaultSet

        t = with_capacities(networks.ring(6), {"slots": 4})
        mat = t.distance_matrix()
        degraded = t.degrade(
            FaultSet(degraded_links=[((0, 1), 2.0)])
        )
        assert degraded.distance_matrix() is mat


class TestMachineSpec:
    def test_parse_generator_spec(self):
        topo = parse_topology("fat_tree:4x8")
        assert topo.family == ("fat_tree", (4, 8))
        assert topo.n_processors == spec_processors("fat_tree:4x8") == 32
        spec = MachineSpec(kind="fat_tree", params={"arities": [4, 8]})
        assert spec.build().fingerprint() == topo.fingerprint()

    def test_parse_dragonfly_and_node_core(self):
        assert parse_topology("dragonfly:3x4").n_processors == 12
        assert parse_topology("node_core_tree:2x8").n_processors == 16

    def test_flat_topology_spec_falls_through(self):
        spec = MachineSpec(kind="topology", params={"spec": "mesh:2x4"})
        assert spec.build().n_processors == 8
        assert spec.build().fingerprint() == parse_machine("mesh:2x4").fingerprint()

    @pytest.mark.parametrize("text", [
        "fat_tree:4x8", "fat_tree:2x3x4", "dragonfly:3x4", "dragonfly:5x1",
        "node_core_tree:2x8", "node_core_tree:1x3", "mesh:2x4", "ccc:3",
    ])
    def test_n_processors_is_what_build_builds(self, text):
        assert spec_processors(text) == parse_topology(text).n_processors
        spec = MachineSpec(kind="topology", params={"spec": text})
        assert spec.n_processors() == spec.build().n_processors

    def test_n_processors_builds_nothing(self):
        assert spec_processors("fat_tree:1000x1000x1000") == 10 ** 9
        assert MachineSpec(
            kind="fat_tree", params={"arities": [1000] * 3}
        ).n_processors() == 10 ** 9
        assert spec_processors("hypercube:40") == 2 ** 40
        with pytest.raises(ValueError, match="bad parameters"):
            MachineSpec(kind="dragonfly", params={"groups": 3}).n_processors()

    def test_bad_sizes_rejected(self):
        for text in ("fat_tree:axb", "dragonfly:3"):
            for fn in (parse_topology, spec_processors):
                with pytest.raises(ValueError, match="bad topology spec"):
                    fn(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown machine kind"):
            MachineSpec(kind="hypertorus")

    def test_dict_round_trip(self):
        spec = MachineSpec(
            kind="node_core_tree",
            params={"nodes": 2, "cores": 4},
            capacities={"memory": {"demand": "weight", "cap": 8.0}},
        )
        doc = spec.to_dict()
        assert doc["format"] == MACHINE_FORMAT
        again = MachineSpec.from_dict(doc)
        assert again == spec
        assert again.build().capacities is not None

    def test_from_dict_rejects_bad_documents(self):
        with pytest.raises(ValueError, match="unsupported machine format"):
            MachineSpec.from_dict({"format": "v0", "kind": "fat_tree"})
        with pytest.raises(ValueError, match="unknown machine spec keys"):
            MachineSpec.from_dict({"kind": "fat_tree", "weird": 1})
        with pytest.raises(ValueError, match="needs a 'kind'"):
            MachineSpec.from_dict({})

    def test_topology_kind_gains_capacities(self):
        spec = MachineSpec(
            kind="topology",
            params={"spec": "ring:4"},
            capacities={"slots": 4},
        )
        topo = spec.build()
        assert topo.n_processors == 4
        assert topo.capacities.cap_for(topo.processors[0]) == (4.0,)


class TestParseAndLoadMachine:
    def test_parse_machine_spec_string(self):
        assert parse_machine("fat_tree:2x4").n_processors == 8
        assert parse_machine("hypercube:3").n_processors == 8

    def test_machine_file_wins_over_spec(self, tmp_path):
        doc = {
            "format": MACHINE_FORMAT,
            "kind": "node_core_tree",
            "params": {"nodes": 2, "cores": 2},
            "capacities": {"memory": {"demand": "weight", "cap": 8.0}},
        }
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(doc))
        topo = parse_machine(str(path))
        assert topo.n_processors == 4
        assert topo.capacities is not None
        assert load_machine(str(path)).fingerprint() == topo.fingerprint()
        assert MachineSpec.from_dict(doc).build().fingerprint() == topo.fingerprint()

    def test_bad_machine_file_rejected(self, tmp_path):
        path = tmp_path / "machine.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_machine(str(path))


class TestDescribeMachine:
    def test_hierarchical_machine(self):
        t = fat_tree([2, 4], capacities={"slots": 4})
        doc = describe_machine(t)
        assert doc["kind"] == "fat_tree"
        assert doc["n_processors"] == 8
        assert [lvl["arity"] for lvl in doc["levels"]] == [2, 4]
        classes = {c["slowdown"]: c["links"] for c in doc["link_bandwidth_classes"]}
        assert classes == {0.5: 1, 1.0: 12}
        assert doc["capacities"] == [
            {"resource": "slots", "demand": "unit",
             "total": 32.0, "min": 4.0, "max": 4.0}
        ]
        json.dumps(doc)  # must be JSON-compatible

    def test_flat_machine(self):
        doc = describe_machine(networks.ring(4))
        assert doc["kind"] == "flat"
        assert doc["levels"] == []
        assert doc["capacities"] is None
        assert doc["link_bandwidth_classes"] == [
            {"slowdown": 1.0, "bandwidth": 1.0, "links": 4}
        ]
