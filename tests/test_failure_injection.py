"""Failure-injection tests: corrupted artefacts must be caught, not trusted.

Every consumer of a mapping (METRICS, the simulator, the session, the
serialiser) validates before it computes; these tests inject the
corruptions a buggy producer or a damaged file could introduce and check
each layer refuses loudly.
"""

import json

import pytest

from repro.arch import networks
from repro.graph import families
from repro.io import load_mapping, mapping_from_dict, mapping_to_dict, save_mapping
from repro.mapper import map_computation
from repro.metrics import EditSession
from repro.sim import simulate
from repro.util.validation import ValidationError


def good_mapping():
    return map_computation(families.nbody(15), networks.hypercube(3))


class TestCorruptedMappings:
    def test_dangling_task_assignment(self):
        m = good_mapping()
        m.assignment[999] = 0  # task that does not exist in the graph
        # A dangling assignment entry would silently corrupt cluster and
        # load-balance accounting; validate() must reject it loudly.
        with pytest.raises(ValidationError, match="not in the graph"):
            m.validate()

    def test_route_to_wrong_processor(self):
        m = good_mapping()
        (phase, idx), route = next(iter(m.routes.items()))
        m.routes[(phase, idx)] = route[:-1] + [route[-1] ^ 7 ^ route[-1]]  # corrupt
        m.routes[(phase, idx)] = [route[0]]  # truncated route
        if len(route) > 1:
            with pytest.raises(ValueError):
                m.validate()

    def test_teleporting_route(self):
        m = good_mapping()
        key = next(k for k, r in m.routes.items() if len(r) > 2)
        route = m.routes[key]
        m.routes[key] = [route[0], route[-1]] if not m.topology.has_link(
            route[0], route[-1]
        ) else [route[0], route[1], route[1]]
        # Either a non-path or a stuttering walk; the stutter (p -> p) is
        # not a link either way.
        with pytest.raises(ValueError):
            m.validate()

    def test_simulator_rejects_missing_routes(self):
        m = good_mapping()
        del m.routes[next(iter(m.routes))]
        with pytest.raises(ValueError, match="missing route"):
            simulate(m)

    def test_session_rejects_invalid_start(self):
        m = good_mapping()
        del m.routes[next(iter(m.routes))]
        with pytest.raises(ValueError):
            EditSession(m)


class TestCorruptedFiles:
    def test_truncated_json(self, tmp_path):
        m = good_mapping()
        path = tmp_path / "m.json"
        save_mapping(m, str(path))
        path.write_text(path.read_text()[:100])
        with pytest.raises(json.JSONDecodeError):
            load_mapping(str(path))

    def test_edge_index_out_of_range(self):
        data = mapping_to_dict(good_mapping())
        data["routes"][0]["edge"] = 10_000
        with pytest.raises(ValueError, match="matches no edge"):
            mapping_from_dict(data)

    def test_assignment_to_missing_processor(self):
        data = mapping_to_dict(good_mapping())
        data["assignment"][0][1] = 99
        with pytest.raises(ValueError, match="unknown processor"):
            mapping_from_dict(data)

    def test_negative_volume_rejected_on_load(self):
        data = mapping_to_dict(good_mapping())
        data["task_graph"]["comm_phases"][0]["edges"][0][2] = -5.0
        with pytest.raises(ValueError, match="negative volume"):
            mapping_from_dict(data)

    def test_phase_expr_referencing_ghost_phase(self):
        data = mapping_to_dict(good_mapping())
        data["task_graph"]["phase_expr"] = "ring; ghost"
        with pytest.raises(ValueError, match="undeclared phase"):
            mapping_from_dict(data)

    def test_disconnected_topology_rejected(self):
        data = mapping_to_dict(good_mapping())
        # Drop enough links to disconnect the cube.
        links = data["topology"]["links"]
        data["topology"]["links"] = [l for l in links if 0 not in l]
        with pytest.raises(ValueError, match="not connected"):
            mapping_from_dict(data)
