"""Tests for the Mapping result type (repro.mapper.mapping)."""

import copy
import pickle

import pytest

from repro.arch import networks
from repro.graph import families
from repro.mapper.mapping import Mapping, RouteTable, StampedDict


def make_mapping():
    tg = families.ring(4)
    topo = networks.ring(4)
    assignment = {i: i for i in range(4)}
    routes = {("ring", i): [i, (i + 1) % 4] for i in range(4)}
    return Mapping(tg, topo, assignment, routes, provenance="test")


class TestLookups:
    def test_proc_of(self):
        m = make_mapping()
        assert m.proc_of(2) == 2

    def test_tasks_on_and_clusters(self):
        tg = families.ring(4)
        topo = networks.ring(2)
        m = Mapping(tg, topo, {0: 0, 1: 0, 2: 1, 3: 1})
        assert sorted(m.tasks_on(0)) == [0, 1]
        assert m.clusters() == {0: [0, 1], 1: [2, 3]}

    def test_dilation(self):
        m = make_mapping()
        assert m.dilation("ring", 0) == 1

    def test_used_procs(self):
        tg = families.ring(2)
        topo = networks.ring(4)
        m = Mapping(tg, topo, {0: 1, 1: 1})
        assert m.used_procs() == {1}

    def test_repr(self):
        assert "test" in repr(make_mapping())

    def test_pipeline_annotations_default_to_none_and_survive_copy(self):
        m = make_mapping()
        assert (m.routing_rounds, m.group_contraction, m.map_stats) == (None,) * 3
        m.routing_rounds, m.map_stats = 3, {"levels": 2}
        dup = m.copy()
        assert (dup.routing_rounds, dup.map_stats) == (3, {"levels": 2})
        # a mapping pickled before the class declared them carries no such keys
        old = make_mapping()
        assert "map_stats" not in vars(old)
        assert old.copy().map_stats is None


class TestValidate:
    def test_valid_passes(self):
        make_mapping().validate(require_routes=True)

    def test_unassigned_task(self):
        tg = families.ring(3)
        topo = networks.ring(3)
        m = Mapping(tg, topo, {0: 0, 1: 1})
        with pytest.raises(ValueError, match="unassigned"):
            m.validate()

    def test_unknown_processor(self):
        tg = families.ring(2)
        topo = networks.ring(2)
        m = Mapping(tg, topo, {0: 0, 1: 99})
        with pytest.raises(ValueError, match="unknown processor"):
            m.validate()

    def test_route_not_a_path(self):
        m = make_mapping()
        m.routes[("ring", 0)] = [0, 2]  # 0 and 2 are not linked in ring4
        with pytest.raises(ValueError, match="not a network path"):
            m.validate()

    def test_route_wrong_endpoints(self):
        m = make_mapping()
        m.routes[("ring", 0)] = [1, 2]
        with pytest.raises(ValueError, match="does not connect"):
            m.validate()

    def test_route_bad_key(self):
        m = make_mapping()
        with pytest.raises(ValueError, match="matches no edge"):
            m.routes[("ring", 99)] = [0, 1]
        m.validate(require_routes=True)  # the refused write left no trace

    def test_require_routes(self):
        m = make_mapping()
        del m.routes[("ring", 2)]
        m.validate()  # fine without the flag
        with pytest.raises(ValueError, match="missing route"):
            m.validate(require_routes=True)


class TestEdits:
    """``Mapping.edits`` moves on every write, whichever path it takes."""

    WRITES = {
        "setitem": lambda d, k, v: d.__setitem__(k, v),
        "delitem": lambda d, k, v: d.__delitem__(k),
        "update": lambda d, k, v: d.update({k: v}),
        "pop": lambda d, k, v: d.pop(k),
        "popitem": lambda d, k, v: d.popitem(),
        "clear": lambda d, k, v: d.clear(),
        "setdefault": lambda d, k, v: d.setdefault(k, v),
        "ior": lambda d, k, v: d.__ior__({k: v}),
    }

    @pytest.mark.parametrize("write", sorted(WRITES))
    @pytest.mark.parametrize("table", ["assignment", "routes"])
    def test_every_dict_write_moves_the_edits(self, table, write):
        m = make_mapping()
        d = getattr(m, table)
        key = next(iter(d))
        # setdefault writes only a key that is absent
        value = d.pop(key) if write == "setdefault" else d[key]
        before = m.edits
        self.WRITES[write](d, key, value)
        assert m.edits != before

    def test_rebinding_wraps_the_dict(self):
        m = make_mapping()
        before = m.edits
        m.routes = {("ring", 0): [0, 1]}
        assert type(m.routes) is RouteTable
        assert m.edits != before
        m.assignment = dict(m.assignment)
        assert type(m.assignment) is StampedDict

    def test_task_graph_changes_move_the_edits(self):
        m = make_mapping()
        before = m.edits
        m.task_graph.add_comm_phase("extra").add(0, 1, 1.0)
        assert m.edits != before

    @pytest.mark.parametrize("name", ["task_graph", "topology"])
    def test_rebinding_the_graph_or_machine_is_refused(self, name):
        """The route table is bound to both: a new one would leave it and
        every table keyed on ``edits`` stale."""
        m = make_mapping()
        before, other = m.edits, make_mapping()
        with pytest.raises(AttributeError, match="build a new Mapping"):
            setattr(m, name, getattr(other, name))
        assert getattr(m, name) is not getattr(other, name)
        assert m.edits == before and m.routes._tg is m.task_graph
        # Everything that builds a mapping sets them before the routes.
        for built in (m.copy(), pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert built.routes == m.routes
            with pytest.raises(AttributeError, match="build a new Mapping"):
                setattr(built, name, getattr(other, name))

    def test_copies_and_pickles_take_fresh_stamps(self):
        m = make_mapping()
        blob = pickle.dumps(m)
        assert b"StampedDict" not in blob  # pickles carry plain dicts
        assert b"RouteTable" not in blob
        for other in (m.copy(), pickle.loads(blob), copy.deepcopy(m)):
            assert type(other.assignment) is StampedDict
            assert type(other.routes) is RouteTable
            assert other.assignment == m.assignment and other.routes == m.routes
            assert other.edits[:2] != m.edits[:2]
