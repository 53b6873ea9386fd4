"""Tests for repro.graph.taskgraph."""

import pickle

import pytest

from repro.graph import TaskGraph, parse_phase_expr
from repro.graph.taskgraph import CommEdge


def make_simple():
    tg = TaskGraph("demo")
    tg.add_nodes(range(4))
    ph = tg.add_comm_phase("ring")
    for i in range(4):
        ph.add(i, (i + 1) % 4, 2.0)
    tg.add_exec_phase("work", cost=3.0, costs={0: 5.0})
    return tg


class TestConstruction:
    def test_counts(self):
        tg = make_simple()
        assert tg.n_tasks == 4
        assert tg.n_edges == 4
        assert tg.total_volume() == 8.0

    def test_add_edge_checks_nodes(self):
        tg = make_simple()
        with pytest.raises(KeyError):
            tg.add_edge("ring", 0, 99)

    def test_duplicate_phase_name_rejected(self):
        tg = make_simple()
        with pytest.raises(ValueError):
            tg.add_comm_phase("ring")
        with pytest.raises(ValueError):
            tg.add_exec_phase("ring")

    def test_node_weight(self):
        tg = TaskGraph()
        tg.add_node("a", 2.5)
        assert tg.node_weight("a") == 2.5

    def test_exec_cost_override(self):
        tg = make_simple()
        work = tg.exec_phase("work")
        assert work.cost_of(0) == 5.0
        assert work.cost_of(1) == 3.0

    def test_phase_names_order(self):
        tg = make_simple()
        assert tg.phase_names == ["ring", "work"]

    def test_repr(self):
        assert "4 tasks" in repr(make_simple())


class TestDerivedGraphs:
    def test_static_graph_aggregates_antiparallel(self):
        tg = TaskGraph()
        tg.add_nodes(range(2))
        a = tg.add_comm_phase("a")
        b = tg.add_comm_phase("b")
        a.add(0, 1, 3.0)
        b.add(1, 0, 4.0)
        g = tg.static_graph()
        assert g[0][1]["weight"] == 7.0

    def test_static_graph_drops_self_loops(self):
        tg = TaskGraph()
        tg.add_node(0)
        tg.add_comm_phase("a").add(0, 0, 1.0)
        assert tg.static_graph().number_of_edges() == 0

    def test_phase_digraph(self):
        tg = make_simple()
        d = tg.phase_digraph("ring")
        assert d.number_of_edges() == 4
        assert d[0][1]["volume"] == 2.0

    def test_static_graph_node_weights(self):
        tg = TaskGraph()
        tg.add_node(0, 9.0)
        assert tg.static_graph().nodes[0]["weight"] == 9.0


class TestCommFunction:
    def test_functional_phase(self):
        tg = make_simple()
        fn = tg.comm_function("ring")
        assert fn == {0: 1, 1: 2, 2: 3, 3: 0}

    def test_non_functional_phase(self):
        tg = TaskGraph()
        tg.add_nodes(range(3))
        ph = tg.add_comm_phase("bcast")
        ph.add(0, 1)
        ph.add(0, 2)
        assert tg.comm_function("bcast") is None

    def test_integer_nodes_contiguous(self):
        assert make_simple().integer_nodes() == [0, 1, 2, 3]

    def test_integer_nodes_noncontiguous(self):
        tg = TaskGraph()
        tg.add_nodes([0, 2])
        assert tg.integer_nodes() is None

    def test_integer_nodes_tuples(self):
        tg = TaskGraph()
        tg.add_nodes([(0, 0), (0, 1)])
        assert tg.integer_nodes() is None


class TestValidation:
    def test_valid_graph_passes(self):
        make_simple().validate()

    def test_negative_volume_rejected(self):
        tg = TaskGraph()
        tg.add_nodes(range(2))
        tg.add_comm_phase("p").edges.append(CommEdge(0, 1, -1.0))
        with pytest.raises(ValueError):
            tg.validate()

    def test_undeclared_phase_in_expression(self):
        tg = make_simple()
        tg.phase_expr = parse_phase_expr("ring; nosuch")
        with pytest.raises(ValueError):
            tg.validate()

    def test_phase_expr_with_declared_phases(self):
        tg = make_simple()
        tg.phase_expr = parse_phase_expr("(ring; work)^3")
        tg.validate()


class TestCommEdge:
    def test_reversed(self):
        e = CommEdge(1, 2, 5.0)
        assert e.reversed() == CommEdge(2, 1, 5.0)

    def test_slotted_edges_and_graphs_pickle_back_equal(self):
        tg = make_simple()
        tg.add_edge("ring", 0, 2, 0.5)
        edge = CommEdge((0, 1), "b", 2.5)
        assert not hasattr(edge, "__dict__")
        assert pickle.loads(pickle.dumps(edge)) == edge
        back = pickle.loads(pickle.dumps(tg))
        assert back.comm_phase("ring").edges == tg.comm_phase("ring").edges
        assert back.fingerprint() == tg.fingerprint()

    def test_dict_state_of_an_unslotted_pickle_is_read_by_name(self):
        """Cache entries and checkpoints written before the slots carry
        each edge's instance dict: its values, not its keys, are the edge."""
        from repro.graph.taskgraph import _edge_setstate

        # The decorator must not have replaced it (CPython 3.10 to 3.11.3
        # install a positional one for frozen slotted dataclasses).
        assert CommEdge.__setstate__ is _edge_setstate
        edge = CommEdge.__new__(CommEdge)
        edge.__setstate__({"volume": 3.0, "dst": 2, "src": (0, 1)})
        assert edge == CommEdge((0, 1), 2, 3.0)
        # CommEdge((0, 1), "b", 2.5) as the unslotted class pickled it.
        old = (
            b"\x80\x04\x95V\x00\x00\x00\x00\x00\x00\x00\x8c\x15repro.graph."
            b"taskgraph\x94\x8c\x08CommEdge\x94\x93\x94)\x81\x94}\x94(\x8c\x03"
            b"src\x94K\x00K\x01\x86\x94\x8c\x03dst\x94\x8c\x01b\x94\x8c\x06"
            b"volume\x94G@\x04\x00\x00\x00\x00\x00\x00ub."
        )
        assert pickle.loads(old) == CommEdge((0, 1), "b", 2.5)


class TestDerivedStructureCaching:
    def test_add_edge_invalidates_static_graph(self):
        tg = make_simple()
        g1 = tg.static_graph()
        assert not g1.has_edge(0, 2)
        tg.add_edge("ring", 0, 2, 7.0)
        g2 = tg.static_graph()
        assert g2 is not g1
        assert g2[0][2]["weight"] == 7.0

    def test_add_node_invalidates_static_graph(self):
        tg = make_simple()
        assert 99 not in tg.static_graph()
        tg.add_node(99, weight=2.0)
        assert tg.static_graph().nodes[99]["weight"] == 2.0

    def test_direct_phase_append_invalidates_static_graph(self):
        # The family generators append to CommPhase objects directly,
        # bypassing TaskGraph.add_edge; the view is built per call, so it
        # sees that too (tests/test_graph_csr.py holds the cached CSR to it).
        tg = make_simple()
        g1 = tg.static_graph()
        tg.comm_phase("ring").add(1, 3, 4.0)
        g2 = tg.static_graph()
        assert g2 is not g1
        assert g2[1][3]["weight"] == 4.0

    def test_new_phase_invalidates_name_sets(self):
        tg = make_simple()
        assert tg.comm_phase_names == frozenset({"ring"})
        assert tg.exec_phase_names == frozenset({"work"})
        tg.add_comm_phase("extra")
        tg.add_exec_phase("more")
        assert tg.comm_phase_names == frozenset({"ring", "extra"})
        assert tg.exec_phase_names == frozenset({"work", "more"})

    def test_phase_views_are_live_and_read_only(self):
        tg = make_simple()
        view = tg.comm_phases
        tg.add_comm_phase("late")
        assert "late" in view  # live view, not a stale copy
        with pytest.raises(TypeError):
            view["bad"] = None

    def test_exec_phase_view_read_only(self):
        tg = make_simple()
        with pytest.raises(TypeError):
            tg.exec_phases["bad"] = None
