"""A mapping's :class:`~repro.mapper.mapping.RouteTable` reads and writes
as a plain dict of label lists, within its domain, and pickles as one.

A derandomized state machine drives one table and one dict through the
same writes and asks both every read a caller has: ``[]``, ``get``,
``in``, ``len``, iteration order, ``items``, ``values``, ``==``,
``dict()`` and ``sorted``.  The dict keeps its keys phase-major, the
table's order; a write the table cannot hold (a key that is no edge of the
graph, a label that is no processor, an empty path) must raise
``ValueError`` and leave the table as it was, and the dict skips it.  The
refusal tests pin each such write on every path that binds or writes
routes.  The pickle tests pin the layout: no pickle names ``RouteTable``,
so an entry or checkpoint written on either side of the change loads on
the other.
"""

import copy
import json
import pickle
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro import io
from repro.arch import networks
from repro.larcs import stdlib
from repro.mapper import map_computation
from repro.mapper.mapping import Mapping, RouteTable, pack_paths
from repro.mapper.routing import dimension_order_route, mm_route, random_route
from repro.mapper.routing.mm_route import route_edges
from repro.pipeline import RunConfig, run_pipeline
from repro.pipeline.cache import ArtifactCache
from repro.sim import simulate
from repro.util.fingerprint import encode_label
from tests.oracles import simulate_uncached

DATA = Path(__file__).parent / "data"


def jacobi():
    """A routed jacobi 4x4 on ``mesh:2x2``: a RouteTable on the mapping."""
    return map_computation(stdlib.load("jacobi", rows=4, cols=4), networks.mesh(2, 2))


def partial_table():
    """``route_edges`` over a few edges of two phases: empty ranges between."""
    m = jacobi()
    keys = [("north", 1), ("north", 4), ("south", 0), ("south", 7)]
    return route_edges(m.task_graph, m.topology, m.assignment, keys).routes


#: Keys every read is asked about: present, absent, out of range, another
#: phase, malformed.
PROBES = [
    ("north", 0), ("north", 4), ("south", 7), ("north", -1), ("north", 10**6),
    ("nowhere", 0), ("north", "4"), ("north", 4.5), ("north",), "north", 4, None,
]

#: The table's domain, read off a fresh graph and machine: jacobi 4x4's
#: phases in declaration order with their edge counts, and mesh:2x2's
#: processors.
EDGES = {name: len(phase.edges)
         for name, phase in stdlib.load("jacobi", rows=4, cols=4).comm_phases.items()}
PROCS = set(networks.mesh(2, 2).processors)


def holds(key, route) -> bool:
    """Whether a table can hold *route* under *key*: an edge of the graph,
    a path of the machine's processors, not empty."""
    return (isinstance(key, tuple) and len(key) == 2 and key[0] in EDGES
            and isinstance(key[1], int) and 0 <= key[1] < EDGES[key[0]]
            and len(route) > 0 and all(p in PROCS for p in route))


def phase_major(item):
    (phase, idx), _route = item
    return list(EDGES).index(phase), idx


class TableVersusDict(RuleBasedStateMachine):
    @initialize(partial=st.booleans())
    def start(self, partial):
        self.table = partial_table() if partial else jacobi().routes
        assert type(self.table) is RouteTable
        self.plain = {k: list(r) for k, r in self.table.items()}
        self.keys = list(self.plain) + [("extra", 0), ("north", 99)]

    def key(self, i):
        return self.keys[i % len(self.keys)]

    def both(self, write, *items):
        """*write* on both sides: the same result, or the same exception.
        When the write stores an item of *items* the table cannot hold, the
        table refuses it whole and the dict is left out."""
        if not all(holds(key, route) for key, route in items):
            before = list(self.table.items())
            with pytest.raises(ValueError):
                write(self.table)
            assert list(self.table.items()) == before
            return
        outcomes = []
        for side in (self.table, self.plain):
            try:
                outcomes.append(("ok", write(side)))
            except Exception as exc:  # compared, never swallowed
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        self.plain = dict(sorted(self.plain.items(), key=phase_major))

    @rule(i=st.integers(0, 100), n=st.integers(0, 3))
    def setitem(self, i, n):
        key, route = self.key(i), list(range(n))
        self.both(lambda d: d.__setitem__(key, route), (key, route))

    @rule(i=st.integers(0, 100))
    def delitem(self, i):
        self.both(lambda d: d.__delitem__(self.key(i)))

    @rule(i=st.integers(0, 100), default=st.booleans())
    def pop(self, i, default):
        args = (self.key(i), "gone") if default else (self.key(i),)
        self.both(lambda d: d.pop(*args))

    @rule()
    def popitem(self):
        self.both(lambda d: d.popitem())

    @rule()
    def clear(self):
        self.both(lambda d: d.clear())

    @rule(i=st.integers(0, 100))
    def setdefault(self, i):
        key = self.key(i)
        stored = () if key in self.plain else [(key, [7])]
        self.both(lambda d: d.setdefault(key, [7]), *stored)

    @rule(i=st.integers(0, 100), how=st.sampled_from(["update", "ior", "kwargs"]))
    def update(self, i, how):
        other = {self.key(i): [1, 2], self.key(i + 1): [3]}
        if how == "update":
            self.both(lambda d: d.update(other), *other.items())
        elif how == "kwargs":
            self.both(lambda d: d.update(other.items(), lonely=[0]),
                      *other.items(), ("lonely", [0]))
        elif all(holds(*item) for item in other.items()):
            self.table |= other
            self.plain |= other
            self.plain = dict(sorted(self.plain.items(), key=phase_major))
        else:
            before = list(self.table.items())
            with pytest.raises(ValueError):
                self.table |= other
            assert list(self.table.items()) == before

    @precondition(lambda self: self.plain)
    @rule()
    def copy_then_write_the_copy(self):
        dup = self.table.copy()
        dup[("north", 0)] = [3]
        dup.pop(next(iter(dup)))

    @invariant()
    def reads_agree(self):
        table, plain = self.table, self.plain
        assert len(table) == len(plain)
        assert list(table) == list(plain)
        assert list(table.keys()) == list(plain.keys())
        assert list(table.items()) == list(plain.items())
        assert list(table.values()) == list(plain.values())
        assert table == plain and plain == table and not table != plain
        assert dict(table) == plain and list(dict(table)) == list(plain)
        assert sorted(table, key=repr) == sorted(plain, key=repr)
        assert sorted(table.items(), key=repr) == sorted(plain.items(), key=repr)
        assert bool(table) == bool(plain)
        for key in PROBES + self.keys:
            assert (key in table) == (key in plain)
            assert table.get(key, "dflt") == plain.get(key, "dflt")
            assert table.get(key) == plain.get(key)
            if key in plain:
                assert table[key] == plain[key]
            else:
                with pytest.raises(KeyError):
                    table[key]
        for bad in (["north", 0], {"a": 1}):
            for side in (table, plain):
                with pytest.raises(TypeError):
                    side[bad]
                with pytest.raises(TypeError):
                    bad in side


TableVersusDict.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None, derandomize=True
)
TestTableVersusDict = TableVersusDict.TestCase


class TestArrays:
    def test_routers_fill_one_read_only_pair_per_phase(self):
        m = jacobi()
        tg, topo = m.task_graph, m.topology
        for routing in (mm_route(tg, topo, m.assignment),
                        random_route(tg, topo, m.assignment, seed=3),
                        dimension_order_route(tg, topo, m.assignment)):
            table = routing.routes
            assert type(table) is RouteTable
            bound = Mapping(tg, topo, m.assignment, table)
            for name, phase in tg.comm_phases.items():
                ptr, hops = bound.index_paths(name)
                assert (ptr.dtype, hops.dtype) == (np.int64, np.int32)
                assert ptr.size == len(phase.edges) + 1
                assert not ptr.flags.writeable and not hops.flags.writeable
                for i in range(len(phase.edges)):
                    route = [topo.proc_by_index(k) for k in hops[ptr[i]:ptr[i + 1]]]
                    assert route == table[(name, i)]

    def test_copies_share_the_arrays_until_written(self):
        m = jacobi()
        table, dup = m.routes, m.copy()
        assert type(dup.routes) is RouteTable and dup.routes == table
        name, other = list(m.task_graph.comm_phases)[:2]
        for phase in (name, other):
            assert dup.index_paths(phase)[1] is m.index_paths(phase)[1]
        assert dup.routes.stamp != table.stamp
        before = table.stamp
        dup.routes[(name, 0)] = [3]
        assert dup.index_paths(name)[1] is not m.index_paths(name)[1]
        assert dup.index_paths(other)[1] is m.index_paths(other)[1]
        assert table.stamp == before
        assert type(dup.routes.copy()) is RouteTable and dup.routes.copy() == dup.routes
        assert table[(name, 0)] != [3]

    def test_a_write_keeps_the_iteration_order(self):
        table = partial_table()
        keys = list(table)
        assert keys == sorted(keys, key=lambda k: (list(EDGES).index(k[0]), k[1]))
        table[keys[0]] = table[keys[0]]
        assert list(table) == keys
        table[("north", 0)] = [0]
        assert list(table) == [("north", 0)] + keys
        table[("west", 2)] = [0]  # a phase the router left untouched
        assert list(table) == [("north", 0)] + keys + [("west", 2)]

    def test_index_paths_read_the_table_and_convert_a_dict(self):
        m = jacobi()
        for name in m.task_graph.comm_phases:
            ptr, hops = m.index_paths(name)
            assert ptr is m.copy().index_paths(name)[0]
            m2 = Mapping(m.task_graph, m.topology, m.assignment,
                         {k: list(r) for k, r in m.routes.items()})
            ptr2, hops2 = m2.index_paths(name)
            assert np.array_equal(ptr, ptr2) and np.array_equal(hops, hops2)
        # an unknown label and an empty route are refused at the write
        with pytest.raises(ValueError, match="not a network path"):
            m.routes[("north", 0)] = ["nowhere"]
        with pytest.raises(ValueError, match="not a network path"):
            m.routes[("north", 1)] = []

    def test_a_phase_grows_with_the_live_graph(self):
        m = jacobi()
        phase = m.task_graph.comm_phase("north")
        n = len(phase.edges)
        a, b = m.task_graph.nodes[:2]
        phase.add(a, b)
        ptr, _hops = m.index_paths("north")
        assert ptr.size == n + 2 and ptr[-1] == ptr[-2]  # the new edge unrouted
        route = m.topology.shortest_routes(m.proc_of(a), m.proc_of(b))[0]
        m.routes[("north", n)] = route
        assert m.routes[("north", n)] == route
        m.validate(require_routes=True)

    def test_pack_paths(self):
        ptr, hops = pack_paths([[3, 1], [], [2]])
        assert ptr.tolist() == [0, 2, 2, 3] and hops.tolist() == [3, 1, 2]
        ptr, hops = pack_paths([])
        assert ptr.tolist() == [0] and hops.size == 0


#: Writes a table must refuse: ``(key, route, message)``.
REFUSED = {
    "key_outside_the_graph": (("north", 99), [0], "matches no edge"),
    "phase_the_graph_lacks": (("nowhere", 0), [0], "matches no edge"),
    "label_outside_the_machine": (("north", 0), ["elsewhere"], "not a network path"),
    "empty_path": (("north", 0), [], "not a network path"),
    "key_not_a_pair": (("north",), [0], "matches no edge"),
}


def _bind_raw(m, routes):
    """A mapping like *m* whose routes attribute is *routes*, unbound."""
    raw = Mapping.__new__(Mapping)
    raw.__dict__.update(vars(m), routes=routes)
    return raw


def _through_io(m, key, route):
    doc = io.mapping_to_dict(m)
    doc["routes"].append({"phase": key[0], "edge": key[1],
                          "path": [encode_label(p) for p in route]})
    return io.mapping_from_dict(doc)


#: Every path that writes or binds routes, as ``(mapping, key, route)``.
WRITE_PATHS = {
    "setitem": lambda m, k, r: m.routes.__setitem__(k, r),
    "update": lambda m, k, r: m.routes.update({k: r}),
    "ior": lambda m, k, r: m.routes.__ior__({k: r}),
    "setdefault": lambda m, k, r: m.routes.setdefault(k, r),
    "bind": lambda m, k, r: setattr(m, "routes", {**m.routes, k: r}),
    "unpickle": lambda m, k, r: pickle.loads(pickle.dumps(
        _bind_raw(m, {**m.routes, k: r}))),
    "mapping_from_dict": _through_io,
}


class TestRefusals:
    @pytest.mark.parametrize("case, path", [
        (case, path) for case in sorted(REFUSED) for path in sorted(WRITE_PATHS)
        # the file format spells every key as a phase and an edge
        if (case, path) != ("key_not_a_pair", "mapping_from_dict")
    ])
    def test_a_write_the_table_cannot_hold_raises(self, case, path):
        key, route, message = REFUSED[case]
        m = jacobi()
        del m.routes[("north", 0)]  # absent, so setdefault writes too
        before = dict(m.routes)
        with pytest.raises(ValueError, match=message):
            WRITE_PATHS[path](m, key, route)
        assert dict(m.routes) == before

    def test_a_huge_edge_index_sizes_nothing(self):
        doc = io.mapping_to_dict(jacobi())
        doc["routes"].append({"phase": "north", "edge": 10**12, "path": [0]})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="matches no edge"):
                io.mapping_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPickles:
    def test_a_routed_mapping_pickles_plain_dicts(self):
        m = jacobi()
        assert type(m.routes) is RouteTable
        blob = pickle.dumps(m)
        assert b"RouteTable" not in blob
        assert b"RouteTable" not in pickle.dumps(m.routes)
        for other in (pickle.loads(blob), copy.deepcopy(m)):
            assert type(other.routes) is RouteTable and other.routes == m.routes
            assert simulate(other) == simulate(m)
        assert type(copy.copy(m.routes)) is dict
        assert type(copy.deepcopy(m.routes)) is dict

    def test_parent_written_entry_loads_and_simulates_equal(self, tmp_path):
        """``artifact_pr17.pkl`` holds label-dict routes; served beside a
        fresh run's table they compare and simulate equal, and the entry
        this code writes back holds no RouteTable."""
        from repro.serve.protocol import parse_map_request
        from repro.pipeline import pipeline_key
        from tests.data import capture_cold_path as pinned

        key = json.loads((DATA / "cold_path_pr17.json").read_text())["artifact_key"]
        shutil.copy(DATA / "artifact_pr17.pkl", tmp_path / f"{key}.pkl")
        request = parse_map_request(next(iter(pinned.request_bodies().values())))
        cache = ArtifactCache(str(tmp_path))
        served = run_pipeline(request.tg, request.topology, request.config, cache=cache)
        assert served.cache_tier == "disk"
        fresh = run_pipeline(request.tg, request.topology, request.config)
        assert type(served.mapping.routes) is RouteTable
        assert type(fresh.mapping.routes) is RouteTable
        assert served.mapping.routes == fresh.mapping.routes
        assert fresh.mapping.routes == served.mapping.routes
        sim = request.config.sim
        assert simulate(served.mapping, sim) == simulate(fresh.mapping, sim)
        assert simulate(served.mapping, sim) == simulate_uncached(fresh.mapping, sim)

        written = ArtifactCache(str(tmp_path / "new"))
        new_key = pipeline_key(request.tg, request.topology, request.config)[0]
        written.put(new_key, fresh)
        assert b"RouteTable" not in (tmp_path / "new" / f"{new_key}.pkl").read_bytes()
        back, _tier = ArtifactCache(str(tmp_path / "new")).get(new_key)
        assert back.mapping.routes == fresh.mapping.routes
        assert simulate(back.mapping, sim) == simulate(fresh.mapping, sim)

    def test_session_journal_checkpoints_hold_no_route_table(self, tmp_path):
        """The pinned snapshot resumes (its routes are label dicts), and the
        checkpoints this code journals on top of it name no RouteTable."""
        from tests.test_online_journal import _chaos_instance, _resume

        captured = json.loads((DATA / "session_journal_snapshot.json").read_text())
        directory = tmp_path / "journal"
        directory.mkdir()
        shutil.copy(DATA / "session_journal_snapshot.pkl",
                    directory / f"{captured['cache_key']}.pkl")
        got = _resume(_chaos_instance(), str(directory))
        assert got.final_mapping_fingerprint == captured["final_mapping_fingerprint"]
        blobs = [path.read_bytes() for path in directory.glob("*.pkl")]
        assert len(blobs) > 1
        assert not any(b"RouteTable" in blob for blob in blobs)
