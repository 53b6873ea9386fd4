"""The networkx graph core (moved from ``repro.arch.topology`` and
``repro.mapper.contraction.baselines``).

:class:`TopologyReference` is the label-level half of the ``Topology`` that
kept an ``nx.Graph`` and a dict-of-dicts of BFS distances beside its array
tables: node and edge insertion, the ``g.edges`` link numbering, the
``all_pairs_shortest_path_length`` distances, the label ``next_hops`` and
``connected_components``, and ``degrade`` rebuilding the survivor from the
numbered links.  :func:`bfs_contract_reference` is the BFS-block baseline
walking ``nx.bfs_tree`` over ``TaskGraph.static_graph()``.  The production
classes must agree with both, numbering for numbering.
"""

from __future__ import annotations

import math
from collections import deque

import networkx as nx

from repro.arch.topology import DisconnectedTopologyError
from repro.util.fingerprint import encode_label, sort_encoded, stable_digest


class TopologyReference:
    """``Topology`` as it was on networkx (no index space, no caches)."""

    def __init__(self, name, edges, *, nodes=(), family=None,
                 allow_disconnected=False, capacities=None, hierarchy=None):
        self.name = name
        self.family = family
        self.capacities = capacities
        self.hierarchy = hierarchy
        g = nx.Graph()
        g.add_nodes_from(nodes)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-link on processor {u!r}")
            g.add_edge(u, v)
        if g.number_of_nodes() == 0:
            raise ValueError("a topology needs at least one processor")
        self._connected = nx.is_connected(g)
        if not self._connected and not allow_disconnected:
            raise DisconnectedTopologyError(
                f"topology {name!r} is not connected "
                f"({nx.number_connected_components(g)} components)"
            )
        self._graph = g
        self.link_slowdowns = {}
        self._procs = list(g.nodes)
        self._links = [frozenset(e) for e in g.edges]
        self._link_id_pairs = {}
        for i, (u, v) in enumerate(g.edges):
            self._link_id_pairs[(u, v)] = i + 1
            self._link_id_pairs[(v, u)] = i + 1
        self._proc_index = {p: i for i, p in enumerate(self._procs)}
        self._dist = {
            src: dict(lengths)
            for src, lengths in nx.all_pairs_shortest_path_length(g)
        }

    @property
    def processors(self):
        return list(self._procs)

    @property
    def links(self):
        return list(self._links)

    def link_id(self, u, v):
        try:
            return self._link_id_pairs[(u, v)]
        except KeyError:
            raise KeyError(f"no link between {u!r} and {v!r}") from None

    def neighbors(self, p):
        return list(self._graph.neighbors(p))

    def degree(self, p):
        return self._graph.degree(p)

    @property
    def is_connected(self):
        return self._connected

    def components(self):
        comps = [sorted(c, key=self._proc_index.__getitem__)
                 for c in nx.connected_components(self._graph)]
        return sorted(comps, key=lambda c: (-len(c), self._proc_index[c[0]]))

    def fingerprint(self):
        payload = {
            "kind": "topology",
            "name": self.name,
            "family": [self.family[0],
                       [encode_label(p) for p in self.family[1]]]
            if self.family
            else None,
            "processors": [encode_label(p) for p in self._procs],
            "links": [
                sort_encoded(encode_label(p) for p in link)
                for link in self._links
            ],
            "link_slowdowns": sorted(
                (lid, factor) for lid, factor in self.link_slowdowns.items()
            ),
        }
        if self.capacities is not None:
            payload["capacities"] = self.capacities.fingerprint_payload()
        if self.hierarchy is not None:
            payload["hierarchy"] = self.hierarchy
        return stable_digest(payload)

    def structural_key(self):
        return stable_digest({
            "kind": "topology-structure",
            "processors": [encode_label(p) for p in self._procs],
            "links": [
                sort_encoded(encode_label(p) for p in link)
                for link in self._links
            ],
        })

    def distance(self, u, v):
        """Hop distance; ``KeyError`` for an unreachable pair (the bare
        error the production class turned into a named one)."""
        return self._dist[u][v]

    @property
    def diameter(self):
        return max(max(row.values()) for row in self._dist.values())

    def next_hops(self, here, dest):
        if here == dest:
            return []
        d = self._dist[here][dest]
        return [
            nb for nb in self._graph.neighbors(here)
            if self._dist[nb][dest] == d - 1
        ]

    def shortest_routes(self, src, dst, *, limit=64):
        routes = []
        queue = deque([[src]])
        while queue and len(routes) < limit:
            path = queue.popleft()
            here = path[-1]
            if here == dst:
                routes.append(path)
                continue
            for nb in self.next_hops(here, dst):
                queue.append(path + [nb])
        return routes

    def degrade(self, faults, *, name=None, allow_disconnected=False):
        failed_procs = set(faults.failed_procs)
        failed_links = {frozenset(l) for l in faults.failed_links}
        degraded = {frozenset(l): f
                    for l, f in dict(faults.degraded_links).items()}
        survivors = [p for p in self._procs if p not in failed_procs]
        live_links = [
            link
            for link in self._links
            if link not in failed_links and not (link & failed_procs)
        ]
        structural_same = not failed_procs and not failed_links
        sub = TopologyReference(
            name or f"{self.name}~degraded",
            [tuple(link) for link in live_links],
            nodes=survivors,
            allow_disconnected=allow_disconnected,
            capacities=(
                self.capacities.restrict(survivors)
                if self.capacities is not None
                else None
            ),
            hierarchy=self.hierarchy if structural_same else None,
        )
        sub.link_slowdowns = {
            sub.link_id(*tuple(link)): factor
            for link, factor in degraded.items()
            if link in set(sub.links)
        }
        return sub


def bfs_contract_reference(tg, n_procs, *, load_bound=None):
    """BFS-block contraction over ``nx.bfs_tree`` of the static graph."""
    n = tg.n_tasks
    bound = load_bound if load_bound is not None else math.ceil(n / n_procs)
    static = tg.static_graph()
    order = []
    seen = set()
    for start in tg.nodes:
        if start in seen:
            continue
        for node in nx.bfs_tree(static, start):
            if node not in seen:
                seen.add(node)
                order.append(node)
    n_clusters = min(n_procs, max(1, math.ceil(n / bound)))
    base_size = n // n_clusters
    remainder = n % n_clusters
    clusters = []
    pos = 0
    for i in range(n_clusters):
        size = base_size + (1 if i < remainder else 0)
        clusters.append(order[pos : pos + size])
        pos += size
    return [c for c in clusters if c]
