"""The :class:`Topology` class: a processor network with routing structure.

A topology is an undirected, connected graph of homogeneous processors,
immutable after construction.  MAPPER reads a machine through three things
-- hop distances, the shortest-route choice sets, and the link numbering
(the paper numbers the 12 links of the 8-node hypercube 1..12 in Fig 6) --
and the class keeps one structure for each:

* **one adjacency**, ``processor -> {neighbour: link id}``, insertion
  ordered: processors in first-mention order (``nodes=`` first), each
  neighbour list in link-declaration order.  Processor indices
  (:meth:`Topology.index_of`) follow it; links are numbered
  processor-major -- walk the processors in order and number each link at
  its first endpoint, in that endpoint's neighbour order.  Tie-breaks,
  fingerprints and every cache key read these numberings.
* **one all-pairs matrix** (:meth:`Topology.distance_matrix`, built on
  first use: a breadth-first search per processor over the adjacency, or
  ``scipy.sparse.csgraph`` above :data:`_SCIPY_ABOVE` processors), shared
  between machines of the same structure through :data:`DIST_MATRIX_CACHE`
  -- hop distances do not depend on names, capacities or bandwidth factors.
  :meth:`Topology.distance`, :attr:`Topology.diameter`,
  :meth:`Topology.next_hops` and :meth:`Topology.shortest_routes` are
  label views of it.
* **one next-hop table** (:meth:`Topology.next_hop_links`): per ordered
  pair, the ``(neighbour index, link id)`` first hops lying on some
  shortest path -- MM-Route's candidate set, memoized per pair.

:meth:`Topology.degrade` applies a fault set (see
:class:`repro.resilience.FaultSet`) and returns the surviving machine as a
new topology; surviving slowed links carry their factors in
:attr:`Topology.link_slowdowns`, which the simulator charges.  A machine
that falls apart raises :class:`DisconnectedTopologyError`; one built with
``allow_disconnected=True`` answers distance queries inside a component,
raises that error for unreachable pairs, and never hands out its matrix
(``inf`` entries would poison downstream cost arithmetic).

A topology may carry :attr:`Topology.capacities` (per-processor budgets,
:class:`repro.arch.capacity.Capacities`) and :attr:`Topology.hierarchy`
(level metadata of the :mod:`repro.arch.hierarchy` generators).  Both are
``None`` on the paper's flat machines and widen the content fingerprint
only when present.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable

import numpy as np

from repro.util.fingerprint import LabelTable, encode_label, sort_encoded, stable_digest
from repro.util.lru import BoundedLRU

__all__ = ["Topology", "DisconnectedTopologyError"]

Proc = Hashable
Link = frozenset  # frozenset({u, v})

#: Module-level structural-digest -> all-pairs distance matrix cache.
#: Keyed on processors + links only (hop distances are independent of
#: capacities, slowdown factors, names, and hierarchy metadata), bounded
#: so sweeps over many machine shapes can't grow it without limit.
#: ``repro serve`` reports its counters under ``/v1/stats`` ``lru``.
DIST_MATRIX_CACHE = BoundedLRU(32)

#: Machines with more processors than this get their all-pairs matrix from
#: ``scipy.sparse.csgraph``; up to it, from the in-tree per-source BFS,
#: which is O(P * (P + L)) in pure Python and loses to scipy from ~64
#: processors up -- by 0.2 s at 1024, which is what ``import scipy.sparse``
#: costs (0.15-0.25 s, ~20 MB) once per process.  Below the constant a
#: process's first matrix is cheaper without the import; the size table is
#: in ``docs/performance.md`` ("The cold path").
_SCIPY_ABOVE = 1024


def _bfs_hops(nbrs: list[list[int]]) -> np.ndarray:
    """All-pairs hop counts over an index-space adjacency, one breadth-first
    search per source; float, ``inf`` where there is no path (as scipy's)."""
    n = len(nbrs)
    rows = []
    for src in range(n):
        row = [-1] * n
        row[src] = hops = 0
        frontier = [src]
        while frontier:
            hops += 1
            reached = []
            for u in frontier:
                for v in nbrs[u]:
                    if row[v] < 0:
                        row[v] = hops
                        reached.append(v)
            frontier = reached
        rows.append(row)
    mat = np.array(rows, dtype=np.float64)
    mat[mat < 0] = np.inf
    return mat


def _scipy_hops(nbrs: list[list[int]]) -> np.ndarray:
    """The same matrix from ``scipy.sparse.csgraph`` (large machines)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    rows = [u for u, row in enumerate(nbrs) for _ in row]
    cols = [v for row in nbrs for v in row]
    adj = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(len(nbrs), len(nbrs)),
    )
    return shortest_path(adj, method="D", unweighted=True)


class DisconnectedTopologyError(ValueError):
    """A topology (or a degraded sub-topology) is not connected.

    Raised when construction or :meth:`Topology.degrade` would yield a
    machine where some processor pair has no surviving path, and by
    distance queries on topologies built with ``allow_disconnected=True``
    when they hit an unreachable pair.
    """


class Topology:
    """An interconnection network of homogeneous processors.

    Parameters
    ----------
    name:
        Display name (e.g. ``"hypercube3"``).
    edges:
        Undirected processor links.
    family:
        Optional ``(family_name, params)`` tag used by the canned-mapping
        registry, mirroring :class:`repro.graph.TaskGraph.family`.
    capacities:
        Optional :class:`repro.arch.capacity.Capacities` declaring
        per-processor multi-resource budgets; must cover exactly this
        machine's processors.  ``None`` (the default) is the paper's
        homogeneous machine.
    hierarchy:
        Optional JSON-compatible level metadata written by the
        :mod:`repro.arch.hierarchy` generators (kind, levels, bandwidth
        classes); purely descriptive -- the structural consequences are
        already lowered into ``edges`` and :attr:`link_slowdowns`.
    """

    def __init__(
        self,
        name: str,
        edges: Iterable[tuple[Proc, Proc]],
        *,
        nodes: Iterable[Proc] = (),
        family: tuple[str, tuple] | None = None,
        allow_disconnected: bool = False,
        capacities=None,
        hierarchy: dict | None = None,
    ):
        self.name = name
        self.family = family
        self.capacities = capacities
        self.hierarchy = hierarchy
        # The one adjacency: processor -> {neighbour: 1-based link id}.  A
        # link declared again, in either orientation, keeps its first place.
        adj: dict[Proc, dict[Proc, int]] = {p: {} for p in nodes}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-link on processor {u!r}")
            adj.setdefault(u, {}).setdefault(v, 0)
            adj.setdefault(v, {}).setdefault(u, 0)
        if not adj:
            raise ValueError("a topology needs at least one processor")
        self._adj = adj
        self._procs: list[Proc] = list(adj)
        self._proc_index: dict[Proc, int] = {p: i for i, p in enumerate(adj)}
        n_components = len(self.components())
        self._connected = n_components == 1
        if not self._connected and not allow_disconnected:
            raise DisconnectedTopologyError(
                f"topology {name!r} is not connected "
                f"({n_components} components)"
            )
        # Stable 1-based link numbering (Fig 6 style), processor-major: a
        # link is numbered when the walk reaches its first endpoint.
        self._links: list[Link] = []
        for u, nbrs in adj.items():
            for v, lid in nbrs.items():
                if not lid:
                    self._links.append(frozenset((u, v)))
                    nbrs[v] = adj[v][u] = len(self._links)
        #: 1-based link id -> slowdown factor (>= 1.0) for degraded links;
        #: empty on a pristine topology.  :meth:`degrade` populates it and
        #: the simulator scales per-link transfer times by it.
        self.link_slowdowns: dict[int, float] = {}
        self._route_links_cache: dict[tuple[Proc, ...], tuple[int, ...]] = {}
        # Built on first use, so construction stays O(P + L): lowering a
        # hierarchy or degrading capacities never pays for all-pairs work.
        self._dist_matrix: np.ndarray | None = None
        self._degree_array: np.ndarray | None = None
        self._nbr_links: list[tuple[tuple[int, int], ...]] | None = None
        self._next_hop_table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._fingerprint: str | None = None
        self._structural_key: str | None = None
        if capacities is not None:
            capacities.validate_against(self._procs)

    def __getstate__(self) -> dict:
        # Pickles (cache entries, checkpoints, worker result pipes) carry
        # the machine; everything derived from it is rebuilt on first use.
        return {**self.__dict__, "_dist_matrix": None, "_degree_array": None,
                "_nbr_links": None, "_next_hop_table": {},
                "_route_links_cache": {}, "_pair_links": None}

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def processors(self) -> list[Proc]:
        """All processors, in insertion order."""
        return list(self._procs)

    @property
    def n_processors(self) -> int:
        """Number of processors."""
        return len(self._procs)

    @property
    def links(self) -> list[Link]:
        """All undirected links, in numbering order."""
        return list(self._links)

    @property
    def n_links(self) -> int:
        """Number of links."""
        return len(self._links)

    def link_id(self, u: Proc, v: Proc) -> int:
        """The 1-based number of the link between adjacent processors."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise KeyError(f"no link between {u!r} and {v!r}") from None

    def link_by_id(self, lid: int) -> Link:
        """The link with 1-based number *lid*."""
        return self._links[lid - 1]

    def neighbors(self, p: Proc) -> list[Proc]:
        """Processors directly linked to *p*."""
        return list(self._adj[p])

    def degree(self, p: Proc) -> int:
        """Number of links incident to *p*."""
        return len(self._adj[p])

    def has_link(self, u: Proc, v: Proc) -> bool:
        """True when *u* and *v* are directly connected."""
        return v in self._adj.get(u, ())

    @property
    def graph(self):
        """The processor graph as a fresh ``networkx.Graph``.

        A conversion for callers that want graph algorithms (isomorphism
        checks, drawing); nodes and ``.edges`` iterate in numbering order.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from((u, v) for u, nbrs in self._adj.items() for v in nbrs)
        return g

    @property
    def is_connected(self) -> bool:
        """True when every processor pair has a path."""
        return self._connected

    def components(self) -> list[list[Proc]]:
        """Connected components, largest first (ties by first member order)."""
        comps: list[list[Proc]] = []
        seen: set[Proc] = set()
        for start in self._adj:
            if start in seen:
                continue
            seen.add(start)
            comp = [start]
            for p in comp:  # grows while walked: a breadth-first queue
                for nb in self._adj[p]:
                    if nb not in seen:
                        seen.add(nb)
                        comp.append(nb)
            comps.append(sorted(comp, key=self._proc_index.__getitem__))
        return sorted(comps, key=lambda c: -len(c))

    # ------------------------------------------------------------------
    # content fingerprint
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A stable content digest of the machine (hash-seed independent).

        Covers everything mapping behaviour depends on: the processors and
        links *in their stable numbering order* (the proc/link index
        bijections are semantic -- tie-breaks read them), the display name,
        the family tag, and any per-link slowdown factors a degraded
        machine carries.  Computed once; topologies are immutable after
        construction (:meth:`degrade` finishes populating
        :attr:`link_slowdowns` before the degraded machine escapes).

        Keys the pipeline's content-addressed artifact cache alongside
        :meth:`repro.graph.TaskGraph.fingerprint`.
        """
        if self._fingerprint is None:
            payload = {
                "kind": "topology",
                "name": self.name,
                "family": [self.family[0],
                           [encode_label(p) for p in self.family[1]]]
                if self.family
                else None,
                **self._encoded_structure(),
                "link_slowdowns": sorted(
                    (lid, factor) for lid, factor in self.link_slowdowns.items()
                ),
            }
            # Heterogeneous-machine keys are added only when present, so
            # every capacity-free topology keeps its pre-PR-9 digest (and
            # with it every golden fixture and warm cache entry).
            if self.capacities is not None:
                payload["capacities"] = self.capacities.fingerprint_payload()
            if self.hierarchy is not None:
                payload["hierarchy"] = self.hierarchy
            self._fingerprint = stable_digest(payload)
        return self._fingerprint

    def structural_key(self) -> str:
        """A digest of processors + links only (the distance-cache key).

        Two machines with the same processor list and the same link list
        (in numbering order) have identical hop distances whatever their
        names, bandwidth factors, capacities, or hierarchy metadata -- so
        this narrower digest keys the shared all-pairs distance cache.
        """
        if self._structural_key is None:
            self._structural_key = stable_digest(
                {"kind": "topology-structure", **self._encoded_structure()}
            )
        return self._structural_key

    def _encoded_structure(self) -> dict:
        """The ``processors`` and ``links`` members both digests share."""
        enc = LabelTable()
        return {
            "processors": [enc[p] for p in self._procs],
            # Link order follows the 1-based numbering (semantic); the two
            # endpoints within a link are canonically sorted -- a
            # frozenset's iteration order is hash-seed dependent.
            "links": [
                sort_encoded(enc[p] for p in link) for link in self._links
            ],
        }

    # ------------------------------------------------------------------
    # integer indexing (vectorized-kernel support)
    # ------------------------------------------------------------------
    def index_of(self, p: Proc) -> int:
        """The stable 0-based index of processor *p* (insertion order)."""
        return self._proc_index[p]

    def proc_by_index(self, i: int) -> Proc:
        """The processor with stable index *i* (inverse of :meth:`index_of`)."""
        return self._procs[i]

    @property
    def proc_indices(self) -> dict[Proc, int]:
        """A copy of the processor -> stable-index map."""
        return dict(self._proc_index)

    def distance_matrix(self) -> np.ndarray:
        """Cached all-pairs hop-distance matrix, indexed by stable indices.

        ``distance_matrix()[index_of(u), index_of(v)] == distance(u, v)``.
        The returned ``int64`` array is the cache itself, shared by every
        machine of this structure, and is marked read-only.

        Raises :class:`DisconnectedTopologyError` on a disconnected
        topology: unreachable pairs would otherwise surface as ``inf`` and
        poison every cost matrix built from the distances (e.g. NN-Embed's
        placement scores).
        """
        if not self._connected:
            comps = self.components()
            raise DisconnectedTopologyError(
                f"topology {self.name!r} is disconnected "
                f"({len(comps)} components, sizes "
                f"{[len(c) for c in comps]}); distances between components "
                "are undefined -- repair the fault set or mask the "
                "unreachable processors before asking for a distance matrix"
            )
        return self._hops()

    def _hops(self) -> np.ndarray:
        """The all-pairs matrix behind every distance query (built once).

        ``int64`` on a connected machine; on a disconnected one float,
        ``inf`` marking the unreachable pairs.
        """
        if self._dist_matrix is None:
            # Distances depend on structure only, so identical shapes --
            # a degraded-bandwidth copy, a capacity variant, the same
            # hierarchy regenerated -- share one matrix via the module
            # cache instead of re-running the all-pairs search.
            skey = self.structural_key()
            mat = DIST_MATRIX_CACHE.get(skey)
            if mat is None:
                nbrs = [[nb for nb, _ in row] for row in self._neighbor_links()]
                mat = (_scipy_hops if len(nbrs) > _SCIPY_ABOVE else _bfs_hops)(nbrs)
                if self._connected:
                    mat = mat.astype(np.int64)
                mat.setflags(write=False)
                DIST_MATRIX_CACHE.put(skey, mat)
            self._dist_matrix = mat
        return self._dist_matrix

    def _unreachable(self, u: Proc, v: Proc) -> DisconnectedTopologyError:
        return DisconnectedTopologyError(
            f"no path between {u!r} and {v!r} in topology {self.name!r}"
        )

    def degree_array(self) -> np.ndarray:
        """Per-processor link counts, indexed by stable indices (cached)."""
        if self._degree_array is None:
            self._degree_array = np.array(
                [len(nbrs) for nbrs in self._adj.values()], dtype=np.int64
            )
        return self._degree_array

    def _neighbor_links(self) -> list[tuple[tuple[int, int], ...]]:
        """Per-processor ``((neighbor_index, link_id), ...)`` adjacency.

        The adjacency in index space; neighbour order matches
        :meth:`neighbors` (link-declaration order), which is the order
        MM-Route enumerates its candidates in.
        """
        if self._nbr_links is None:
            index = self._proc_index
            self._nbr_links = [
                tuple((index[nb], lid) for nb, lid in nbrs.items())
                for nbrs in self._adj.values()
            ]
        return self._nbr_links

    def next_hop_links(self, src_idx: int, dst_idx: int) -> tuple[tuple[int, int], ...]:
        """Shortest-path first hops of ``src -> dst`` as an indexed table.

        Returns ``((neighbor_index, link_id), ...)`` for every neighbour of
        the processor with index *src_idx* that lies on some shortest path
        to the processor with index *dst_idx* -- the integer-indexed
        equivalent of :meth:`next_hops`.  Entries are memoized per ordered
        pair; an empty tuple means ``src_idx == dst_idx``.
        """
        key = (src_idx, dst_idx)
        cached = self._next_hop_table.get(key)
        if cached is None:
            if src_idx == dst_idx:
                cached = ()
            else:
                dist = self.distance_matrix()
                want = dist[src_idx, dst_idx] - 1
                cached = tuple(
                    (nb_idx, lid)
                    for nb_idx, lid in self._neighbor_links()[src_idx]
                    if dist[nb_idx, dst_idx] == want
                )
            self._next_hop_table[key] = cached
        return cached

    # ------------------------------------------------------------------
    # distances and shortest routes
    # ------------------------------------------------------------------
    def distance(self, u: Proc, v: Proc) -> int:
        """Hop distance between two processors.

        A label view of the all-pairs matrix; loops over many pairs should
        index :meth:`distance_matrix` themselves.
        """
        d = self._hops()[self._proc_index[u], self._proc_index[v]]
        if d == np.inf:
            raise self._unreachable(u, v)
        return int(d)

    @property
    def diameter(self) -> int:
        """Maximum hop distance over all connected processor pairs."""
        hops = self._hops()
        return int(hops[np.isfinite(hops)].max())

    def next_hops(self, here: Proc, dest: Proc) -> list[Proc]:
        """Neighbours of *here* lying on some shortest path to *dest*.

        This is the choice set MM-Route builds its bipartite graphs from:
        each candidate neighbour corresponds to a candidate first-hop link.
        """
        if here == dest:
            return []
        hops, index = self._hops(), self._proc_index
        j = index[dest]
        want = hops[index[here], j] - 1
        if want == np.inf:  # inf - 1 == inf would match every neighbour
            raise self._unreachable(here, dest)
        return [nb for nb in self._adj[here] if hops[index[nb], j] == want]

    def shortest_routes(
        self, src: Proc, dst: Proc, *, limit: int = 64
    ) -> list[list[Proc]]:
        """All shortest processor paths from *src* to *dst* (up to *limit*).

        Each route includes both endpoints; ``src == dst`` yields the single
        trivial route ``[src]``.  The enumeration walks the shortest-path
        DAG breadth-first, so the result is exactly the paper's "table of
        possible choices for the shortest routes".
        """
        routes: list[list[Proc]] = []
        queue: deque[list[Proc]] = deque([[src]])
        while queue and len(routes) < limit:
            path = queue.popleft()
            here = path[-1]
            if here == dst:
                routes.append(path)
                continue
            for nb in self.next_hops(here, dst):
                queue.append(path + [nb])
        return routes

    def route_links(self, route: list[Proc]) -> list[int]:
        """The 1-based link numbers along a processor route.

        Results are memoized per route (the simulator and METRICS resolve
        the same routes repeatedly); the cache stores immutable tuples and
        every call returns a fresh list, so callers may mutate freely.
        Hot paths that never mutate should call :meth:`route_link_ids`,
        which hands out the cached tuple without copying.
        """
        return list(self.route_link_ids(route))

    def route_link_ids(self, route: list[Proc]) -> tuple[int, ...]:
        """The 1-based link numbers along a route, as the cached tuple.

        Zero-copy variant of :meth:`route_links`: the returned tuple *is*
        the cache entry, so it must not be mutated (it can't be -- tuples
        are immutable) and identical routes return the identical object.
        """
        key = tuple(route)
        cached = self._route_links_cache.get(key)
        if cached is None:
            cached = tuple(self.link_id(a, b) for a, b in zip(route, route[1:]))
            self._route_links_cache[key] = cached
        return cached

    #: Sorted ``u * P + v`` keys of the directed links and their ids, built
    #: on first use (a class default, so pickles that predate it load).
    _pair_links: tuple[np.ndarray, np.ndarray] | None = None

    def path_link_ids(
        self, ptr: np.ndarray, hops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The links along packed index paths
        (:meth:`repro.mapper.Mapping.index_paths`), as ``(lptr, lids,
        broken)``: path ``i``'s link ids are ``lids[lptr[i]:lptr[i + 1]]``,
        0 marks a hop no link makes (or one from or to index -1), and
        ``broken[i]`` says path ``i`` has such a hop."""
        lptr = np.zeros(ptr.size, dtype=np.int64)
        np.cumsum(np.maximum(np.diff(ptr) - 1, 0), out=lptr[1:])
        inner = np.ones(max(hops.size - 1, 0), dtype=bool)
        last = ptr[1:] - 1  # no hop leaves a path's last processor
        inner[last[(last >= 0) & (last < inner.size)]] = False
        u, v = hops[:-1][inner], hops[1:][inner]
        if self._pair_links is None:
            n = len(self._procs)
            pairs = [(i * n + nb, lid) for i, row in enumerate(self._neighbor_links())
                     for nb, lid in row]
            pairs.append((n * n, 0))  # a sentinel above every key
            table = np.array(sorted(pairs), dtype=np.int64)
            self._pair_links = table[:, 0].copy(), table[:, 1].copy()
        keys, ids = self._pair_links
        query = u.astype(np.int64) * len(self._procs) + v
        at = np.searchsorted(keys, query)
        found = (keys[at] == query) & (u >= 0) & (v >= 0)
        broken = np.zeros(ptr.size - 1, dtype=bool)
        broken[np.searchsorted(lptr, np.flatnonzero(~found), "right") - 1] = True
        return lptr, np.where(found, ids[at], 0), broken

    def is_valid_route(self, route: list[Proc]) -> bool:
        """True when *route* is a walk along existing links."""
        if not route:
            return False
        return all(self.has_link(a, b) for a, b in zip(route, route[1:]))

    # ------------------------------------------------------------------
    # fault-aware degradation
    # ------------------------------------------------------------------
    def degrade(
        self,
        faults,
        *,
        name: str | None = None,
        allow_disconnected: bool = False,
    ) -> "Topology":
        """The surviving machine after applying a fault set.

        *faults* is any object exposing ``failed_procs`` (iterable of
        processor labels), ``failed_links`` (iterable of 2-element link
        sets/tuples) and ``degraded_links`` (mapping of link -> slowdown
        factor >= 1.0) -- canonically a :class:`repro.resilience.FaultSet`.

        Returns a **new** :class:`Topology` containing only the surviving
        processors and links, with its own index bijection, link numbering
        and distance matrix, so it can never serve pristine-machine
        answers.  Surviving degraded links land in the result's
        :attr:`link_slowdowns`, keyed by the *new* link numbering.

        On a machine with :attr:`capacities`, the survivors keep their
        capacity vectors and the failed processors' capacity disappears
        with them -- the degraded machine's aggregate budget genuinely
        shrinks.  When the fault set touches no processor and no link
        (slowdown-only degradation), the machine's *structure* is
        unchanged, so the result shares the parent's distance and
        next-hop caches instead of recomputing them -- hop distances do
        not depend on bandwidth factors.

        Raises
        ------
        ValueError
            When a fault references a processor or link this topology does
            not have, or when every processor fails.
        DisconnectedTopologyError
            When the surviving machine is disconnected (unless
            *allow_disconnected*, for component-structure analysis).
        """
        failed_procs = set(faults.failed_procs)
        failed_links = {frozenset(l) for l in faults.failed_links}
        degraded = {frozenset(l): f for l, f in dict(faults.degraded_links).items()}

        unknown_procs = failed_procs - set(self._procs)
        if unknown_procs:
            raise ValueError(
                f"fault set names processors not in topology {self.name!r}: "
                f"{sorted(unknown_procs, key=repr)!r}"
            )
        have_links = set(self._links)
        unknown_links = (failed_links | set(degraded)) - have_links
        if unknown_links:
            raise ValueError(
                f"fault set names links not in topology {self.name!r}: "
                f"{sorted(tuple(sorted(l, key=repr)) for l in unknown_links)!r}"
            )
        doubly = failed_links & set(degraded)
        if doubly:
            raise ValueError(
                f"links marked both failed and degraded: "
                f"{sorted(tuple(sorted(l, key=repr)) for l in doubly)!r}"
            )

        survivors = [p for p in self._procs if p not in failed_procs]
        if not survivors:
            raise ValueError(
                f"fault set fails every processor of topology {self.name!r}"
            )
        live_links = [
            link
            for link in self._links
            if link not in failed_links and not (link & failed_procs)
        ]
        structural_same = not failed_procs and not failed_links
        sub = Topology(
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
        if structural_same:
            # Identical processor and link lists (and therefore identical
            # numbering): hop distances, adjacency tables, and route-link
            # memos are all valid for the child, so share them by
            # reference rather than re-deriving.  Entries memoized through
            # either object stay correct for both.
            sub._dist_matrix = self._dist_matrix
            sub._degree_array = self._degree_array
            sub._nbr_links = self._nbr_links
            sub._next_hop_table = self._next_hop_table
            sub._route_links_cache = self._route_links_cache
            sub._structural_key = self._structural_key
        sub.link_slowdowns = {
            sub.link_id(*link): factor
            for link, factor in degraded.items()
            if sub.has_link(*link)
        }
        return sub

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name!r}: {self.n_processors} processors, "
            f"{self.n_links} links>"
        )
