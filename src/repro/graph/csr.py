"""Array-native (CSR) view of a task graph's static structure.

:class:`CSRGraph` is the static view every mapper reads: the undirected
aggregate weights, plus the raw directed edge stream, as numpy arrays
indexed by the graph's *task index* (declaration order -- the same stable
bijection convention as the Topology's processor index), sized for the
10^5..10^6-task graphs the multilevel mapper targets.
:meth:`~repro.graph.taskgraph.TaskGraph.static_graph` converts the same
aggregate to networkx for callers that want graph algorithms; the orders
below are stated against it because the tests hold the two together.

Three coordinated views live in one bundle:

* **directed stream** -- ``src`` / ``dst`` / ``vol``, one entry per message
  edge across all phases *in declaration order* (self-loops included).
  Edge folds that must accumulate floats in declaration order (the dict
  reference kernels do) drive ``np.add.at`` over these arrays.
* **folded pairs** -- ``edge_u`` / ``edge_v`` / ``edge_w``: each undirected
  task pair once, self-loops dropped, volumes of parallel and antiparallel
  messages accumulated *in declaration order* (bit-identical to the nx
  ``+=`` fold), listed in exactly the order ``static_graph().edges``
  iterates -- node-major by the lower-indexed endpoint, adjacency
  insertion order within it.  MWM-Contract's candidate generation reads
  this stream so its matchings are unchanged from the nx path.
* **CSR adjacency** -- ``indptr`` / ``indices`` / ``weights``: symmetric,
  columns ascending within each row.  The multilevel coarsener and the
  delta-gain refiner's batched kernels index this directly.

Index arrays (``src``, ``dst``, ``edge_u``, ``edge_v``, ``indices``) are
int32; ``indptr`` is intp and every float array float64.  Any key formed
from two indices (``u * n + v``) must be formed in intp: in int32 it wraps
once n^2 > 2^31.  When the fold is the identity -- no self-loops, no pair
repeated, the stream already in fold order, as for a random geometric
graph -- ``edge_u`` / ``edge_v`` / ``edge_w`` *are* ``src`` / ``dst`` /
``vol``, one set of arrays.  ``index`` is the graph's own
:meth:`~repro.graph.taskgraph.TaskGraph.task_index` dict.

The bundle is read-only: every array has ``writeable=False``, so no
reader can write through the sharing.  :meth:`TaskGraph.csr` caches it
behind the mutation counter and the total edge count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from collections.abc import Hashable

import numpy as np

__all__ = ["CSRGraph", "adjacency", "build_csr"]

Node = Hashable


@dataclass(frozen=True)
class CSRGraph:
    """Flat-array static view of a task graph (see module docstring)."""

    #: Task count; task index ``i`` is the i-th declared task.
    n: int
    #: Task label per index (declaration order).
    tasks: tuple
    #: Task label -> index (the inverse of ``tasks``).
    index: dict = field(repr=False)
    #: Node weight per index.
    node_weights: np.ndarray = field(repr=False)
    # -- directed message stream, declaration order (self-loops included) --
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    vol: np.ndarray = field(repr=False)
    # -- folded undirected pairs, static_graph() edge-iteration order ------
    edge_u: np.ndarray = field(repr=False)
    edge_v: np.ndarray = field(repr=False)
    edge_w: np.ndarray = field(repr=False)
    # -- symmetric CSR adjacency, ascending columns per row ----------------
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def nnz(self) -> int:
        """Stored CSR entries (twice the folded pair count)."""
        return int(self.indices.size)

    def degrees(self) -> np.ndarray:
        """Distinct-neighbour count per task index."""
        return np.diff(self.indptr)

    def rows(self) -> np.ndarray:
        """The row index of every CSR entry (``np.repeat`` expansion)."""
        return np.repeat(np.arange(self.n, dtype=np.intp), self.degrees())

    def pair_weight_map(self) -> dict[tuple[int, int], float]:
        """``(u, v) -> weight`` with ``u < v`` -- for sparse point lookups.

        Built on demand (O(pairs)); values are the same declaration-order
        accumulated floats as ``static_graph()`` edge weights.
        """
        return {
            (int(u), int(v)): float(w)
            for u, v, w in zip(self.edge_u, self.edge_v, self.edge_w)
        }

    def __repr__(self) -> str:  # keep the array fields out of repr
        return f"<CSRGraph: {self.n} tasks, {self.edge_u.size} pairs>"


def adjacency(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """Symmetric CSR ``(indptr, indices, weights)`` of distinct pairs.

    Both directions of every pair ``(u[k], v[k], w[k])`` (``u != v``, no
    pair twice), columns ascending within each row.  The ``row * n + col``
    keys are distinct, so sorting them orders the entries exactly as a
    (row, col) lexsort does, in a third of its time.  (The stable sort:
    the default kind pages in numpy's SIMD sort kernels, ~0.3 MB of
    resident code a small-graph process does not otherwise touch.)
    """
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    key = rows.astype(np.intp)
    key *= n
    key += cols
    order = np.argsort(key, kind="stable")
    del key
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], np.concatenate([w, w])[order]


def build_csr(tg) -> CSRGraph:
    """Build the :class:`CSRGraph` bundle for a task graph.

    Invoked (and cached) by :meth:`TaskGraph.csr`; import-cycle-free
    because it only reads the public TaskGraph surface.
    """
    tasks = tuple(tg.nodes)
    n = len(tasks)
    index = tg.task_index()
    node_weights = np.array([tg.node_weight(t) for t in tasks], dtype=np.float64)

    def stream(attr):  # one field of every message, declaration order
        edges = chain.from_iterable(ph.edges for ph in tg.comm_phases.values())
        return map(attrgetter(attr), edges)

    m, at = tg.n_edges, index.__getitem__
    src = np.fromiter(map(at, stream("src")), np.int32, m)
    dst = np.fromiter(map(at, stream("dst")), np.int32, m)
    vol = np.fromiter(stream("volume"), np.float64, m)

    # Fold to undirected pairs.  The nx static graph accumulates each
    # pair's volume with ``+=`` in declaration order; ``np.add.at`` applies
    # its updates in input order, so summing the declaration-order stream
    # into per-pair buckets reproduces those floats bit for bit.  Pair keys
    # are formed in intp: ``lo * n`` wraps int32 once n^2 > 2^31.
    keep = src != dst
    key = np.minimum(src, dst)[keep].astype(np.intp)
    key *= n
    key += np.maximum(src, dst)[keep]
    pvol = vol[keep]
    if key.size:
        uniq, first, inverse = np.unique(
            key, return_index=True, return_inverse=True
        )
        sums = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(sums, inverse, pvol)
        # static_graph().edges iterates node-major: all pairs whose lower
        # endpoint is task 0 first (in the order their first message edge
        # appeared), then task 1's, and so on.  ``first`` is each pair's
        # first position in the declaration stream, so (lo, first) sorts
        # the fold into exactly that order.
        lo, hi = np.divmod(uniq, n)
        order = np.lexsort((first, lo))
        edge_u = lo[order].astype(np.int32)
        edge_v = hi[order].astype(np.int32)
        edge_w = sums[order]
    else:
        edge_u = edge_v = np.empty(0, dtype=np.int32)
        edge_w = np.empty(0, dtype=np.float64)
    del key, pvol
    # An identity fold (no self-loops, no repeated pair, the stream already
    # in fold order) shares the stream's arrays.  Volumes compare by bits:
    # the fold turns a -0.0 into 0.0.
    if (
        np.array_equal(edge_u, src)
        and np.array_equal(edge_v, dst)
        and np.array_equal(edge_w.view(np.uint64), vol.view(np.uint64))
    ):
        edge_u, edge_v, edge_w = src, dst, vol

    indptr, indices, weights = adjacency(n, edge_u, edge_v, edge_w)
    arrays = dict(
        node_weights=node_weights, src=src, dst=dst, vol=vol,
        edge_u=edge_u, edge_v=edge_v, edge_w=edge_w,
        indptr=indptr, indices=indices, weights=weights,
    )
    for a in arrays.values():
        a.setflags(write=False)
    return CSRGraph(n=n, tasks=tasks, index=index, **arrays)
