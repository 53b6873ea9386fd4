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

The bundle is immutable by convention; :meth:`TaskGraph.csr` caches it
behind the mutation counter and the total edge count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable

import numpy as np

__all__ = ["CSRGraph", "build_csr"]

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


def build_csr(tg) -> CSRGraph:
    """Build the :class:`CSRGraph` bundle for a task graph.

    Invoked (and cached) by :meth:`TaskGraph.csr`; import-cycle-free
    because it only reads the public TaskGraph surface.
    """
    tasks = tuple(tg.nodes)
    n = len(tasks)
    index = {t: i for i, t in enumerate(tasks)}
    node_weights = np.array([tg.node_weight(t) for t in tasks], dtype=np.float64)

    srcs: list[int] = []
    dsts: list[int] = []
    vols: list[float] = []
    for ph in tg.comm_phases.values():
        for e in ph.edges:
            srcs.append(index[e.src])
            dsts.append(index[e.dst])
            vols.append(e.volume)
    src = np.asarray(srcs, dtype=np.intp)
    dst = np.asarray(dsts, dtype=np.intp)
    vol = np.asarray(vols, dtype=np.float64)

    # Fold to undirected pairs.  The nx static graph accumulates each
    # pair's volume with ``+=`` in declaration order; ``np.add.at`` applies
    # its updates in input order, so summing the declaration-order stream
    # into per-pair buckets reproduces those floats bit for bit.
    loop = src == dst
    lo = np.minimum(src, dst)[~loop]
    hi = np.maximum(src, dst)[~loop]
    pvol = vol[~loop]
    if lo.size:
        key = lo * np.intp(n) + hi
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
        order = np.lexsort((first, uniq // np.intp(n)))
        edge_u = (uniq // np.intp(n))[order]
        edge_v = (uniq % np.intp(n))[order]
        edge_w = sums[order]
    else:
        edge_u = np.empty(0, dtype=np.intp)
        edge_v = np.empty(0, dtype=np.intp)
        edge_w = np.empty(0, dtype=np.float64)

    # Symmetric CSR with ascending columns: both directions of every
    # folded pair, sorted by (row, col).
    rows = np.concatenate([edge_u, edge_v])
    cols = np.concatenate([edge_v, edge_u])
    vals = np.concatenate([edge_w, edge_w])
    order = np.lexsort((cols, rows))
    indices = cols[order]
    weights = vals[order]
    counts = np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)

    return CSRGraph(
        n=n,
        tasks=tasks,
        index=index,
        node_weights=node_weights,
        src=src,
        dst=dst,
        vol=vol,
        edge_u=edge_u,
        edge_v=edge_v,
        edge_w=edge_w,
        indptr=indptr,
        indices=indices,
        weights=weights.astype(np.float64, copy=False),
    )
