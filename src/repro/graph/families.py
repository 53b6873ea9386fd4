"""Generators for the well-known ("nameable") task-graph families.

MAPPER's first-class path handles computations whose structure "can be
described as belonging to a well-known graph family such as ring, mesh,
hypercube, full binary tree, etc." (Section 4.1).  These constructors build
such task graphs directly and tag them with a ``(family, params)`` pair so
the dispatcher can hash into the canned-mapping registry.

All families label tasks with ints ``0..n-1`` (multi-dimensional structures
use row-major order) so the same graphs also exercise the group-theoretic
path when they happen to be Cayley graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.phase_expr import PhaseRef, Rep, Seq, parse_phase_expr
from repro.graph.taskgraph import CommEdge, TaskGraph
from repro.util.rng import Stream
from repro.util.validation import check_positive_int, check_power_of_two

__all__ = [
    "ring",
    "nbody",
    "linear",
    "mesh",
    "torus",
    "hypercube",
    "full_binary_tree",
    "binomial_tree",
    "fft_butterfly",
    "complete",
    "star",
    "random_geometric",
    "kron",
]


def ring(n: int, *, volume: float = 1.0) -> TaskGraph:
    """A directed ring of *n* tasks: ``i -> (i+1) mod n``."""
    check_positive_int(n, "n")
    tg = TaskGraph(f"ring{n}", family=("ring", (n,)), node_symmetric_hint=True)
    tg.add_nodes(range(n))
    ph = tg.add_comm_phase("ring")
    for i in range(n):
        ph.add(i, (i + 1) % n, volume)
    tg.phase_expr = Rep(Seq((PhaseRef("ring"), PhaseRef("compute"))), n)
    tg.add_exec_phase("compute")
    return tg


def nbody(n: int, *, volume: float = 1.0, sweeps: int = 1) -> TaskGraph:
    """The n-body chordal ring of Fig 2: ring plus half-way chords.

    Requires odd *n* (each task's chordal partner is ``(i + (n+1)/2) mod n``,
    well-defined only for odd *n* -- Seitz's algorithm halves the force
    computations using Newton's third law).  The phase expression is the
    paper's ``((ring; compute1)^((n+1)/2); chordal; compute2)^s``.
    """
    check_positive_int(n, "n")
    if n % 2 == 0:
        raise ValueError(f"the n-body chordal ring requires odd n, got {n}")
    check_positive_int(sweeps, "sweeps")
    tg = TaskGraph(f"nbody{n}", family=("nbody", (n,)), node_symmetric_hint=True)
    tg.add_nodes(range(n))
    ringp = tg.add_comm_phase("ring")
    chord = tg.add_comm_phase("chordal")
    half = (n + 1) // 2
    for i in range(n):
        ringp.add(i, (i + 1) % n, volume)
        chord.add(i, (i + half) % n, volume)
    tg.add_exec_phase("compute1")
    tg.add_exec_phase("compute2")
    tg.phase_expr = Rep(
        Seq(
            (
                Rep(Seq((PhaseRef("ring"), PhaseRef("compute1"))), half),
                PhaseRef("chordal"),
                PhaseRef("compute2"),
            )
        ),
        sweeps,
    )
    return tg


def linear(n: int, *, volume: float = 1.0) -> TaskGraph:
    """A bidirectional linear array (open chain) of *n* tasks."""
    check_positive_int(n, "n")
    tg = TaskGraph(f"linear{n}", family=("linear", (n,)))
    tg.add_nodes(range(n))
    right = tg.add_comm_phase("right")
    left = tg.add_comm_phase("left")
    for i in range(n - 1):
        right.add(i, i + 1, volume)
        left.add(i + 1, i, volume)
    tg.phase_expr = parse_phase_expr("(right; left)^1")
    return tg


def mesh(rows: int, cols: int, *, volume: float = 1.0) -> TaskGraph:
    """A *rows* x *cols* mesh; row-major integer labels; 4 directional phases.

    The phase structure mirrors the Jacobi-style stencil computations the
    paper lists among its LaRCS examples.
    """
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    tg = TaskGraph(f"mesh{rows}x{cols}", family=("mesh", (rows, cols)))
    n = rows * cols
    tg.add_nodes(range(n))
    phases = {d: tg.add_comm_phase(d) for d in ("north", "south", "east", "west")}
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if r > 0:
                phases["north"].add(i, i - cols, volume)
            if r < rows - 1:
                phases["south"].add(i, i + cols, volume)
            if c < cols - 1:
                phases["east"].add(i, i + 1, volume)
            if c > 0:
                phases["west"].add(i, i - 1, volume)
    tg.add_exec_phase("relax")
    tg.phase_expr = parse_phase_expr("(north; south; east; west; relax)^1")
    return tg


def torus(rows: int, cols: int, *, volume: float = 1.0) -> TaskGraph:
    """A *rows* x *cols* torus (wraparound mesh); node symmetric."""
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    tg = TaskGraph(
        f"torus{rows}x{cols}",
        family=("torus", (rows, cols)),
        node_symmetric_hint=True,
    )
    n = rows * cols
    tg.add_nodes(range(n))
    phases = {d: tg.add_comm_phase(d) for d in ("north", "south", "east", "west")}
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            phases["north"].add(i, ((r - 1) % rows) * cols + c, volume)
            phases["south"].add(i, ((r + 1) % rows) * cols + c, volume)
            phases["east"].add(i, r * cols + (c + 1) % cols, volume)
            phases["west"].add(i, r * cols + (c - 1) % cols, volume)
    tg.add_exec_phase("relax")
    tg.phase_expr = parse_phase_expr("(north; south; east; west; relax)^1")
    return tg


def hypercube(dim: int, *, volume: float = 1.0) -> TaskGraph:
    """A *dim*-dimensional hypercube of ``2**dim`` tasks, one phase per dimension.

    Phase ``dim{k}`` exchanges along bit *k*: ``i -> i XOR 2^k``.  Each such
    phase is a bijection (an involution), so hypercube task graphs are
    Cayley graphs -- the canonical input to group-theoretic contraction.
    """
    if dim < 0:
        raise ValueError(f"dim must be >= 0, got {dim}")
    n = 1 << dim
    tg = TaskGraph(
        f"hypercube{dim}", family=("hypercube", (dim,)), node_symmetric_hint=True
    )
    tg.add_nodes(range(n))
    for k in range(dim):
        ph = tg.add_comm_phase(f"dim{k}")
        for i in range(n):
            ph.add(i, i ^ (1 << k), volume)
    tg.add_exec_phase("compute")
    if dim:
        tg.phase_expr = Seq(
            tuple(
                Seq((PhaseRef(f"dim{k}"), PhaseRef("compute"))) for k in range(dim)
            )
        )
    return tg


def full_binary_tree(depth: int, *, volume: float = 1.0) -> TaskGraph:
    """A full binary tree of the given depth (``2**(depth+1) - 1`` tasks).

    Heap labeling: node *i* has children ``2i+1`` and ``2i+2``.  Two phases:
    ``down`` (parent to children) and ``up`` (children to parent) -- the
    divide / combine traffic of tree-structured algorithms.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    n = (1 << (depth + 1)) - 1
    tg = TaskGraph(f"fbt{depth}", family=("full_binary_tree", (depth,)))
    tg.add_nodes(range(n))
    down = tg.add_comm_phase("down")
    up = tg.add_comm_phase("up")
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                down.add(i, child, volume)
                up.add(child, i, volume)
    tg.add_exec_phase("work")
    tg.phase_expr = parse_phase_expr("down; work; up")
    return tg


def binomial_tree(order: int, *, volume: float = 1.0) -> TaskGraph:
    """The binomial tree ``B_order`` on ``2**order`` tasks.

    ``B_0`` is a single node; ``B_k`` joins two copies of ``B_{k-1}`` by an
    edge between their roots.  With the standard binary labeling (root 0;
    the children of node *x* are ``x | 2^j`` for all *j* below the lowest
    set bit of *x*, or all *j* for the root), the tree edges connect labels
    differing in exactly one bit.  [LRG+89] shows this is the natural task
    graph of parallel divide-and-conquer.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    n = 1 << order
    tg = TaskGraph(f"binomial{order}", family=("binomial_tree", (order,)))
    tg.add_nodes(range(n))
    divide = tg.add_comm_phase("divide")
    combine = tg.add_comm_phase("combine")
    for x in range(n):
        low = order if x == 0 else (x & -x).bit_length() - 1
        for j in range(low):
            child = x | (1 << j)
            divide.add(x, child, volume)
            combine.add(child, x, volume)
    tg.add_exec_phase("solve")
    tg.phase_expr = parse_phase_expr("divide; solve; combine")
    return tg


def fft_butterfly(n: int, *, volume: float = 1.0) -> TaskGraph:
    """The FFT communication pattern on *n* tasks (*n* a power of two).

    ``log2 n`` phases; phase *s* exchanges ``i <-> i XOR 2^s``.  Structurally
    the same edges as :func:`hypercube` but with the FFT's stage-ordered
    phase expression ``(fly0; compute); (fly1; compute); ..``.
    """
    check_power_of_two(n, "n")
    stages = n.bit_length() - 1
    tg = TaskGraph(f"fft{n}", family=("fft_butterfly", (n,)), node_symmetric_hint=True)
    tg.add_nodes(range(n))
    for s in range(stages):
        ph = tg.add_comm_phase(f"fly{s}")
        for i in range(n):
            ph.add(i, i ^ (1 << s), volume)
    tg.add_exec_phase("compute")
    if stages:
        tg.phase_expr = Seq(
            tuple(Seq((PhaseRef(f"fly{s}"), PhaseRef("compute"))) for s in range(stages))
        )
    return tg


def complete(n: int, *, volume: float = 1.0) -> TaskGraph:
    """The complete graph: every task messages every other (all-to-all)."""
    check_positive_int(n, "n")
    tg = TaskGraph(f"complete{n}", family=("complete", (n,)), node_symmetric_hint=True)
    tg.add_nodes(range(n))
    ph = tg.add_comm_phase("all")
    for i in range(n):
        for j in range(n):
            if i != j:
                ph.add(i, j, volume)
    return tg


def star(n: int, *, volume: float = 1.0) -> TaskGraph:
    """A star: task 0 broadcasts to and gathers from tasks ``1..n-1``."""
    check_positive_int(n, "n")
    tg = TaskGraph(f"star{n}", family=("star", (n,)))
    tg.add_nodes(range(n))
    bcast = tg.add_comm_phase("broadcast")
    gather = tg.add_comm_phase("gather")
    for i in range(1, n):
        bcast.add(0, i, volume)
        gather.add(i, 0, volume)
    tg.add_exec_phase("work")
    tg.phase_expr = parse_phase_expr("broadcast; work; gather")
    return tg


# ----------------------------------------------------------------------
# large synthetic families (the multilevel mapper's scaling inputs)
# ----------------------------------------------------------------------

def _radius_pairs(points: np.ndarray, radius: float) -> np.ndarray:
    """All point-index pairs ``(i, j)``, ``i < j``, within *radius* (sorted).

    A cell grid over the unit square: ``m x m`` cells of side ``1/m >
    radius`` (one cell if the radius is wider; no more cells than points),
    plus an empty pad row at each end of a column, sorted once by
    (column, row).  A point's partners are then two runs of that order:
    the rest of its own cell with the cell above, and rows -1..+1 of the
    next column.  A pair is kept when ``dx*dx + dy*dy <= radius*radius``,
    the test cKDTree applied.
    """
    n = len(points)
    m = max(1, int(min(1.0 / radius - 1.0, n**0.5)))
    cell = (points * m).astype(np.int64)
    key = cell[:, 0] * (m + 2) + cell[:, 1] + 1
    order = np.argsort(key, kind="stable")
    key = key[order]
    x, y = points[order, 0], points[order, 1]
    pos = np.arange(n)
    starts = np.concatenate((pos + 1, np.searchsorted(key, key + m + 1)))
    ends = np.concatenate((
        np.searchsorted(key, key + 1, side="right"),
        np.searchsorted(key, key + m + 3, side="right"),
    ))
    lengths = ends - starts
    owner = np.repeat(np.tile(pos, 2), lengths)
    partner = np.repeat(ends - np.cumsum(lengths), lengths) + np.arange(len(owner))
    dx, dy = x[owner] - x[partner], y[owner] - y[partner]
    near = dx * dx + dy * dy <= radius * radius
    i, j = order[owner[near]], order[partner[near]]
    flat = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    return np.stack((flat // n, flat % n), axis=1)


def random_geometric(
    n: int,
    radius: float | None = None,
    *,
    seed: int = 0,
    volume: float = 1.0,
) -> TaskGraph:
    """A random geometric graph: *n* tasks at seeded uniform points in the
    unit square, one message per pair at most *radius* apart.

    The standard model for spatially-local irregular workloads
    (unstructured meshes, particle codes) and a scaling input for the
    multilevel mapper -- unlike the nameable families it has no canned
    mapping and no group structure.  The default radius targets an
    expected degree of ~8, keeping edge counts linear in *n*.

    Deterministic for a given ``(n, radius, seed)``, *seed* a non-negative
    int: points come from the seeded PCG64 stream of
    :class:`repro.util.rng.Stream` (the bits numpy's ``default_rng(seed)``
    draws, computed in-tree, so the graph is also independent of numpy's
    ``Generator`` version) and the pair list is sorted, so the same graph
    (same fingerprint) is built on any platform.
    """
    check_positive_int(n, "n")
    if radius is None:
        radius = float(np.sqrt(8.0 / (np.pi * n)))
    if not radius > 0:  # NaN too
        raise ValueError(f"radius must be positive, got {radius}")
    points = Stream(seed).random(2 * n).reshape(n, 2)
    pairs = _radius_pairs(points, radius)
    tg = TaskGraph(
        f"rgg{n}", family=("random_geometric", (n, radius, seed))
    )
    tg.add_nodes(range(n))
    labels = tg.nodes
    ph = tg.add_comm_phase("exchange")
    # Bulk extend: one CommEdge per pair, declaration order = sorted pair
    # order, each endpoint the node's own label object rather than a fresh
    # int per edge.  (The derived-structure caches key on the edge count,
    # so appends outside add_edge are picked up.)
    ph.edges.extend(
        CommEdge(labels[u], labels[v], volume)
        for u, v in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())
    )
    tg.add_exec_phase("interact")
    tg.phase_expr = parse_phase_expr("(exchange; interact)^1")
    return tg


def kron(
    scale: int,
    edge_factor: int = 16,
    *,
    seed: int = 0,
    volume: float = 1.0,
) -> TaskGraph:
    """A Kronecker (R-MAT) power-law graph: ``2**scale`` tasks,
    ``edge_factor * 2**scale`` directed message samples.

    The Graph500 generator with the reference initiator
    ``(A, B, C) = (0.57, 0.19, 0.19)``: each edge picks its endpoint bits
    top-down with those quadrant probabilities, yielding the heavy-tailed
    degree distribution that stresses a mapper very differently from
    meshes -- a few hub tasks touch thousands of partners.  Self-loops
    are dropped and parallel samples fold into one edge whose volume is
    the sample count (times *volume*), so the static graph is weighted.

    Deterministic for a given ``(scale, edge_factor, seed)``, *seed* a
    non-negative int: the ``2 * scale`` draws of *m* doubles continue one
    :class:`repro.util.rng.Stream`, independent of numpy's ``Generator``
    version.
    """
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    check_positive_int(edge_factor, "edge_factor")
    rng = Stream(seed)
    n = 1 << scale
    m = edge_factor * n
    a, b, c = 0.57, 0.19, 0.19
    ab = a + b
    c_norm = c / (1.0 - ab)
    a_norm = a / ab
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        src_bit = rng.random(m) > ab
        dst_bit = rng.random(m) > np.where(src_bit, c_norm, a_norm)
        src += src_bit.astype(np.int64) << bit
        dst += dst_bit.astype(np.int64) << bit
    keep = src != dst
    key = src[keep] * np.int64(n) + dst[keep]
    uniq, counts = np.unique(key, return_counts=True)
    tg = TaskGraph(
        f"kron{scale}", family=("kron", (scale, edge_factor, seed))
    )
    tg.add_nodes(range(n))
    labels = tg.nodes
    ph = tg.add_comm_phase("exchange")
    ph.edges.extend(
        CommEdge(labels[u], labels[v], volume * cnt)
        for u, v, cnt in zip(
            (uniq // n).tolist(), (uniq % n).tolist(), counts.tolist()
        )
    )
    tg.add_exec_phase("process")
    tg.phase_expr = parse_phase_expr("(exchange; process)^1")
    return tg
