"""Constructors for the regular interconnection networks OREGAMI targets.

Integer processor labels throughout: hypercubes use the bit-string labels
(processor ``i`` adjacent to ``i XOR 2^k``), meshes/tori use row-major
labels, cube-connected cycles and butterflies flatten their ``(level, row)``
coordinates.  The ``family`` tag feeds the canned-mapping registry.

The spec table at the bottom is the only string grammar for machines:
``parse_topology`` builds every flat family here and the hierarchy
generators of :mod:`repro.arch.hierarchy` (``fat_tree:4x8``,
``dragonfly:6x4``, ``node_core_tree:8x4``), and ``spec_processors``
counts what it would build.
"""

from __future__ import annotations

import math

from repro.arch.topology import Topology
from repro.util.validation import check_positive_int

__all__ = [
    "ring",
    "linear",
    "mesh",
    "torus",
    "hypercube",
    "complete",
    "star",
    "full_binary_tree",
    "cube_connected_cycles",
    "butterfly",
    "de_bruijn",
    "shuffle_exchange",
    "parse_topology",
    "spec_processors",
]


def ring(n: int) -> Topology:
    """A ring of *n* processors."""
    check_positive_int(n, "n")
    if n == 1:
        return Topology("ring1", [], nodes=[0], family=("ring", (1,)))
    if n == 2:
        return Topology("ring2", [(0, 1)], family=("ring", (2,)))
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Topology(f"ring{n}", edges, family=("ring", (n,)))


def linear(n: int) -> Topology:
    """A linear array (open chain) of *n* processors."""
    check_positive_int(n, "n")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Topology(f"linear{n}", edges, nodes=range(n), family=("linear", (n,)))


def mesh(rows: int, cols: int) -> Topology:
    """A *rows* x *cols* mesh, row-major labels."""
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return Topology(
        f"mesh{rows}x{cols}",
        edges,
        nodes=range(rows * cols),
        family=("mesh", (rows, cols)),
    )


def torus(rows: int, cols: int) -> Topology:
    """A *rows* x *cols* torus (wraparound mesh)."""
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for rr, cc in (((r + 1) % rows, c), (r, (c + 1) % cols)):
                j = rr * cols + cc
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return Topology(
        f"torus{rows}x{cols}",
        sorted(edges),
        nodes=range(rows * cols),
        family=("torus", (rows, cols)),
    )


def hypercube(dim: int) -> Topology:
    """A *dim*-dimensional hypercube of ``2**dim`` processors.

    Link numbering matches insertion order: dimension 0 links first,
    within a dimension in increasing lower-endpoint order.
    """
    if dim < 0:
        raise ValueError(f"dim must be >= 0, got {dim}")
    n = 1 << dim
    edges = []
    for k in range(dim):
        for i in range(n):
            j = i ^ (1 << k)
            if i < j:
                edges.append((i, j))
    return Topology(
        f"hypercube{dim}", edges, nodes=range(n), family=("hypercube", (dim,))
    )


def complete(n: int) -> Topology:
    """A completely connected network of *n* processors."""
    check_positive_int(n, "n")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Topology(f"complete{n}", edges, nodes=range(n), family=("complete", (n,)))


def star(n: int) -> Topology:
    """A star: processor 0 linked to each of ``1..n-1``."""
    check_positive_int(n, "n")
    edges = [(0, i) for i in range(1, n)]
    return Topology(f"star{n}", edges, nodes=range(n), family=("star", (n,)))


def full_binary_tree(depth: int) -> Topology:
    """A full binary tree of processors, heap labels."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    n = (1 << (depth + 1)) - 1
    edges = []
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                edges.append((i, child))
    return Topology(
        f"fbt{depth}", edges, nodes=range(n), family=("full_binary_tree", (depth,))
    )


def cube_connected_cycles(dim: int) -> Topology:
    """The cube-connected cycles CCC(dim): ``dim * 2**dim`` processors.

    Processor ``(i, k)`` (cube position *i*, cycle position *k*) is flattened
    to label ``i * dim + k``.  Cycle links join consecutive cycle positions;
    the cube link at position *k* joins ``(i, k)`` to ``(i XOR 2^k, k)``.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    n = 1 << dim

    def label(i: int, k: int) -> int:
        return i * dim + k

    edges = set()
    for i in range(n):
        for k in range(dim):
            if dim > 1:
                a, b = label(i, k), label(i, (k + 1) % dim)
                edges.add((min(a, b), max(a, b)))
            a, b = label(i, k), label(i ^ (1 << k), k)
            edges.add((min(a, b), max(a, b)))
    return Topology(
        f"ccc{dim}",
        sorted(edges),
        nodes=range(n * dim),
        family=("cube_connected_cycles", (dim,)),
    )


def de_bruijn(dim: int) -> Topology:
    """The binary de Bruijn network DB(dim): ``2**dim`` processors.

    Processor *x* links to its shift successors ``(2x) mod n`` and
    ``(2x+1) mod n`` (undirected).  Diameter ``dim`` with only constant
    degree -- the classic low-diameter alternative to the hypercube.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    n = 1 << dim
    edges = set()
    for x in range(n):
        for succ in ((2 * x) % n, (2 * x + 1) % n):
            if x != succ:
                edges.add((min(x, succ), max(x, succ)))
    return Topology(
        f"debruijn{dim}", sorted(edges), nodes=range(n), family=("de_bruijn", (dim,))
    )


def shuffle_exchange(dim: int) -> Topology:
    """The shuffle-exchange network SE(dim): ``2**dim`` processors.

    *Exchange* links flip the low bit (``x`` to ``x XOR 1``); *shuffle*
    links rotate the bit string left (``x`` to ``2x mod (n-1)``, with
    ``n-1`` fixed).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    n = 1 << dim
    edges = set()
    for x in range(n):
        ex = x ^ 1
        if x != ex:
            edges.add((min(x, ex), max(x, ex)))
        shuffled = ((x << 1) | (x >> (dim - 1))) & (n - 1)
        if x != shuffled:
            edges.add((min(x, shuffled), max(x, shuffled)))
    return Topology(
        f"shuffleexchange{dim}",
        sorted(edges),
        nodes=range(n),
        family=("shuffle_exchange", (dim,)),
    )


def butterfly(k: int) -> Topology:
    """The *k*-dimensional butterfly: ``(k+1) * 2**k`` processors.

    Processor ``(level, row)`` flattens to ``level * 2**k + row``; level
    ``l`` connects to level ``l+1`` by straight and cross (bit *l*) links.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = 1 << k

    def label(level: int, row: int) -> int:
        return level * n + row

    edges = []
    for level in range(k):
        for row in range(n):
            edges.append((label(level, row), label(level + 1, row)))
            edges.append((label(level, row), label(level + 1, row ^ (1 << level))))
    return Topology(
        f"butterfly{k}", edges, nodes=range((k + 1) * n), family=("butterfly", (k,))
    )


def _pow2(exponent: int) -> int:
    # saturating: a spec's integers are untrusted, 2**(10**9) is itself a bomb
    return 1 << max(0, min(exponent, 62))


def _hierarchy():
    # hierarchy.py imports this module, so the hierarchy generators are
    # looked up when a spec is built rather than at import time
    from repro.arch import hierarchy

    return hierarchy


def _product(*sizes: int) -> int:
    return math.prod(sizes)


#: The one machine-spec grammar, ``family:N`` / ``family:RxC`` /
#: ``fat_tree:AxBx...``: per family, how many sizes it takes (``None``:
#: one or more), the builder, and the processor count it will produce
#: from the same sizes.  Every fat-tree arity is >= 2 or the generator
#: refuses before building anything, so 62 levels already saturate.
_SIZES, _BUILD, _COUNT = 0, 1, 2
_TOPOLOGY_BUILDERS = {
    "ring": (1, ring, _product),
    "linear": (1, linear, _product),
    "mesh": (2, mesh, _product),
    "torus": (2, torus, _product),
    "hypercube": (1, hypercube, _pow2),
    "complete": (1, complete, _product),
    "star": (1, star, _product),
    "tree": (1, full_binary_tree, lambda d: 2 * _pow2(d) - 1),
    "ccc": (1, cube_connected_cycles, lambda d: d * _pow2(d)),
    "butterfly": (1, butterfly, lambda k: (k + 1) * _pow2(k)),
    "fat_tree": (None, lambda *a: _hierarchy().fat_tree(a),
                 lambda *a: math.prod(a[:62])),
    "dragonfly": (2, lambda g, r: _hierarchy().dragonfly(g, r), _product),
    "node_core_tree": (2, lambda n, c: _hierarchy().node_core_tree(n, c),
                       _product),
}


def _apply_spec(spec: str, column: int):
    name, _, params = spec.partition(":")
    name = name.strip().lower()
    if name not in _TOPOLOGY_BUILDERS:
        raise ValueError(
            f"unknown topology {name!r}; choose from "
            f"{', '.join(sorted(_TOPOLOGY_BUILDERS))}"
        )
    row = _TOPOLOGY_BUILDERS[name]
    try:
        args = [int(p) for p in params.replace("x", ",").split(",") if p]
        if not args or len(args) != (row[_SIZES] or len(args)):
            raise ValueError(f"{name} takes {row[_SIZES] or 'one or more'} size(s)")
        return row[column](*args)
    except ValueError as exc:
        raise ValueError(f"bad topology spec {spec!r}: {exc}") from exc


def parse_topology(spec: str) -> Topology:
    """Parse a spec like ``hypercube:3``, ``mesh:4x4`` or ``fat_tree:4x8``."""
    return _apply_spec(spec, _BUILD)


def spec_processors(spec: str) -> int:
    """How many processors ``parse_topology(spec)`` would build, from the
    spec's integers alone (nothing is constructed; exponential families
    saturate at ``2**62``)."""
    return _apply_spec(spec, _COUNT)
