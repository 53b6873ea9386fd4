"""The maximum weight matching MAPPER runs.

Algorithm **MWM-Contract** (Section 4.3 of the paper) invokes a *maximum
weight matching* on the cluster graph to pair clusters so that the total
weight of internalised (intra-processor) communication is maximised, which
minimises the remaining interprocessor communication.  The matcher is an
in-tree blossom kernel, :func:`blossom_matching` (the paper used a library
``O(E V log V)`` routine in the same spirit; ours is the plain ``O(V^3)``
primal-dual method).  MM-Route's *maximal* matching (Section 4.4) is a
greedy loop inside :mod:`repro.mapper.routing.mm_route`; the dict-keyed
matcher, the greedy and exhaustive references and the matching predicates
the tests check this kernel with live in ``tests/oracles/matching.py``.

The kernel and its ordering contract
------------------------------------
Maximum weight matchings are rarely unique -- MWM-Contract's dense rounds
offer thousands of zero-weight pairs -- and everything downstream of the
matching (merge order, float summation order, embeddings, goldens) depends
on *which* optimum comes back and on the order the result set iterates in.
So the kernel pins both.  It works on integer-indexed flat lists:

* vertices are numbered ``0..n-1`` in **first-appearance order** of the edge
  stream (``u`` before ``v`` within an edge);
* ``nbrs[v]`` lists ``v``'s neighbours in **edge order**; a repeated pair, in
  either orientation, overwrites its weight and keeps its place;
* ``rows[v][w]`` is a dense per-vertex weight row, so the slack of an edge is
  computed inline as ``(dual[v] + dual[w]) - 2 * rows[v][w]`` (float
  arithmetic, in exactly this association);
* the S-vertex queue is **LIFO**, best-edge updates take a strictly smaller
  slack only (``<``: the first edge met wins ties), free vertices are
  labelled and duals scanned in vertex order, and live blossoms are visited
  in **creation order**;
* the result set is built by sequential ``add`` of ``(v, mate[v])`` for the
  vertices in the order they were first matched, skipping a pair whose
  reverse is present.

These are the choices of the blossom implementation in networkx (3.x), which
computed every matching before this kernel existed; the kernel reproduces its
matchings and set iteration order exactly, which ``tests/test_util_matching``
checks against the installed networkx and, independently of it, against the
recorded corpus in ``tests/data/matching_corpus.json``.  The two ``n x n``
tables (weights, allowable-edge stamps) make memory ``O(n^2)``; MWM-Contract
calls it with ``n <= 2P`` clusters.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from itertools import chain

__all__ = ["blossom_matching"]

Edge = tuple[Hashable, Hashable]


def blossom_matching(
    triples: Iterable[tuple[Hashable, Hashable, float]],
    *,
    maxcardinality: bool = False,
) -> set[Edge]:
    """Maximum weight matching over a stream of ``(u, v, weight)`` triples.

    The kernel entry point, for callers that can produce their edges
    directly (MWM-Contract's candidate pairs) without first keying them by
    tuple.  Vertices are numbered in
    first-appearance order of the stream, neighbour lists follow edge order,
    and a repeated pair (in either orientation) overwrites its weight
    without moving -- the ordering contract in the module docstring.

    Returns the matched pairs in the solver's orientation: each pair once,
    as ``(v, mate[v])`` for the first of its endpoints to be matched.
    """
    index: dict[Hashable, int] = {}
    ends: list[int] = []
    weights: list[float] = []
    for u, v, w in triples:
        if u == v:
            raise ValueError(f"self-loop {(u, v)!r} is not a valid matching edge")
        ends.append(index.setdefault(u, len(index)))
        ends.append(index.setdefault(v, len(index)))
        weights.append(float(w))
    labels = list(index)
    n = len(labels)
    if not n:
        return set()
    nbrs: list[list[int]] = [[] for _ in range(n)]
    rows: list[list[float | None]] = [[None] * n for _ in range(n)]
    for iu, iv, w in zip(ends[0::2], ends[1::2], weights):
        if rows[iu][iv] is None:
            nbrs[iu].append(iv)
            nbrs[iv].append(iu)
        rows[iu][iv] = rows[iv][iu] = w

    mate, matched = _blossom(nbrs, rows, maxcardinality)

    # Built by sequential adds from the vertices' matching order: the
    # iteration order of the returned set is part of the contract.
    pairs: set[Edge] = set()
    for v in matched:
        edge = (labels[v], labels[mate[v]])
        if edge[::-1] not in pairs:
            pairs.add(edge)
    return pairs


def _blossom(
    nbrs: list[list[int]],
    rows: list[list[float | None]],
    maxcardinality: bool,
) -> tuple[list[int], list[int]]:
    """Edmonds' blossom algorithm, primal-dual, on integer-indexed flat lists.

    Vertices are ``0..n-1``; ``nbrs[v]`` lists ``v``'s neighbours and
    ``rows[v][w]`` is the weight of edge ``(v, w)``.  Non-trivial blossoms
    take ids ``n..2n-1`` (recycled when a blossom is expanded), so every
    per-blossom table is one flat list indexed by vertex or blossom id.
    The control flow is Galil's formulation ("Efficient algorithms for
    finding maximum matching in graphs", ACM Computing Surveys 1986) as
    implemented by van Rantwijk and shipped in networkx, and every
    tie-break follows networkx (see the module docstring).

    Returns ``(mate, matched)``: ``mate[v]`` is ``v``'s partner or ``-1``,
    and ``matched`` lists the matched vertices in the order they first got
    a partner.
    """
    n = len(nbrs)
    n2 = 2 * n
    maxweight = max(0.0, max(rows[v][w] for v in range(n) for w in nbrs[v]))

    mate = [-1] * n
    matched: list[int] = []
    # Per top-level blossom: 0 unlabeled (free), 1 S, 2 T (5 marks a
    # breadcrumb while tracing).  A vertex inside a T-blossom has label 2
    # iff it is reachable from an S-vertex outside the blossom.
    label = [0] * n2
    # labeledge[b] = (v, w): the edge through which b got its label, w in
    # b; None when b's base vertex is single.
    labeledge: list[tuple[int, int] | None] = [None] * n2
    # inblossom[v]: the top-level blossom containing vertex v.
    inblossom = list(range(n))
    # blossomparent[b]: immediate parent blossom, -1 for top-level ones.
    blossomparent = [-1] * n2
    # blossombase[b]: base vertex; -1 for an unused blossom id.
    blossombase = list(range(n)) + [-1] * n
    # bestedge[w], w free or unreached inside a T-blossom: least-slack edge
    # (v, w) from an S-vertex.  bestedge[b], b a top-level S-blossom:
    # least-slack edge to a different S-blossom.
    bestedge: list[tuple[int, int] | None] = [None] * n2
    # dualvar[v] = 2 u(v); every slack and delta is likewise doubled.
    dualvar = [maxweight] * n
    # blossomdual[b] = z(b) for every live non-trivial blossom, nested ones
    # included, in creation order (the order blossoms are visited in).
    blossomdual: dict[int, float] = {}
    # childs[b]: sub-blossoms from the base round the blossom; bedges[b][i]
    # = (v, w) joins childs[b][i] to childs[b][i + 1] (wrapping).
    childs: list[list[int] | None] = [None] * n2
    bedges: list[list[tuple[int, int]] | None] = [None] * n2
    # mybestedges[b], b a top-level S-blossom: least-slack edges to the
    # neighbouring S-blossoms, or None if not computed.
    mybestedges: list[list[tuple[int, int]] | None] = [None] * n2
    unused = list(range(n2 - 1, n - 1, -1))
    # allow[v][w] == stage: edge (v, w) is known to have zero slack in the
    # current stage (stamped, so a new stage forgets them all at once).
    allow = [[0] * n for _ in range(n)]
    stage = 0
    queue: list[int] = []

    def match(v: int, w: int) -> None:
        if mate[v] < 0:
            matched.append(v)
        mate[v] = w

    def leaves(b: int) -> list[int]:
        """The vertices inside blossom *b*, last child first."""
        out = []
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w: int, t: int, v: int) -> None:
        """Label the top-level blossom of *w* with *t*, reached from *v*
        (-1: none); a new T-blossom passes S on to its base's mate."""
        while True:
            b = inblossom[w]
            assert label[w] == 0 and label[b] == 0
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = None if v < 0 else (v, w)
            bestedge[w] = bestedge[b] = None
            if t == 1:
                if b >= n:
                    queue.extend(leaves(b))
                else:
                    queue.append(b)
                return
            v = blossombase[b]
            w = mate[v]
            t = 1

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from S-vertices *v* and *w*; the base vertex of the
        new blossom they close, or -1 for an augmenting path."""
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                assert mate[blossombase[b]] == -1
                v = -1
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                v = labeledge[b][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        """Shrink the odd cycle through S-vertices *v*, *w* and *base* into
        a new S-blossom with zero dual."""
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unused.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        childs[b] = path = []
        bedges[b] = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0.0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                # A T-vertex inside an S-blossom is an S-vertex.
                queue.append(v)
            inblossom[v] = b
        # Least-slack edge to each neighbouring S-blossom, in the order the
        # neighbours are first met.
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv in path:
            if bv < n:
                nblist = [(bv, w) for w in nbrs[bv]]
            elif mybestedges[bv] is not None:
                nblist = mybestedges[bv]
                mybestedges[bv] = None
            else:
                nblist = [(v, w) for v in leaves(bv) for w in nbrs[v]]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if bj != b and label[bj] == 1:
                    best = bestedgeto.get(bj)
                    if best is None or (
                        (dualvar[i] + dualvar[j]) - 2 * rows[i][j]
                        < (dualvar[best[0]] + dualvar[best[1]])
                        - 2 * rows[best[0]][best[1]]
                    ):
                        bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        for k in mybestedges[b]:
            kslack = (dualvar[k[0]] + dualvar[k[1]]) - 2 * rows[k[0]][k[1]]
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b: int, endstage: bool) -> None:
        """Dissolve top-level blossom *b* into its sub-blossoms (at the end
        of a stage, recursively those with zero dual too)."""

        def steps(b):
            for s in childs[b]:
                blossomparent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and blossomdual[s] == 0:
                    yield s
                else:
                    for v in leaves(s):
                        inblossom[v] = s
            if not endstage and label[b] == 2:
                # An expanding T-blossom hands its label on: T and S
                # alternately from the sub-blossom the label came in
                # through, round to the base.
                bchilds, edges = childs[b], bedges[b]
                entrychild = inblossom[labeledge[b][1]]
                j = bchilds.index(entrychild)
                if j & 1:
                    j -= len(bchilds)
                    jstep = 1
                else:
                    jstep = -1
                v, w = labeledge[b]
                while j != 0:
                    if jstep == 1:
                        p, q = edges[j]
                    else:
                        q, p = edges[j - 1]
                    label[w] = 0
                    label[q] = 0
                    assign_label(w, 2, v)
                    allow[p][q] = allow[q][p] = stage
                    j += jstep
                    if jstep == 1:
                        v, w = edges[j]
                    else:
                        w, v = edges[j - 1]
                    allow[v][w] = allow[w][v] = stage
                    j += jstep
                # The base sub-blossom becomes T without stepping through
                # to its mate.
                bw = bchilds[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                # The rest keep a label only if a vertex of theirs was
                # reached from outside the blossom.
                j += jstep
                while bchilds[j] != entrychild:
                    bv = bchilds[j]
                    if label[bv] == 1:
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    if label[v]:
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = 0
                        label[mate[blossombase[bv]]] = 0
                        assign_label(v, 2, labeledge[v][0])
                    j += jstep
            label[b] = 0
            labeledge[b] = bestedge[b] = None
            childs[b] = bedges[b] = mybestedges[b] = None
            blossomparent[b] = blossombase[b] = -1
            del blossomdual[b]
            unused.append(b)

        # Recursion unrolled onto a stack of generators, each yielding the
        # sub-blossom to descend into next.
        stack = [steps(b)]
        while stack:
            for s in stack[-1]:
                stack.append(steps(s))
                break
            else:
                stack.pop()

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched and unmatched edges along the alternating path
        inside blossom *b* from vertex *v* to the base; *v* becomes base."""

        def steps(b, v):
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= n:
                yield t, v
            bchilds, edges = childs[b], bedges[b]
            i = j = bchilds.index(t)
            if i & 1:
                j -= len(bchilds)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = bchilds[j]
                if jstep == 1:
                    w, x = edges[j]
                else:
                    x, w = edges[j - 1]
                if t >= n:
                    yield t, w
                j += jstep
                t = bchilds[j]
                if t >= n:
                    yield t, x
                match(w, x)
                match(x, w)
            childs[b] = bchilds[i:] + bchilds[:i]
            bedges[b] = edges[i:] + edges[:i]
            blossombase[b] = blossombase[childs[b][0]]
            assert blossombase[b] == v

        stack = [steps(b, v)]
        while stack:
            for args in stack[-1]:
                stack.append(steps(*args))
                break
            else:
                stack.pop()

    def augment_matching(v: int, w: int) -> None:
        """Augment along the path through the S-vertices *v* and *w*,
        tracing back from each to a single vertex."""
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (
                    labeledge[bs] is None and mate[blossombase[bs]] == -1
                ) or labeledge[bs][0] == mate[blossombase[bs]]
                if bs >= n:
                    augment_blossom(bs, s)
                match(s, j)
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                s, j = labeledge[bt]
                assert blossombase[bt] == t
                if bt >= n:
                    augment_blossom(bt, j)
                match(j, s)

    # Each iteration is a stage: find one augmenting path and use it.
    while True:
        label[:] = [0] * n2
        labeledge[:] = [None] * n2
        bestedge[:] = [None] * n2
        for b in blossomdual:
            mybestedges[b] = None
        stage += 1
        queue.clear()

        for v in range(n):
            if mate[v] < 0 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

        augmented = False
        # Each iteration is a substage: label everything reachable, then
        # either augment or pump slack out of the duals and retry.
        while True:
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                assert label[bv] == 1
                dual_v = dualvar[v]
                row = rows[v]
                arow = allow[v]
                for w in nbrs[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if arow[w] != stage:
                        kslack = (dual_v + dualvar[w]) - 2 * row[w]
                        if kslack > 0:
                            if label[bw] == 1:
                                best = bestedge[bv]
                                if best is None or kslack < (
                                    dualvar[best[0]] + dualvar[best[1]]
                                ) - 2 * rows[best[0]][best[1]]:
                                    bestedge[bv] = (v, w)
                            elif label[w] == 0:
                                best = bestedge[w]
                                if best is None or kslack < (
                                    dualvar[best[0]] + dualvar[best[1]]
                                ) - 2 * rows[best[0]][best[1]]:
                                    bestedge[w] = (v, w)
                            continue
                        arow[w] = allow[w][v] = stage
                    if label[bw] == 0:
                        # (C1) w is free: label it T and its mate S.
                        assign_label(w, 2, v)
                    elif label[bw] == 1:
                        # (C2) w is an S-vertex in another blossom: a new
                        # blossom or an augmenting path.
                        base = scan_blossom(v, w)
                        if base >= 0:
                            add_blossom(base, v, w)
                            bv = inblossom[v]
                        else:
                            augment_matching(v, w)
                            augmented = True
                            break
                    elif label[w] == 0:
                        # w sits unreached inside a T-blossom: mark it
                        # reached, for relabelling if the blossom expands.
                        assert label[bw] == 2
                        label[w] = 2
                        labeledge[w] = (v, w)

            if augmented:
                break

            # No augmenting path under these duals: find the smallest delta
            # that makes progress.
            deltatype = -1
            delta = deltaedge = deltablossom = None

            # delta1: the minimum vertex dual.
            if not maxcardinality:
                deltatype = 1
                delta = min(dualvar)

            # delta2: the minimum slack between an S-vertex and a free one.
            for v in range(n):
                if label[inblossom[v]] == 0 and bestedge[v] is not None:
                    p, q = bestedge[v]
                    d = (dualvar[p] + dualvar[q]) - 2 * rows[p][q]
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            # delta3: half the minimum slack between two S-blossoms,
            # vertices first, then blossoms in creation order.
            for b in chain(range(n), blossomdual):
                if (
                    blossomparent[b] == -1
                    and label[b] == 1
                    and bestedge[b] is not None
                ):
                    p, q = bestedge[b]
                    d = ((dualvar[p] + dualvar[q]) - 2 * rows[p][q]) / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            # delta4: the minimum dual of a top-level T-blossom.
            for b, z in blossomdual.items():
                if (
                    blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or z < delta)
                ):
                    delta = z
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # Max-cardinality optimum reached; one last dual update
                # keeps the duals a valid certificate.
                assert maxcardinality
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in range(n):
                t = label[inblossom[v]]
                if t == 1:
                    dualvar[v] -= delta
                elif t == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                # The least-slack edge becomes allowable; resume from it.
                v, w = deltaedge
                assert label[inblossom[v]] == 1
                allow[v][w] = allow[w][v] = stage
                queue.append(v)

        for v in matched:
            assert mate[mate[v]] == v

        if not augmented:
            break

        # End of a stage: expand the S-blossoms whose dual fell to zero.
        for b in list(blossomdual):
            if (
                b in blossomdual
                and blossomparent[b] == -1
                and label[b] == 1
                and blossomdual[b] == 0
            ):
                expand_blossom(b, True)

    return mate, matched
