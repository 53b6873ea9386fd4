"""The matching references the blossom kernel is tested against.

``repro.util.matching.blossom_matching`` is the one matcher MAPPER runs
(MWM-Contract's stage 2).  These are the tools its tests and the
contraction ablation use around it: greedy maximal matching (the
ablation's "greedy pairing" arm), the dict-keyed
:func:`max_weight_matching` face of the kernel, an exhaustive exact
matcher for cross-checking weights on small graphs, and the matching
predicates.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.util.matching import Edge, blossom_matching

__all__ = [
    "greedy_maximal_matching",
    "max_weight_matching",
    "exact_max_weight_matching",
    "is_matching",
    "is_maximal_matching",
    "matching_weight",
]


def greedy_maximal_matching(
    edges: Iterable[Edge],
    *,
    priority: dict[Edge, float] | None = None,
) -> set[Edge]:
    """Greedy maximal matching over an edge list.

    Scans edges (heaviest-first when *priority* is given) and takes every edge
    whose endpoints are both still free.  The result is maximal: no remaining
    edge has two free endpoints.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are skipped.
    priority:
        Optional map from edge to a score; higher-scored edges are tried
        first.  Ties are broken by input order (the scan is stable).

    Returns
    -------
    set of edges, each in its input orientation.
    """
    edge_list = [e for e in edges if e[0] != e[1]]
    if priority is not None:
        # Stable sort: equal-priority edges keep input order.
        edge_list.sort(key=lambda e: -priority.get(e, 0.0))
    matched: set[Hashable] = set()
    result: set[Edge] = set()
    for u, v in edge_list:
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            result.add((u, v))
    return result


def max_weight_matching(
    edges: dict[Edge, float],
    *,
    maxcardinality: bool = False,
) -> set[Edge]:
    """Maximum weight matching on a general weighted graph.

    Parameters
    ----------
    edges:
        Map from ``(u, v)`` to a non-negative weight.  When both
        orientations of a pair are present the later weight wins.
    maxcardinality:
        If true, restrict to matchings of maximum cardinality (used by
        MWM-Contract, which must pair *all* clusters down to the processor
        count, taking the heaviest perfect pairing).

    Returns
    -------
    Set of matched edges; each edge is reported with the orientation it had
    in *edges* when that orientation exists, else as returned by the solver.
    """
    mate = blossom_matching(
        ((u, v, w) for (u, v), w in edges.items()),
        maxcardinality=maxcardinality,
    )
    result: set[Edge] = set()
    for u, v in mate:
        result.add((u, v) if (u, v) in edges else (v, u))
    return result


def exact_max_weight_matching(edges: dict[Edge, float]) -> set[Edge]:
    """Exhaustive exact maximum weight matching (small graphs only).

    Used in the test-suite to cross-check :func:`max_weight_matching`.
    Exponential: refuse graphs with more than 24 edges.
    """
    items = list(edges.items())
    if len(items) > 24:
        raise ValueError("exact_max_weight_matching is exponential; <=24 edges only")

    best_weight = -1.0
    best: set[Edge] = set()

    def recurse(i: int, used: set[Hashable], chosen: set[Edge], weight: float) -> None:
        nonlocal best_weight, best
        if i == len(items):
            if weight > best_weight:
                best_weight, best = weight, set(chosen)
            return
        (u, v), w = items[i]
        # Branch 1: skip edge i.
        recurse(i + 1, used, chosen, weight)
        # Branch 2: take edge i if both endpoints free.
        if u not in used and v not in used:
            used |= {u, v}
            chosen.add((u, v))
            recurse(i + 1, used, chosen, weight + w)
            chosen.discard((u, v))
            used -= {u, v}

    recurse(0, set(), set(), 0.0)
    return best


def is_matching(edges: Iterable[Edge]) -> bool:
    """True when no vertex appears in more than one edge."""
    seen: set[Hashable] = set()
    for u, v in edges:
        if u == v or u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_maximal_matching(matching: Iterable[Edge], all_edges: Iterable[Edge]) -> bool:
    """True when *matching* is a matching and no edge of *all_edges* could be added."""
    matching = list(matching)
    if not is_matching(matching):
        return False
    covered = {x for e in matching for x in e}
    return all(u in covered or v in covered for u, v in all_edges if u != v)


def matching_weight(matching: Iterable[Edge], edges: dict[Edge, float]) -> float:
    """Total weight of *matching* under the weight map *edges* (orientation-free)."""
    total = 0.0
    for u, v in matching:
        if (u, v) in edges:
            total += edges[(u, v)]
        elif (v, u) in edges:
            total += edges[(v, u)]
        else:
            raise KeyError(f"matched edge {(u, v)!r} not present in weight map")
    return total
