"""Permutation groups: closure, subgroups, cosets, quotients.

The group-theoretic contraction algorithm (Section 4.2.2) only ever needs
groups no larger than the task count ``|X|``: the closure computation halts
as soon as it exceeds ``|X|`` elements, because then the action cannot be
regular and the Cayley-graph machinery does not apply.  That early halt is
what keeps the algorithm ``O(|X|^2)`` overall.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.groups.permutation import Permutation

__all__ = ["PermutationGroup", "ClosureLimitExceeded"]


class ClosureLimitExceeded(Exception):
    """Raised when group closure grows past the caller-supplied bound.

    MAPPER treats this as "the task graph is not a Cayley graph of a
    regular action" and falls back to the general heuristics.
    """


def _closure(
    generators: Sequence[Permutation],
    limit: int | None,
) -> list[Permutation]:
    """BFS closure of *generators* under composition.

    Multiplies frontier elements by generators until no new elements appear.
    Raises :class:`ClosureLimitExceeded` the moment the element count passes
    *limit* (when given).
    """
    if not generators:
        raise ValueError("at least one generator is required")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError("generators must act on the same point set")
    identity = Permutation.identity(degree)
    elements: dict[Permutation, None] = {identity: None}
    frontier = [identity]
    while frontier:
        new_frontier: list[Permutation] = []
        for a in frontier:
            for g in generators:
                b = a * g
                if b not in elements:
                    elements[b] = None
                    if limit is not None and len(elements) > limit:
                        raise ClosureLimitExceeded(
                            f"group closure exceeded {limit} elements"
                        )
                    new_frontier.append(b)
        frontier = new_frontier
    return list(elements)


class PermutationGroup:
    """A finite permutation group given by its full element list.

    Use :meth:`generate` to build one from generators; the constructor
    assumes (and verifies cheaply) that *elements* is closed.
    """

    def __init__(self, elements: Iterable[Permutation], generators: Sequence[Permutation] = ()):
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("a group has at least the identity")
        self._degree = elems[0].degree
        self._elements = elems
        self._element_set = frozenset(elems)
        self._generators = tuple(generators) if generators else tuple(elems)
        if Permutation.identity(self._degree) not in self._element_set:
            raise ValueError("element set does not contain the identity")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        generators: Sequence[Permutation],
        *,
        limit: int | None = None,
    ) -> "PermutationGroup":
        """Close *generators* under composition.

        Parameters
        ----------
        generators:
            The generating permutations (e.g. LaRCS communication functions).
        limit:
            Optional hard cap on group order.  The contraction algorithm
            passes ``limit=|X|`` so that non-regular actions are rejected in
            ``O(|X|^2)`` time instead of exploring up to ``|X|!`` elements.
        """
        return cls(_closure(list(generators), limit), generators)

    @classmethod
    def cyclic(cls, n: int) -> "PermutationGroup":
        """The cyclic group Z_n acting on ``n`` points by rotation."""
        gen = Permutation([(i + 1) % n for i in range(n)])
        return cls.generate([gen])

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Number of points the group acts on."""
        return self._degree

    @property
    def order(self) -> int:
        """Number of group elements, ``|G|``."""
        return len(self._elements)

    @property
    def elements(self) -> list[Permutation]:
        """All elements, in sorted (image-tuple) order."""
        return list(self._elements)

    @property
    def generators(self) -> tuple[Permutation, ...]:
        """The generators this group was built from."""
        return self._generators

    def __contains__(self, p: Permutation) -> bool:
        return p in self._element_set

    def __iter__(self):
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def identity(self) -> Permutation:
        """The identity element."""
        return Permutation.identity(self._degree)

    # ------------------------------------------------------------------
    # action properties (the conditions of Section 4.2.2)
    # ------------------------------------------------------------------
    def orbit(self, x: int) -> set[int]:
        """The orbit of point *x* under the group action."""
        return {g(x) for g in self._elements}

    def is_transitive(self) -> bool:
        """True when the action has a single orbit."""
        return len(self.orbit(0)) == self._degree

    def orbits(self) -> list[set[int]]:
        """The orbit partition of the point set."""
        seen: set[int] = set()
        out: list[set[int]] = []
        for x in range(self._degree):
            if x in seen:
                continue
            orb = self.orbit(x)
            seen |= orb
            out.append(orb)
        return out

    def is_abelian(self) -> bool:
        """True when every pair of generators commutes.

        (Generators commuting is equivalent to the whole group commuting.)
        Abelian groups make every subgroup normal, which short-circuits the
        normality checks during contraction.
        """
        gens = self._generators
        return all(
            a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :]
        )

    def center(self) -> frozenset[Permutation]:
        """Elements commuting with every generator (hence with everything)."""
        return frozenset(
            g
            for g in self._elements
            if all(g * c == c * g for c in self._generators)
        )

    def all_uniform_cycles(self) -> bool:
        """True when every element's cycles all have equal length."""
        return all(g.has_uniform_cycles() for g in self._elements)

    def is_regular_action(self) -> bool:
        """True when the action is regular: ``|G| == |X|`` and transitive.

        Equivalently (the form the paper checks): ``|G| == |X|`` and every
        element of ``G`` has equal-length cycles.  A regular action is
        exactly the condition under which the Cayley graph of ``G`` is
        isomorphic to the task graph.
        """
        return self.order == self._degree and self.all_uniform_cycles() and self.is_transitive()

    # ------------------------------------------------------------------
    # subgroups
    # ------------------------------------------------------------------
    def is_subgroup(self, elems: Iterable[Permutation]) -> bool:
        """True when *elems* is a subgroup of this group."""
        s = set(elems)
        if not s or not s <= self._element_set:
            return False
        if self.identity() not in s:
            return False
        return all(a * b in s for a in s for b in s)

    def cyclic_subgroup(self, g: Permutation) -> frozenset[Permutation]:
        """The cyclic subgroup ``<g>`` generated by a single element."""
        if g not in self._element_set:
            raise ValueError("element is not in the group")
        elems = {self.identity()}
        p = g
        while p not in elems:
            elems.add(p)
            p = p * g
        return frozenset(elems)

    def cyclic_subgroups(self) -> list[frozenset[Permutation]]:
        """All distinct cyclic subgroups, sorted by increasing order."""
        seen: set[frozenset[Permutation]] = set()
        for g in self._elements:
            seen.add(self.cyclic_subgroup(g))
        return sorted(seen, key=lambda h: (len(h), sorted(h)))

    def subgroups_of_order(
        self,
        k: int,
        *,
        max_results: int = 4096,
        max_frontier: int = 4096,
    ) -> list[frozenset[Permutation]]:
        """Subgroups of order exactly *k*, by iterative extension.

        Starts from the cyclic subgroups and repeatedly extends each
        partial subgroup with one more element, closing the result (capped
        at *k*, so oversize closures abort early -- the paper's halting
        trick).  This reaches every subgroup of order *k* up to the
        *max_frontier* cap on intermediate subgroups; for groups no larger
        than the task count (the only ones MAPPER builds) the enumeration
        is effectively complete.
        """
        if self.order % k != 0:
            return []  # Lagrange: no subgroup of non-dividing order.
        found: set[frozenset[Permutation]] = set()
        frontier: set[frozenset[Permutation]] = set()
        for g in self._elements:
            h = self.cyclic_subgroup(g)
            if len(h) == k:
                found.add(h)
            elif len(h) < k and k % len(h) == 0:
                frontier.add(h)
        seen: set[frozenset[Permutation]] = set(frontier)
        while frontier and len(found) < max_results:
            next_frontier: set[frozenset[Permutation]] = set()
            for h in frontier:
                for g in self._elements:
                    if g in h:
                        continue
                    try:
                        closure = frozenset(_closure(list(h) + [g], limit=k))
                    except ClosureLimitExceeded:
                        continue
                    if len(closure) == k:
                        found.add(closure)
                        if len(found) >= max_results:
                            break
                    elif (
                        k % len(closure) == 0
                        and closure not in seen
                        and len(next_frontier) < max_frontier
                    ):
                        seen.add(closure)
                        next_frontier.add(closure)
                if len(found) >= max_results:
                    break
            frontier = next_frontier
        return sorted(found, key=lambda h: sorted(h))

    def is_normal(self, subgroup: Iterable[Permutation]) -> bool:
        """True when *subgroup* is normal in this group (``g^-1 H g == H``)."""
        if self.is_abelian():
            return True  # every subgroup of an abelian group is normal
        h = frozenset(subgroup)
        # Conjugating by the generators suffices: they generate the group.
        for g in self._generators:
            ginv = g.inverse()
            if any(ginv * x * g not in h for x in h):
                return False
        return True

    # ------------------------------------------------------------------
    # cosets and quotients
    # ------------------------------------------------------------------
    def right_cosets(self, subgroup: Iterable[Permutation]) -> list[frozenset[Permutation]]:
        """The right cosets ``H g``, the identity coset first.

        Right cosets are the clusters of the group-theoretic contraction:
        with left-to-right composition, a generator edge ``a -> a*c`` maps
        cosets to cosets (``Ha * c == H(ac)``) regardless of normality, so
        the quotient graph is always a well-defined contraction.
        """
        h = sorted(set(subgroup))
        if not self.is_subgroup(h):
            raise ValueError("not a subgroup of this group")
        assigned: set[Permutation] = set()
        cosets: list[frozenset[Permutation]] = []
        for g in self._elements:
            if g in assigned:
                continue
            coset = frozenset(x * g for x in h)
            assigned |= coset
            cosets.append(coset)
        # Put the coset containing the identity first.
        ident = self.identity()
        cosets.sort(key=lambda c: (ident not in c, sorted(c)))
        return cosets

    def __repr__(self) -> str:
        return f"<PermutationGroup order={self.order} degree={self._degree}>"
