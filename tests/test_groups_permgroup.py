"""Tests for repro.groups.permgroup and repro.groups.cayley."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.groups import (
    ClosureLimitExceeded,
    Permutation,
    PermutationGroup,
    cayley_edges,
    cayley_isomorphic_to_edges,
    regular_action_group,
)


def paper_generators():
    """The three communication functions of the 8-node perfect broadcast (Fig 4)."""
    comm1 = Permutation.parse("(01234567)", 8)
    comm2 = Permutation.parse("(0246)(1357)", 8)
    comm3 = Permutation.parse("(04)(15)(26)(37)", 8)
    return comm1, comm2, comm3


class TestClosure:
    def test_cyclic_group(self):
        g = PermutationGroup.cyclic(6)
        assert g.order == 6
        assert g.is_transitive()

    def test_paper_group_order_eight(self):
        group = PermutationGroup.generate(list(paper_generators()))
        assert group.order == 8

    def test_paper_group_elements_match_fig4(self):
        group = PermutationGroup.generate(list(paper_generators()))
        expected = {
            "(0)(1)(2)(3)(4)(5)(6)(7)",
            "(01234567)",
            "(0246)(1357)",
            "(03614725)",
            "(04)(15)(26)(37)",
            "(05274163)",
            "(0642)(1753)",
            "(07654321)",
        }
        assert {str(g) for g in group.elements} == expected

    def test_limit_halts_closure(self):
        # S_4 has 24 elements; generating with limit 8 must abort.
        gens = [
            Permutation.parse("(0123)", 4),
            Permutation.parse("(01)", 4),
        ]
        with pytest.raises(ClosureLimitExceeded):
            PermutationGroup.generate(gens, limit=8)

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError):
            PermutationGroup.generate([])

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            PermutationGroup.generate(
                [Permutation.identity(3), Permutation.identity(4)]
            )

    @given(st.integers(min_value=1, max_value=30))
    def test_cyclic_order(self, n):
        assert PermutationGroup.cyclic(n).order == n


class TestGroupAxioms:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda n: st.lists(
                st.permutations(list(range(n))).map(Permutation),
                min_size=1,
                max_size=2,
            )
        )
    )
    def test_closure_is_a_group(self, gens):
        g = PermutationGroup.generate(gens)
        elems = set(g.elements)
        assert g.identity() in elems
        for a in elems:
            assert a.inverse() in elems
            for b in elems:
                assert a * b in elems

    def test_lagrange(self):
        group = PermutationGroup.generate(list(paper_generators()))
        for h in group.cyclic_subgroups():
            assert group.order % len(h) == 0


class TestRegularAction:
    def test_paper_example_is_regular(self):
        group = PermutationGroup.generate(list(paper_generators()))
        assert group.is_regular_action()
        assert group.all_uniform_cycles()

    def test_s3_on_three_points_not_regular(self):
        gens = [Permutation.parse("(012)", 3), Permutation.parse("(01)", 3)]
        g = PermutationGroup.generate(gens)
        assert g.order == 6
        assert not g.is_regular_action()

    def test_regular_action_group_accepts_paper_example(self):
        group = regular_action_group(list(paper_generators()), 8)
        assert group is not None and group.order == 8

    def test_regular_action_group_rejects_oversize(self):
        gens = [Permutation.parse("(0123)", 4), Permutation.parse("(01)", 4)]
        assert regular_action_group(gens, 4) is None

    def test_regular_action_group_rejects_intransitive(self):
        gens = [Permutation.parse("(01)(23)", 4), Permutation.parse("(02)(13)", 4)]
        g = PermutationGroup.generate(gens)
        assert g.order == 4  # Klein four-group: regular here, sanity check
        assert regular_action_group(gens, 4) is not None
        # Now something genuinely intransitive with |G| == |X|:
        gens2 = [Permutation.parse("(0123)", 8)]
        # <(0123)> fixes 4..7, order 4 != 8 -> rejected by order check
        assert regular_action_group(gens2, 8) is None

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            regular_action_group([Permutation.identity(4)], 8)


class TestStructureQueries:
    def test_cyclic_is_abelian(self):
        assert PermutationGroup.cyclic(8).is_abelian()

    def test_paper_group_abelian(self):
        group = PermutationGroup.generate(list(paper_generators()))
        assert group.is_abelian()  # Z_8

    def test_s3_not_abelian(self):
        gens = [Permutation.parse("(012)", 3), Permutation.parse("(01)", 3)]
        assert not PermutationGroup.generate(gens).is_abelian()

    def test_center_of_abelian_is_whole_group(self):
        g = PermutationGroup.cyclic(6)
        assert g.center() == frozenset(g.elements)

    def test_center_of_s3_trivial(self):
        gens = [Permutation.parse("(012)", 3), Permutation.parse("(01)", 3)]
        s3 = PermutationGroup.generate(gens)
        assert s3.center() == frozenset({s3.identity()})

    def test_orbits_partition(self):
        gens = [Permutation.parse("(01)(23)", 6)]
        g = PermutationGroup.generate(gens)
        orbits = g.orbits()
        assert sorted(map(sorted, orbits)) == [[0, 1], [2, 3], [4], [5]]

    def test_transitive_single_orbit(self):
        assert len(PermutationGroup.cyclic(5).orbits()) == 1

    def test_generator_normality_matches_full_check(self):
        # Non-abelian case: generator conjugation must agree with the
        # definition (checked against an explicit full-element test).
        gens = [Permutation.parse("(0123)", 4), Permutation.parse("(01)", 4)]
        s4 = PermutationGroup.generate(gens)
        # The Klein four-group {e,(01)(23),(02)(13),(03)(12)} is normal in S4.
        v4 = frozenset(
            {
                s4.identity(),
                Permutation.parse("(01)(23)", 4),
                Permutation.parse("(02)(13)", 4),
                Permutation.parse("(03)(12)", 4),
            }
        )
        assert s4.is_normal(v4)
        # <(01)> is not.
        assert not s4.is_normal(s4.cyclic_subgroup(Permutation.parse("(01)", 4)))


class TestSubgroupsAndCosets:
    def test_fig4_subgroup_e0_e4(self):
        group = PermutationGroup.generate(list(paper_generators()))
        comm3 = paper_generators()[2]
        h = group.cyclic_subgroup(comm3)
        assert len(h) == 2
        assert group.is_subgroup(h)
        assert group.is_normal(h)
        cosets = group.right_cosets(h)
        assert len(cosets) == 4
        # Each coset has exactly |H| elements and they partition G.
        assert all(len(c) == 2 for c in cosets)
        assert sorted(g for c in cosets for g in c) == group.elements

    def test_fig4_clusters_by_task(self):
        # The coset {E0, E4} corresponds to tasks {0, 4}; the paper's Fig 4c
        # clusters are {0,4}, {1,5}, {2,6}, {3,7}.
        group = PermutationGroup.generate(list(paper_generators()))
        comm3 = paper_generators()[2]
        cosets = group.right_cosets(group.cyclic_subgroup(comm3))
        clusters = sorted(sorted(g(0) for g in c) for c in cosets)
        assert clusters == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_subgroups_of_order_two(self):
        group = PermutationGroup.generate(list(paper_generators()))
        subs = group.subgroups_of_order(2)
        assert all(len(h) == 2 for h in subs)
        # Z_8 has a unique subgroup of order 2: {E0, E4}.
        assert len(subs) == 1

    def test_subgroups_of_order_non_divisor(self):
        group = PermutationGroup.generate(list(paper_generators()))
        assert group.subgroups_of_order(3) == []

    def test_is_subgroup_rejects_non_closed(self):
        group = PermutationGroup.generate(list(paper_generators()))
        comm1 = paper_generators()[0]
        assert not group.is_subgroup({group.identity(), comm1})

    def test_right_cosets_requires_subgroup(self):
        group = PermutationGroup.generate(list(paper_generators()))
        with pytest.raises(ValueError):
            group.right_cosets({paper_generators()[0]})

    def test_normality_in_nonabelian_group(self):
        # In S_3, <(01)> is not normal but <(012)> is.
        gens = [Permutation.parse("(012)", 3), Permutation.parse("(01)", 3)]
        s3 = PermutationGroup.generate(gens)
        rot = s3.cyclic_subgroup(Permutation.parse("(012)", 3))
        swap = s3.cyclic_subgroup(Permutation.parse("(01)", 3))
        assert s3.is_normal(rot)
        assert not s3.is_normal(swap)


class TestCayley:
    def test_cayley_edges_count(self):
        group = PermutationGroup.generate(list(paper_generators()))
        per_gen = cayley_edges(group)
        assert len(per_gen) == 3
        assert all(len(edges) == 8 for edges in per_gen)

    def test_cayley_isomorphism_to_task_graph(self):
        gens = list(paper_generators())
        group = PermutationGroup.generate(gens)
        # Task edges of each phase: x -> comm_k(x).
        phase_edges = [[(x, c(x)) for x in range(8)] for c in gens]
        assert cayley_isomorphic_to_edges(group, phase_edges)

    def test_cayley_isomorphism_detects_mismatch(self):
        gens = list(paper_generators())
        group = PermutationGroup.generate(gens)
        bad = [[(x, (x + 3) % 8) for x in range(8)] for _ in gens]
        assert not cayley_isomorphic_to_edges(group, bad)

    def test_edge_count_mismatch_rejected(self):
        group = PermutationGroup.generate(list(paper_generators()))
        with pytest.raises(ValueError):
            cayley_isomorphic_to_edges(group, [[(0, 1)]])
