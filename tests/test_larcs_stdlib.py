"""Tests for the LaRCS standard library programs.

Each stdlib program is cross-checked against the directly constructed graph
family where one exists -- the LaRCS route and the programmatic route must
produce identical edge sets.
"""

import dataclasses

import pytest

from repro.graph import families
from repro.graph.properties import comm_functions
from repro.larcs import ast, stdlib
from repro.larcs.parser import parse_larcs


class TestRegistry:
    def test_all_programs_compile(self):
        params = {
            "nbody": dict(n=7),
            "jacobi": dict(rows=3, cols=3),
            "sor": dict(rows=3, cols=3),
            "fft": dict(m=3),
            "dnc": dict(m=3),
            "cannon": dict(q=3),
            "voting": dict(m=3),
            "pipeline": dict(n=4),
            "annealing": dict(rows=3, cols=3),
            "oddeven": dict(n=6),
            "bitonic": dict(m=3),
            "gauss": dict(n=5),
        }
        assert set(params) == set(stdlib.PROGRAMS)
        for name, kw in params.items():
            tg = stdlib.load(name, **kw)
            tg.validate()
            assert tg.n_tasks > 0

    def test_unknown_program(self):
        with pytest.raises(KeyError):
            stdlib.load("quicksort")

    @pytest.mark.parametrize("name", sorted(stdlib.PROGRAMS))
    def test_every_parameter_and_import_is_read(self, name):
        """A declared name no expression reads cannot change the task
        graph, so instances differing only in it would share one
        fingerprint and one cached mapping (``sor`` did, in ``msize``)."""
        program = parse_larcs(stdlib.PROGRAMS[name])
        read = set()

        def walk(node):
            if isinstance(node, ast.Name):
                read.add(node.ident)
            elif dataclasses.is_dataclass(node):
                for f in dataclasses.fields(node):
                    walk(getattr(node, f.name))
            elif isinstance(node, (list, tuple)):
                for item in node:
                    walk(item)

        walk(program)
        declared = [n for n, _ in program.params] + [n for n, _ in program.imports]
        assert declared and set(declared) <= read


class TestNbody:
    def test_matches_family(self):
        lar = stdlib.load("nbody", n=15)
        fam = families.nbody(15)
        for phase in ("ring", "chordal"):
            assert set(lar.comm_phase(phase).pairs()) == set(
                fam.comm_phase(phase).pairs()
            )

    def test_phase_expression_length(self):
        tg = stdlib.load("nbody", n=7, sweeps=2)
        # ((ring; compute1)^4; chordal; compute2)^2 -> 2*(2*4+2) = 20 steps.
        assert len(tg.phase_expr.linearize()) == 20

    def test_volume_import(self):
        tg = stdlib.load("nbody", n=7, msize=64)
        assert tg.comm_phase("ring").edges[0].volume == 64.0

    def test_description_size_independent_of_n(self):
        # The Section 2 compactness claim: same source, any n.
        small = stdlib.load("nbody", n=7)
        large = stdlib.load("nbody", n=1023)
        assert small.n_tasks == 7 and large.n_tasks == 1023


class TestJacobiSor:
    def test_jacobi_matches_mesh_family(self):
        lar = stdlib.load("jacobi", rows=4, cols=5)
        fam = families.mesh(4, 5)
        # Same static structure modulo the label representation.
        to_int = lambda t: t[0] * 5 + t[1]
        for phase in ("north", "south", "east", "west"):
            got = {(to_int(u), to_int(v)) for u, v in lar.comm_phase(phase).pairs()}
            assert got == set(fam.comm_phase(phase).pairs())

    def test_jacobi_no_warnings(self):
        from repro.larcs.compiler import compile_larcs

        res = compile_larcs(stdlib.JACOBI, rows=3, cols=4)
        assert res.warnings == []

    def test_sor_single_exchange_phase(self):
        tg = stdlib.load("sor", rows=3, cols=3)
        assert list(tg.comm_phases) == ["exchange"]
        assert len(tg.comm_phase("exchange")) == 24

    def test_sor_volume_import(self):
        plain = stdlib.load("sor", rows=3, cols=3, msize=1)
        heavy = stdlib.load("sor", rows=3, cols=3, msize=4)
        assert {e.volume for e in heavy.comm_phase("exchange").edges} == {4.0}
        assert heavy.fingerprint() != plain.fingerprint()
        assert plain.fingerprint() == stdlib.load("sor", rows=3, cols=3).fingerprint()

    def test_jacobi_relax_cost(self):
        tg = stdlib.load("jacobi", rows=2, cols=2)
        assert tg.exec_phase("relax").cost_of((0, 0)) == 4.0


class TestFftVoting:
    def test_fft_phases_match_family(self):
        lar = stdlib.load("fft", m=4)
        fam = families.fft_butterfly(16)
        for s in range(4):
            assert set(lar.comm_phase(f"fly[{s}]").pairs()) == set(
                fam.comm_phase(f"fly{s}").pairs()
            )

    def test_voting_m3_reproduces_fig4_generators(self):
        tg = stdlib.load("voting", m=3)
        perms = comm_functions(tg)
        assert str(perms["hop[0]"]) == "(01234567)"
        assert str(perms["hop[1]"]) == "(0246)(1357)"
        assert str(perms["hop[2]"]) == "(04)(15)(26)(37)"

    def test_voting_phase_expr(self):
        tg = stdlib.load("voting", m=3)
        steps = tg.phase_expr.linearize()
        assert len(steps) == 6  # (hop[k]; tally) for k = 0, 1, 2


class TestDnc:
    def test_matches_binomial_tree(self):
        lar = stdlib.load("dnc", m=5)
        fam = families.binomial_tree(5)
        assert set(lar.comm_phase("divide").pairs()) == set(
            fam.comm_phase("divide").pairs()
        )
        assert set(lar.comm_phase("combine").pairs()) == set(
            fam.comm_phase("combine").pairs()
        )

    def test_combine_reverses_divide(self):
        tg = stdlib.load("dnc", m=4)
        div = set(tg.comm_phase("divide").pairs())
        com = set(tg.comm_phase("combine").pairs())
        assert com == {(v, u) for u, v in div}


class TestCannonPipeline:
    def test_cannon_shift_phases_are_bijections(self):
        tg = stdlib.load("cannon", q=4)
        for phase in ("shiftA", "shiftB"):
            fn = tg.comm_function(phase)
            assert fn is not None and len(fn) == 16
            assert sorted(fn.values()) == sorted(fn.keys())

    def test_cannon_phase_expr_parallel_shifts(self):
        tg = stdlib.load("cannon", q=2)
        steps = tg.phase_expr.linearize()
        assert steps[0] == frozenset({"shiftA", "shiftB"})
        assert len(steps) == 4

    def test_pipeline_chain(self):
        tg = stdlib.load("pipeline", n=5)
        assert tg.comm_phase("forward").pairs() == [(i, i + 1) for i in range(4)]

    def test_pipeline_alternating_costs(self):
        tg = stdlib.load("pipeline", n=4)
        w = tg.exec_phase("work")
        assert w.cost_of(0) == 1.0 and w.cost_of(1) == 2.0

    def test_annealing_torus_degree(self):
        tg = stdlib.load("annealing", rows=3, cols=4)
        g = tg.static_graph()
        assert all(d == 4 for _, d in g.degree())


class TestSortsAndGauss:
    def test_oddeven_exchange_pairs(self):
        tg = stdlib.load("oddeven", n=8)
        oddx = set(tg.comm_phase("oddx").pairs())
        evenx = set(tg.comm_phase("evenx").pairs())
        # Odd phase: pairs (1,2), (3,4), (5,6), both directions.
        assert oddx == {(a, b) for x in (1, 3, 5) for a, b in [(x, x + 1), (x + 1, x)]}
        # Even phase: pairs (0,1), (2,3), (4,5), (6,7).
        assert evenx == {
            (a, b) for x in (0, 2, 4, 6) for a, b in [(x, x + 1), (x + 1, x)]
        }

    def test_oddeven_round_count(self):
        tg = stdlib.load("oddeven", n=8)
        # (oddx; compare; evenx; compare)^ceil(n/2) -> 4 * 4 steps.
        assert len(tg.phase_expr.linearize()) == 16

    def test_bitonic_stage_count_and_bits(self):
        m = 4
        tg = stdlib.load("bitonic", m=m)
        stages = m * (m + 1) // 2
        assert len(tg.comm_phases) == stages
        # The flat stage index decodes to the bitonic bit sequence:
        # 0; 1,0; 2,1,0; 3,2,1,0.
        expected_bits = [j for k in range(m) for j in range(k, -1, -1)]
        for s, expect_j in enumerate(expected_bits):
            fn = tg.comm_function(f"cmpx[{s}]")
            assert fn[0] == (0 ^ (1 << expect_j))
            # Every stage is a perfect pairing of all n keys.
            assert sorted(fn) == list(range(1 << m))

    def test_bitonic_stages_are_involutions(self):
        tg = stdlib.load("bitonic", m=3)
        for name in tg.comm_phases:
            fn = tg.comm_function(name)
            assert all(fn[fn[i]] == i for i in fn)

    def test_gauss_broadcast_structure(self):
        tg = stdlib.load("gauss", n=6)
        for k in range(5):
            pairs = tg.comm_phase(f"bcast[{k}]").pairs()
            assert pairs == [(k, r) for r in range(k + 1, 6)]

    def test_gauss_cost_decreases_with_row(self):
        tg = stdlib.load("gauss", n=6)
        elim = tg.exec_phase("eliminate")
        assert elim.cost_of(0) > elim.cost_of(5)

    def test_gauss_maps_and_simulates(self):
        from repro.arch import networks
        from repro.mapper import map_computation
        from repro.sim import CostModel, simulate

        tg = stdlib.load("gauss", n=8)
        m = map_computation(tg, networks.hypercube(2))
        res = simulate(m, CostModel(exec_time=0.1))
        assert res.total_time > 0
