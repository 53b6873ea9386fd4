"""Tests for LaRCS elaboration (repro.larcs.evaluator / compiler)."""

import pytest
from hypothesis import given, strategies as st

from repro.larcs.compiler import compile_larcs
from repro.larcs.errors import LarcsSemanticError
from repro.larcs.evaluator import eval_expr
from repro.larcs.parser import parse_larcs


def ev(text, **env):
    prog = parse_larcs(
        f"algorithm a(n);\nconstant x = {text};\n"
        "nodetype t[0..n-1];\ncomphase p t(i) -> t(i);"
    )
    return eval_expr(prog.constants[0].value, env)


class TestEvalExpr:
    def test_arithmetic(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("(2 + 3) * 4") == 20
        assert ev("7 / 2") == 3
        assert ev("7 div 2") == 3
        assert ev("7 mod 3") == 1
        assert ev("2 ** 10") == 1024
        assert ev("-5 + 2") == -3

    def test_bitwise(self):
        assert ev("5 xor 3") == 6
        assert ev("1 shl 4") == 16
        assert ev("32 shr 2") == 8

    def test_comparisons(self):
        assert ev("3 < 4") is True
        assert ev("3 >= 4") is False
        assert ev("3 == 3") is True
        assert ev("3 != 3") is False

    def test_boolean(self):
        assert ev("true and false") is False
        assert ev("true or false") is True
        assert ev("not true") is False

    def test_short_circuit(self):
        # 'false and (1/0 == 0)' must not evaluate the division.
        assert ev("false and (1 / 0 == 0)") is False
        assert ev("true or (1 / 0 == 0)") is True

    def test_builtins(self):
        assert ev("min(3, 7)") == 3
        assert ev("max(3, 7, 5)") == 7
        assert ev("abs(-4)") == 4
        assert ev("log2(8)") == 3
        assert ev("log2(9)") == 3  # floor

    def test_env_names(self):
        assert ev("n * 2", n=21) == 42

    def test_unbound_name(self):
        with pytest.raises(LarcsSemanticError):
            ev("nosuch")

    def test_division_by_zero(self):
        with pytest.raises(LarcsSemanticError):
            ev("1 / 0")
        with pytest.raises(LarcsSemanticError):
            ev("1 mod 0")

    def test_type_errors(self):
        with pytest.raises(LarcsSemanticError):
            ev("true + 1")
        with pytest.raises(LarcsSemanticError):
            ev("not 3")
        with pytest.raises(LarcsSemanticError):
            ev("1 and true")

    def test_negative_exponent(self):
        with pytest.raises(LarcsSemanticError):
            ev("2 ** -1")

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_add_matches_python(self, a, b):
        assert ev(f"n + m", n=a, m=b) == a + b

    @given(st.integers(-100, 100), st.integers(1, 50))
    def test_floor_division_matches_python(self, a, b):
        assert ev("n / m", n=a, m=b) == a // b


class TestBindings:
    SRC = """
    algorithm a(n, s = n / 2);
    import msize = 1;
    nodetype t[0 .. n-1];
    comphase p t(i) -> t((i + s) mod n) volume msize;
    """

    def test_required_param(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(self.SRC)

    def test_default_sees_earlier_params(self):
        res = compile_larcs(self.SRC, n=10)
        fn = res.task_graph.comm_function("p")
        assert fn[0] == 5

    def test_override_default(self):
        res = compile_larcs(self.SRC, n=10, s=1)
        fn = res.task_graph.comm_function("p")
        assert fn[0] == 1

    def test_unknown_binding_rejected(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(self.SRC, n=10, bogus=3)

    def test_non_int_binding_rejected(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(self.SRC, n=True)

    def test_import_default(self):
        res = compile_larcs(self.SRC, n=4, msize=7)
        assert res.task_graph.comm_phase("p").edges[0].volume == 7.0


class TestElaboration:
    def test_nodes_single_dim_are_ints(self):
        res = compile_larcs(
            "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(i) -> t(i);", n=5
        )
        assert res.task_graph.nodes == [0, 1, 2, 3, 4]

    def test_nodes_multidim_are_tuples(self):
        res = compile_larcs(
            "algorithm a(n);\nnodetype c[0..1, 0..n-1];\ncomphase p c(i,j) -> c(i,j);",
            n=2,
        )
        assert set(res.task_graph.nodes) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_two_nodetypes_prefixed_labels(self):
        res = compile_larcs(
            """
            algorithm a(n);
            nodetype producer[0..n-1];
            nodetype consumer[0..n-1];
            comphase feed producer(i) -> consumer(i);
            """,
            n=2,
        )
        tg = res.task_graph
        assert ("producer", 0) in tg.nodes and ("consumer", 1) in tg.nodes
        assert tg.comm_phase("feed").pairs() == [
            (("producer", 0), ("consumer", 0)),
            (("producer", 1), ("consumer", 1)),
        ]

    def test_where_guard_filters(self):
        res = compile_larcs(
            "algorithm a(n);\nnodetype t[0..n-1];\n"
            "comphase p t(i) -> t(i+1) where i < n-1;",
            n=4,
        )
        assert res.task_graph.comm_phase("p").pairs() == [(0, 1), (1, 2), (2, 3)]
        assert res.warnings == []

    def test_out_of_space_edges_dropped_with_warning(self):
        res = compile_larcs(
            "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(i) -> t(i+1);", n=4
        )
        assert res.task_graph.comm_phase("p").pairs() == [(0, 1), (1, 2), (2, 3)]
        assert len(res.warnings) == 1

    def test_forall_one_to_many(self):
        res = compile_larcs(
            "algorithm a(n);\nnodetype t[0..n-1];\n"
            "comphase bcast forall j in 1..n-1 : t(i) -> t((i+j) mod n) where i == 0;",
            n=4,
        )
        assert res.task_graph.comm_phase("bcast").pairs() == [(0, 1), (0, 2), (0, 3)]

    def test_indexed_comphase_names(self):
        res = compile_larcs(
            "algorithm a(m);\nconstant n = 2**m;\nnodetype t[0..n-1];\n"
            "comphase fly[s : 0..m-1] t(i) -> t(i xor (1 shl s));",
            m=2,
        )
        assert list(res.task_graph.comm_phases) == ["fly[0]", "fly[1]"]

    def test_execphase_per_node_costs(self):
        res = compile_larcs(
            "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(i) -> t(i);\n"
            "execphase w for t(i) cost i * 10;",
            n=3,
        )
        w = res.task_graph.exec_phase("w")
        assert w.cost_of(2) == 20.0

    def test_phase_expr_elaborated(self):
        res = compile_larcs(
            "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(i) -> t((i+1) mod n);\n"
            "execphase w;\nphases (p; w)^(n-1);",
            n=4,
        )
        assert len(res.task_graph.phase_expr.linearize()) == 6

    def test_indexed_seq_elaboration(self):
        res = compile_larcs(
            "algorithm a(m);\nconstant n = 2**m;\nnodetype t[0..n-1];\n"
            "comphase fly[s : 0..m-1] t(i) -> t(i xor (1 shl s));\n"
            "phases seq s in 0..m-1 : fly[s];",
            m=3,
        )
        steps = res.task_graph.phase_expr.linearize()
        assert [sorted(s)[0] for s in steps] == ["fly[0]", "fly[1]", "fly[2]"]

    def test_pattern_must_be_variables(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(
                "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(0) -> t(1);", n=4
            )

    def test_pattern_shadowing_rejected(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(
                "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(n) -> t(n);", n=4
            )

    def test_empty_range_rejected(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(
                "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(i) -> t(i);", n=0
            )

    TWO_TYPES = (
        "algorithm a(n);\nnodetype producer[0..n-1];\n"
        "nodetype grid[0..n-1, 1..n];\ncomphase p producer(i) -> producer(i);"
    )

    def test_node_budget_names_the_nodetype_and_the_count(self):
        # 10**5 + 10**10 nodes: refused from the ranges, nothing is built.
        with pytest.raises(
            LarcsSemanticError,
            match=r"line 2: nodetype 'producer' declares 100000 nodes; .* at most 4096",
        ):
            compile_larcs(self.TWO_TYPES, n=100_000, max_tasks=4096)

    def test_node_budget_is_for_the_whole_graph(self):
        assert compile_larcs(
            self.TWO_TYPES, n=3, max_tasks=12).task_graph.n_tasks == 12
        with pytest.raises(LarcsSemanticError, match="'grid' declares 9 nodes"):
            compile_larcs(self.TWO_TYPES, n=3, max_tasks=11)
        # No budget, no limit; and a parameter may still be called max_tasks.
        assert compile_larcs(self.TWO_TYPES, n=3).task_graph.n_tasks == 12
        res = compile_larcs(
            "algorithm a(max_tasks);\nnodetype t[1..max_tasks];\n"
            "comphase p t(i) -> t(i);", {"max_tasks": 5}, max_tasks=5,
        )
        assert res.task_graph.n_tasks == 5

    def test_unknown_nodetype_in_rule(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(
                "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p u(i) -> t(i);", n=4
            )

    def test_arity_mismatch(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(
                "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(i, j) -> t(i);",
                n=4,
            )

    def test_negative_volume_rejected(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(
                "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(i) -> t(i) volume -1;",
                n=4,
            )

    def test_negative_repetition_rejected(self):
        with pytest.raises(LarcsSemanticError):
            compile_larcs(
                "algorithm a(n);\nnodetype t[0..n-1];\ncomphase p t(i) -> t(i);\n"
                "phases p^(0-2);",
                n=4,
            )

    def test_nodesymmetric_hint_propagates(self):
        res = compile_larcs(
            "algorithm a(n);\nnodetype t[0..n-1] nodesymmetric;\n"
            "comphase p t(i) -> t((i+1) mod n);",
            n=4,
        )
        assert res.task_graph.node_symmetric_hint
