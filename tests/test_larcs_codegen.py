"""Differential tests: generated code against the tree-walking interpreter.

``repro.larcs.codegen`` compiles expressions and communication rules to
Python; ``tests/oracles/larcs_reference.py`` is the interpreter it
replaced, kept as the specification.  The two must agree on values,
errors (message and line), node and edge order, volumes, costs, phase
expressions and warnings -- on the stdlib at paper scale, on generated
expressions over every operator including the failing ones, and through
the shared program memo under threads and caller mutation.
"""

import copy
import linecache
import sys
import threading
import traceback

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.phase_expr import PhaseRef
from repro.larcs import ast, stdlib
from repro.larcs.compiler import PROGRAM_CACHE, compile_larcs
from repro.larcs.errors import LarcsSemanticError
from repro.larcs.evaluator import elaborate, eval_expr
from repro.larcs.parser import parse_larcs
from repro.util import perf
from tests.oracles import larcs_reference

#: The 24 ``paper_batch`` instances of the layered benchmark ...
PAPER_BATCH = [
    ("nbody", {"n": 63}), ("nbody", {"n": 31}), ("fft", {"m": 6}),
    ("fft", {"m": 7}), ("dnc", {"m": 6}), ("fft", {"m": 5}),
    ("voting", {"m": 6}), ("voting", {"m": 5}), ("bitonic", {"m": 5}),
    ("jacobi", {"rows": 8, "cols": 8}),
    ("jacobi", {"rows": 8, "cols": 8, "iters": 10}),
    ("jacobi", {"rows": 8, "cols": 16}),
    ("sor", {"rows": 8, "cols": 8, "iters": 4}), ("nbody", {"n": 15}),
    ("dnc", {"m": 5}), ("cannon", {"q": 8}), ("cannon", {"q": 4}),
    ("pipeline", {"n": 64, "items": 8}),
    ("annealing", {"rows": 8, "cols": 8, "sweeps": 5}),
    ("annealing", {"rows": 4, "cols": 8}), ("oddeven", {"n": 64}),
    ("oddeven", {"n": 32}), ("gauss", {"n": 32}), ("gauss", {"n": 24}),
]
#: ... the larger graphs its other workloads build, and enough small ones
#: that every stdlib program appears under at least three bindings.
MORE = [
    ("bitonic", {"m": 6}), ("jacobi", {"rows": 32, "cols": 32, "iters": 50}),
    ("fft", {"m": 8}), ("nbody", {"n": 63, "sweeps": 4}),
    ("dnc", {"m": 3}), ("voting", {"m": 3}), ("bitonic", {"m": 3}),
    ("sor", {"rows": 3, "cols": 3, "msize": 4}), ("sor", {"rows": 4, "cols": 5}),
    ("cannon", {"q": 3, "ablock": 2, "bblock": 5}),
    ("pipeline", {"n": 4}), ("pipeline", {"n": 9, "items": 2, "msize": 3}),
    ("annealing", {"rows": 3, "cols": 3, "statesize": 7}),
    ("oddeven", {"n": 7, "keysize": 2}), ("gauss", {"n": 5, "rowsize": 3}),
]

#: Two nodetypes (tuple labels carrying the type name), destinations that
#: leave the label space (warnings), a quantifier, a block of rules, a
#: parameter whose default is a boolean and a boolean constant (names whose
#: type the code generator cannot or can fix), per-task costs.
MIXED = """
algorithm mixed(n, flag = n > 2);
import w = 2;
constant big = n > 3;
constant h = n / 2;
nodetype a[0 .. n-1];
nodetype b[0 .. h, 0 .. 1];
comphase up a(i) -> b(i / 2, i mod 3) volume w * (i + 1);
comphase down forall k in 0 .. 2 : b(i, j) -> a(2 * i + k) where big or flag;
comphase cross {
    a(i) -> a(i + 1);
    a(i) -> a(i - 1) where not flag or i > 1 volume abs(i - h) + log2(n);
}
comphase wrong a(i) -> b(i);
execphase work for b(i, j) cost i + j;
phases (up; work; (down || cross))^h;
"""


def view(tg, warnings):
    """Everything elaboration produces, order included."""
    return {
        "name": tg.name,
        "hint": tg.node_symmetric_hint,
        "nodes": [(n, tg.node_weight(n)) for n in tg.nodes],
        "comm": [
            (name, [(e.src, e.dst, e.volume) for e in phase.edges])
            for name, phase in tg.comm_phases.items()
        ],
        "exec": [
            (name, phase.cost, list(phase.costs.items()))
            for name, phase in tg.exec_phases.items()
        ],
        "phase_expr": str(tg.phase_expr),
        "warnings": list(warnings),
        "fingerprint": tg.fingerprint(),
    }


def outcome(fn):
    """A value with its type, or the error an evaluation raises."""
    try:
        value = fn()
    except LarcsSemanticError as exc:
        return ("error", str(exc), exc.line)
    return ("value", type(value).__name__, value)


def both(source_or_program, bindings):
    """(generated, reference) outcomes of elaborating one program."""
    def run(elaborator):
        program = source_or_program
        if isinstance(program, str):
            program = parse_larcs(program)
        else:
            program = copy.deepcopy(program)
        return outcome(lambda: view(*elaborator(program, bindings)))

    return run(elaborate), run(larcs_reference.elaborate)


# ----------------------------------------------------------------------
# (i) whole programs
# ----------------------------------------------------------------------
class TestProgramsAgree:
    @pytest.mark.parametrize(
        "name,bindings", PAPER_BATCH + MORE,
        ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v.items()),
    )
    def test_stdlib(self, name, bindings):
        result = compile_larcs(stdlib.PROGRAMS[name], bindings)
        expected = larcs_reference.elaborate(parse_larcs(stdlib.PROGRAMS[name]), bindings)
        assert view(result.task_graph, result.warnings) == view(*expected)

    def test_every_stdlib_program_has_three_bindings(self):
        counts = {name: 0 for name in stdlib.PROGRAMS}
        for name, _ in PAPER_BATCH + MORE:
            counts[name] += 1
        assert min(counts.values()) >= 3, counts

    @pytest.mark.parametrize("bindings", [
        {"n": 2}, {"n": 3}, {"n": 6}, {"n": 7, "w": 0}, {"n": 5, "flag": 0},
        {"n": 4, "flag": 1, "w": -1},
    ], ids=str)
    def test_mixed_program(self, bindings):
        generated, reference = both(MIXED, bindings)
        assert generated == reference
        if bindings.get("w", 2) >= 0 and bindings.get("flag") is None:
            kind, _, doc = generated
            assert kind == "value"
            assert any("wrong" in w for w in doc["warnings"])
            assert doc["nodes"][0][0] == ("a", 0)


# ----------------------------------------------------------------------
# (ii) expressions
# ----------------------------------------------------------------------
INT_OPS = ["+", "-", "*", "/", "div", "mod", "**", "xor", "shl", "shr"]
OTHER_OPS = ["==", "!=", "<", "<=", ">", ">=", "and", "or"]
#: Names as the rule-level test binds them: ``n`` ``m`` parameters, ``d`` a
#: parameter whose default is an int, ``p`` one whose default is a boolean,
#: ``c`` ``t`` an int and a boolean constant, ``i`` the pattern variable,
#: ``k`` the quantifier, ``s`` the comphase index; ``zz`` is never bound.
NAMES = ["n", "m", "d", "p", "c", "t", "i", "k", "s", "zz"]

lines = st.integers(1, 9)
small = st.integers(-3, 6)
leaves = st.one_of(
    st.builds(ast.Num, st.integers(0, 6), lines),
    st.builds(ast.Bool, st.booleans(), lines),
    st.builds(ast.Name, st.sampled_from(NAMES), lines),
)


def _grow(children):
    # ``**`` and the shifts take a leaf on the right: values stay small
    # enough to compute whatever the tree's shape.
    return st.one_of(
        st.builds(ast.UnOp, st.sampled_from(["-", "not"]), children, lines),
        st.builds(ast.BinOp, st.sampled_from(INT_OPS[:6] + ["xor"] + OTHER_OPS),
                  children, children, lines),
        st.builds(ast.BinOp, st.sampled_from(["**", "shl", "shr"]), children, leaves, lines),
        st.builds(ast.Call, st.sampled_from(["min", "max"]),
                  st.lists(children, min_size=1, max_size=3), lines),
        st.builds(ast.Call, st.sampled_from(["abs", "log2"]),
                  st.lists(children, min_size=1, max_size=1), lines),
    )


#: Any tree at all (mostly type errors) ...
untyped = st.recursive(leaves, _grow, max_leaves=12)
#: ... and trees that respect the types of ``NAMES`` as the rule binds
#: them, so that values, division by zero, negative shifts and ``log2`` of
#: a non-positive are reached deep inside an expression.
ints = st.deferred(lambda: st.one_of(
    st.builds(ast.Num, st.integers(0, 6), lines),
    st.builds(ast.Name, st.sampled_from(["n", "m", "d", "c", "i", "k", "s"]), lines),
    st.builds(ast.UnOp, st.just("-"), ints, lines),
    st.builds(ast.BinOp, st.sampled_from(INT_OPS[:6] + ["xor"]), ints, ints, lines),
    st.builds(ast.BinOp, st.sampled_from(["**", "shl", "shr"]), ints,
              st.builds(ast.Name, st.sampled_from(["d", "i", "k", "m"]), lines), lines),
    st.builds(ast.Call, st.sampled_from(["min", "max"]),
              st.lists(ints, min_size=1, max_size=3), lines),
    st.builds(ast.Call, st.sampled_from(["abs", "log2"]),
              st.lists(ints, min_size=1, max_size=1), lines),
))
bools = st.deferred(lambda: st.one_of(
    st.builds(ast.Bool, st.booleans(), lines),
    st.builds(ast.Name, st.just("t"), lines),
    st.builds(ast.UnOp, st.just("not"), bools, lines),
    st.builds(ast.BinOp, st.sampled_from(OTHER_OPS[:6]), ints, ints, lines),
    st.builds(ast.BinOp, st.sampled_from(["and", "or", "==", "!="]), bools, bools, lines),
))
expressions = st.one_of(untyped, ints, bools)
environments = st.dictionaries(
    st.sampled_from(NAMES[:-1]), st.one_of(small, st.booleans()), max_size=9,
)


def _rule_program(expr, position):
    """A one-rule program with *expr* as guard, coordinate or volume."""
    rule = ast.CommRule(
        foralls=[("k", ast.Num(0), ast.Num(2))],
        src=ast.NodeRef("t", [ast.Name("i")]),
        dst=ast.NodeRef("t", [expr if position == "dst" else ast.Name("i")]),
        where=expr if position == "where" else None,
        volume=expr if position == "volume" else None,
        line=4,
    )
    return ast.Program(
        name="probe",
        params=[("n", None), ("m", None), ("d", ast.Num(2)),
                ("p", ast.BinOp(">", ast.Name("n"), ast.Num(1)))],
        imports=[],
        constants=[ast.ConstDecl("c", ast.BinOp("-", ast.Name("n"), ast.Name("m"))),
                   ast.ConstDecl("t", ast.BinOp("<", ast.Name("m"), ast.Num(2)))],
        nodetypes=[ast.NodeTypeDecl("t", [ast.RangeDecl(ast.Num(0), ast.Num(3))])],
        comphases=[ast.CommPhaseDecl("ph", [rule],
                                     index=("s", ast.Num(0), ast.Num(1)), line=3)],
        execphases=[],
        phase_expr=None,
    )


class TestExpressionsAgree:
    @settings(max_examples=600, deadline=None)
    @given(expressions, environments)
    def test_eval_expr(self, expr, env):
        reference = outcome(lambda: larcs_reference.eval_expr(copy.deepcopy(expr), env))
        assert outcome(lambda: eval_expr(expr, env)) == reference
        # the function cached on the node answers the same
        assert outcome(lambda: eval_expr(expr, env)) == reference

    @settings(max_examples=400, deadline=None)
    @given(expressions, st.sampled_from(["where", "dst", "volume"]),
           small, small, st.one_of(st.none(), small))
    def test_inside_a_rule(self, expr, position, n, m, p):
        """The statically typed path: the same expression as a guard, a
        destination coordinate and a volume."""
        bindings = {"n": n, "m": m}
        if p is not None:
            bindings["p"] = p
        generated, reference = both(_rule_program(expr, position), bindings)
        assert generated == reference

    @pytest.mark.parametrize("text,env,expected", [
        ("7 / 0", {}, "line 2: division by zero"),
        ("7 div (n - n)", {"n": 3}, "line 2: division by zero"),
        ("7 mod 0", {}, "line 2: mod by zero"),
        ("1 shl (0 - 1)", {}, "line 2: negative shift"),
        ("8 shr (0 - 1)", {}, "line 2: negative shift"),
        ("2 ** (0 - 1)", {}, "line 2: negative exponent"),
        ("log2(0)", {}, "line 2: log2() takes one positive argument"),
        ("log2(0 - 4)", {}, "line 2: log2() takes one positive argument"),
        ("true + 1", {}, "line 2: left operand of '+' must be an integer, got True"),
        ("1 - (2 < 3)", {}, "line 2: right operand of '-' must be an integer, got True"),
        ("3 and true", {}, "line 2: left operand of 'and' must be a boolean, got 3"),
        ("true and 3", {}, "line 2: right operand of 'and' must be a boolean, got 3"),
        ("not 3", {}, "line 2: operand of 'not' must be a boolean, got 3"),
        ("-(1 < 2)", {}, "line 2: operand of unary '-' must be an integer, got True"),
        ("min(1, true)", {}, "line 2: argument of min() must be an integer, got True"),
        ("n + 1", {"n": True}, "line 2: left operand of '+' must be an integer, got True"),
        ("nosuch * 2", {}, "line 2: unbound name 'nosuch'"),
        # both operands are evaluated before either is type-checked
        ("true + 1 / 0", {}, "line 2: division by zero"),
    ])
    def test_failing_expressions(self, text, env, expected):
        def expr():
            source = f"algorithm a(n);\nconstant x = {text};\nnodetype t[0..1];"
            return parse_larcs(source).constants[0].value

        reference = outcome(lambda: larcs_reference.eval_expr(expr(), env))
        assert reference == ("error", expected, 2)
        assert outcome(lambda: eval_expr(expr(), env)) == reference

    @pytest.mark.parametrize("a,expected", [(0, False), (2, True), (5, False)])
    def test_short_circuit_protects_the_division(self, a, expected):
        source = f"algorithm q(n, a);\nconstant x = a != 0 and n / a > 1;\nnodetype t[0..1];"
        expr = parse_larcs(source).constants[0].value
        assert eval_expr(expr, {"n": 6, "a": a}) is expected
        guarded = """
        algorithm q(n, a);
        nodetype t[0 .. n-1];
        comphase p t(i) -> t((i + 1) mod n) where a != 0 and n / a > 1;
        """
        generated, reference = both(guarded, {"n": 6, "a": a})
        assert generated == reference
        assert len(generated[2]["comm"][0][1]) == (6 if expected else 0)

    @pytest.mark.parametrize("rule,message", [
        ("forall n in 0 .. 1 : t(i) -> t(n)", "forall variable 'n' shadows"),
        ("forall i in 0 .. 1 : t(i) -> t(i)", "forall variable 'i' shadows"),
        ("forall k in 0 .. 1 : forall k in 0 .. 1 : t(i) -> t(k)", "forall variable 'k' shadows"),
        ("forall s in 0 .. 1 : t(i) -> t(s)", "forall variable 's' shadows"),
        # an empty outer range: the inner quantifier is never reached
        ("forall k in 1 .. 0 : forall n in 0 .. 1 : t(i) -> t(n)", None),
        # the bounds of the outer quantifier are evaluated first
        ("forall k in 0 .. 1 / 0 : forall n in 0 .. 1 : t(i) -> t(n)", "division by zero"),
        ("t(n) -> t(n)", "pattern variable 'n' shadows"),
        ("t(s) -> t(s)", "pattern variable 's' shadows"),
        ("t(i) -> t(i) volume 0 - 1", "negative volume"),
        ("t(i) -> u(i)", "unknown nodetype 'u'"),
        ("t(i, j) -> t(i)", "pattern uses 2"),
    ])
    def test_structure_errors(self, rule, message):
        source = f"""
        algorithm a(n);
        nodetype t[0 .. n-1];
        comphase p[s : 0 .. 1]
            {rule};
        """
        generated, reference = both(source, {"n": 3})
        assert generated == reference
        if message is None:
            assert generated[0] == "value"
        else:
            assert generated[0] == "error" and message in generated[1]
            assert generated[2] == 5


# ----------------------------------------------------------------------
# (iii), (iv) the program memo
# ----------------------------------------------------------------------
class TestProgramMemo:
    def test_first_loads_race(self):
        PROGRAM_CACHE.clear()
        barrier = threading.Barrier(8)
        graphs = [None] * 8

        def load(slot):
            barrier.wait()
            graphs[slot] = stdlib.load("gauss", n=24)

        threads = [threading.Thread(target=load, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected, _ = larcs_reference.elaborate(parse_larcs(stdlib.PROGRAMS["gauss"]), {"n": 24})
        expected.family = stdlib.family_tag("gauss", expected)
        assert {tg.fingerprint() for tg in graphs} == {expected.fingerprint()}
        assert len({id(tg) for tg in graphs}) == 8
        assert len({id(tg.comm_phase("bcast[0]")) for tg in graphs}) == 8

    def test_mutating_a_loaded_graph_leaves_the_next_load_alone(self):
        first = stdlib.load("jacobi", rows=4, cols=4)
        fingerprint = first.fingerprint()
        first.phase_expr = PhaseRef("north")
        first.add_node("intruder")
        first.comm_phase("north").add((0, 0), (3, 3), 9.0)
        first.exec_phase("relax").costs.clear()
        assert first.fingerprint() != fingerprint
        again = stdlib.load("jacobi", rows=4, cols=4)
        assert again is not first
        assert again.fingerprint() == fingerprint
        assert "intruder" not in again.nodes

    def test_the_memo_holds_programs_not_graphs(self):
        PROGRAM_CACHE.clear()
        before = PROGRAM_CACHE.stats()
        for n in (5, 6, 7):
            stdlib.load("gauss", n=n)
        after = PROGRAM_CACHE.stats()
        assert after["entries"] == 1
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 2
        assert isinstance(PROGRAM_CACHE.peek(stdlib.PROGRAMS["gauss"]), ast.Program)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestVisible:
    def test_parse_and_codegen_once_elaborate_per_load(self):
        source = stdlib.PROGRAMS["voting"] + "\n-- a source no other test compiles\n"
        perf.reset()
        for m in (2, 3, 4):
            compile_larcs(source, m=m)
        spans = perf.stats()
        assert spans["larcs.parse"].calls == 1
        assert spans["larcs.codegen"].calls == 1
        assert spans["larcs.elaborate"].calls == 3

    def test_traceback_shows_the_generated_source(self):
        source = """
        algorithm boom(n);
        nodetype t[0 .. n-1];
        comphase p t(i) -> t(i / (i - 1));
        """
        with pytest.raises(LarcsSemanticError) as info:
            compile_larcs(source, n=3)
        frames = traceback.extract_tb(info.value.__traceback__)
        generated = [f for f in frames if f.filename == "<larcs boom:4>"]
        assert generated and generated[0].name == "_rule"
        assert "_div(v_i, (v_i - 1), 4)" in generated[0].line
        text = "".join(linecache.getlines("<larcs boom:4>"))
        assert text.startswith("def _rule(env, spaces, phase):")
        assert "for v_i in range(_slo0, _shi0 + 1):" in text
