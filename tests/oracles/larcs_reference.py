"""The LaRCS tree-walking interpreter: the executable specification.

This is ``repro.larcs.evaluator`` as it stood before the code generator
replaced it, moved here unchanged: :func:`eval_expr` walks one expression
under an environment dict, :func:`elaborate` walks a parsed program and
evaluates every guard, coordinate and volume once per (source node x
``forall`` tuple).  ``tests/test_larcs_codegen.py`` requires the
generated code to agree with it on values, errors (message and line),
edge order and warnings; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math
from itertools import product

from repro.graph.phase_expr import EPSILON, Par, PhaseExpr, PhaseRef, Rep, Seq
from repro.graph.taskgraph import TaskGraph
from repro.larcs import ast
from repro.larcs.errors import LarcsSemanticError

__all__ = ["elaborate", "eval_expr"]

Value = int | bool


# ----------------------------------------------------------------------
# expression evaluation
# ----------------------------------------------------------------------
def _int(value: Value, line: int | None, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise LarcsSemanticError(f"{what} must be an integer, got {value!r}", line)
    return value


def _bool(value: Value, line: int | None, what: str) -> bool:
    if not isinstance(value, bool):
        raise LarcsSemanticError(f"{what} must be a boolean, got {value!r}", line)
    return value


def eval_expr(expr: ast.Expr, env: dict[str, Value]) -> Value:
    """Evaluate an arithmetic/boolean expression under *env*.

    All arithmetic is exact integer arithmetic; ``/`` and ``div`` are floor
    division; ``log2`` is the floor base-2 logarithm of a positive value.
    """
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Bool):
        return expr.value
    if isinstance(expr, ast.Name):
        try:
            return env[expr.ident]
        except KeyError:
            raise LarcsSemanticError(f"unbound name {expr.ident!r}", expr.line) from None
    if isinstance(expr, ast.UnOp):
        v = eval_expr(expr.operand, env)
        if expr.op == "-":
            return -_int(v, expr.line, "operand of unary '-'")
        if expr.op == "not":
            return not _bool(v, expr.line, "operand of 'not'")
        raise LarcsSemanticError(f"unknown unary operator {expr.op!r}", expr.line)
    if isinstance(expr, ast.BinOp):
        return _eval_binop(expr, env)
    if isinstance(expr, ast.Call):
        args = [eval_expr(a, env) for a in expr.args]
        return _eval_call(expr, args)
    raise LarcsSemanticError(f"unknown expression node {expr!r}")


def _eval_binop(expr: ast.BinOp, env: dict[str, Value]) -> Value:
    op = expr.op
    if op in ("and", "or"):
        left = _bool(eval_expr(expr.left, env), expr.line, f"left operand of {op!r}")
        # Short-circuit like the host languages LaRCS imports from.
        if op == "and" and not left:
            return False
        if op == "or" and left:
            return True
        return _bool(eval_expr(expr.right, env), expr.line, f"right operand of {op!r}")

    lv = eval_expr(expr.left, env)
    rv = eval_expr(expr.right, env)
    if op in ("==", "!="):
        return (lv == rv) if op == "==" else (lv != rv)
    li = _int(lv, expr.line, f"left operand of {op!r}")
    ri = _int(rv, expr.line, f"right operand of {op!r}")
    if op == "+":
        return li + ri
    if op == "-":
        return li - ri
    if op == "*":
        return li * ri
    if op in ("/", "div"):
        if ri == 0:
            raise LarcsSemanticError("division by zero", expr.line)
        return li // ri
    if op == "mod":
        if ri == 0:
            raise LarcsSemanticError("mod by zero", expr.line)
        return li % ri
    if op == "**":
        if ri < 0:
            raise LarcsSemanticError("negative exponent", expr.line)
        return li**ri
    if op == "xor":
        return li ^ ri
    if op == "shl":
        if ri < 0:
            raise LarcsSemanticError("negative shift", expr.line)
        return li << ri
    if op == "shr":
        if ri < 0:
            raise LarcsSemanticError("negative shift", expr.line)
        return li >> ri
    if op == "<":
        return li < ri
    if op == "<=":
        return li <= ri
    if op == ">":
        return li > ri
    if op == ">=":
        return li >= ri
    raise LarcsSemanticError(f"unknown operator {op!r}", expr.line)


def _eval_call(expr: ast.Call, args: list[Value]) -> Value:
    name = expr.func
    ints = [_int(a, expr.line, f"argument of {name}()") for a in args]
    if name == "min":
        if len(ints) < 1:
            raise LarcsSemanticError("min() needs at least one argument", expr.line)
        return min(ints)
    if name == "max":
        if len(ints) < 1:
            raise LarcsSemanticError("max() needs at least one argument", expr.line)
        return max(ints)
    if name == "abs":
        if len(ints) != 1:
            raise LarcsSemanticError("abs() takes one argument", expr.line)
        return abs(ints[0])
    if name == "log2":
        if len(ints) != 1 or ints[0] <= 0:
            raise LarcsSemanticError("log2() takes one positive argument", expr.line)
        return int(math.log2(ints[0]))
    raise LarcsSemanticError(f"unknown function {name!r}", expr.line)


# ----------------------------------------------------------------------
# elaboration
# ----------------------------------------------------------------------
class _Elaborator:
    def __init__(self, program: ast.Program, bindings: dict[str, int]):
        self.program = program
        self.env: dict[str, Value] = {}
        self.warnings: list[str] = []
        self._bind_names(bindings)
        # nodetype name -> list of per-dimension (lo, hi)
        self.spaces: dict[str, list[tuple[int, int]]] = {}
        self.single_type = len(program.nodetypes) == 1

    # -- environment ------------------------------------------------------
    def _bind_names(self, bindings: dict[str, int]) -> None:
        program = self.program
        known = {name for name, _ in program.params} | {
            name for name, _ in program.imports
        }
        for name in bindings:
            if name not in known:
                raise LarcsSemanticError(
                    f"binding {name!r} matches no parameter or import of "
                    f"algorithm {program.name!r}"
                )
        for name, default in list(program.params) + list(program.imports):
            if name in bindings:
                value = bindings[name]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise LarcsSemanticError(
                        f"binding {name!r} must be an int, got {value!r}"
                    )
                self.env[name] = value
            elif default is not None:
                self.env[name] = eval_expr(default, self.env)
            else:
                raise LarcsSemanticError(
                    f"no binding supplied for parameter {name!r} and it has no default"
                )
        for const in program.constants:
            if const.name in self.env:
                raise LarcsSemanticError(
                    f"constant {const.name!r} shadows an existing name", const.line
                )
            self.env[const.name] = eval_expr(const.value, self.env)

    # -- node labels --------------------------------------------------------
    def _label(self, typename: str, coords: tuple[int, ...]):
        """Concrete node label: plain ints for a single 1-D nodetype."""
        if self.single_type:
            return coords[0] if len(coords) == 1 else coords
        return (typename, *coords)

    def _space(self, decl: ast.NodeTypeDecl) -> list[tuple[int, int]]:
        dims = []
        for r in decl.ranges:
            lo = _int(eval_expr(r.lo, self.env), decl.line, "range bound")
            hi = _int(eval_expr(r.hi, self.env), decl.line, "range bound")
            if hi < lo:
                raise LarcsSemanticError(
                    f"empty range {lo}..{hi} in nodetype {decl.name!r}", decl.line
                )
            dims.append((lo, hi))
        return dims

    def _coords_iter(self, typename: str):
        dims = self.spaces[typename]
        return product(*(range(lo, hi + 1) for lo, hi in dims))

    def _in_space(self, typename: str, coords: tuple[int, ...]) -> bool:
        dims = self.spaces[typename]
        return len(coords) == len(dims) and all(
            lo <= c <= hi for c, (lo, hi) in zip(coords, dims)
        )

    # -- main ----------------------------------------------------------------
    def run(self) -> TaskGraph:
        program = self.program
        if not program.nodetypes:
            raise LarcsSemanticError("program declares no nodetypes")
        tg = TaskGraph(program.name)

        symmetric = False
        for decl in program.nodetypes:
            if decl.name in self.spaces:
                raise LarcsSemanticError(
                    f"duplicate nodetype {decl.name!r}", decl.line
                )
            self.spaces[decl.name] = self._space(decl)
            if "nodesymmetric" in decl.attrs:
                symmetric = True
            for coords in self._coords_iter(decl.name):
                tg.add_node(self._label(decl.name, coords))
        tg.node_symmetric_hint = symmetric

        for decl in program.comphases:
            self._elaborate_comphase(tg, decl)
        for decl in program.execphases:
            self._elaborate_execphase(tg, decl)
        if program.phase_expr is not None:
            tg.phase_expr = self._elaborate_pexpr(program.phase_expr)
        tg.validate()
        return tg

    # -- communication phases -------------------------------------------------
    def _elaborate_comphase(self, tg: TaskGraph, decl: ast.CommPhaseDecl) -> None:
        if decl.index is None:
            instances = [(decl.name, None, None)]
        else:
            var, lo_e, hi_e = decl.index
            lo = _int(eval_expr(lo_e, self.env), decl.line, "comphase index bound")
            hi = _int(eval_expr(hi_e, self.env), decl.line, "comphase index bound")
            if hi < lo:
                raise LarcsSemanticError(
                    f"empty index range {lo}..{hi} in comphase {decl.name!r}",
                    decl.line,
                )
            instances = [(f"{decl.name}[{k}]", var, k) for k in range(lo, hi + 1)]
        for phase_name, var, k in instances:
            phase = tg.add_comm_phase(phase_name)
            env = dict(self.env)
            if var is not None:
                env[var] = k
            for rule in decl.rules:
                self._elaborate_rule(tg, phase_name, phase, rule, env)

    def _elaborate_rule(self, tg, phase_name, phase, rule: ast.CommRule, env0) -> None:
        src = rule.src
        if src.typename not in self.spaces:
            raise LarcsSemanticError(
                f"unknown nodetype {src.typename!r} in comphase rule", rule.line
            )
        if rule.dst.typename not in self.spaces:
            raise LarcsSemanticError(
                f"unknown nodetype {rule.dst.typename!r} in comphase rule", rule.line
            )
        dims = self.spaces[src.typename]
        if len(src.args) != len(dims):
            raise LarcsSemanticError(
                f"nodetype {src.typename!r} has {len(dims)} dimensions, "
                f"pattern uses {len(src.args)}",
                rule.line,
            )
        # The source ref is a *pattern*: distinct fresh variables only.
        pattern_vars: list[str] = []
        for arg in src.args:
            if not isinstance(arg, ast.Name):
                raise LarcsSemanticError(
                    "source node pattern arguments must be plain variables",
                    rule.line,
                )
            if arg.ident in env0 or arg.ident in pattern_vars:
                raise LarcsSemanticError(
                    f"pattern variable {arg.ident!r} shadows an existing name",
                    rule.line,
                )
            pattern_vars.append(arg.ident)

        skipped = 0
        for coords in self._coords_iter(src.typename):
            env = dict(env0)
            env.update(zip(pattern_vars, coords))
            for fa_env in self._forall_envs(rule.foralls, env, rule.line):
                if rule.where is not None and not _bool(
                    eval_expr(rule.where, fa_env), rule.line, "'where' guard"
                ):
                    continue
                dst_coords = tuple(
                    _int(eval_expr(a, fa_env), rule.line, "destination coordinate")
                    for a in rule.dst.args
                )
                if not self._in_space(rule.dst.typename, dst_coords):
                    skipped += 1
                    continue
                volume = 1
                if rule.volume is not None:
                    volume = _int(
                        eval_expr(rule.volume, fa_env), rule.line, "volume"
                    )
                    if volume < 0:
                        raise LarcsSemanticError("negative volume", rule.line)
                src_label = self._label(src.typename, coords)
                dst_label = self._label(rule.dst.typename, dst_coords)
                phase.add(src_label, dst_label, float(volume))
        if skipped:
            self.warnings.append(
                f"comphase {phase_name!r}: skipped {skipped} edge(s) whose "
                f"destination falls outside the declared label space"
            )

    def _forall_envs(self, foralls, env, line):
        if not foralls:
            yield env
            return
        (var, lo_e, hi_e), rest = foralls[0], foralls[1:]
        if var in env:
            raise LarcsSemanticError(
                f"forall variable {var!r} shadows an existing name", line
            )
        lo = _int(eval_expr(lo_e, env), line, "forall bound")
        hi = _int(eval_expr(hi_e, env), line, "forall bound")
        for value in range(lo, hi + 1):
            inner = dict(env)
            inner[var] = value
            yield from self._forall_envs(rest, inner, line)

    # -- execution phases --------------------------------------------------
    def _elaborate_execphase(self, tg: TaskGraph, decl: ast.ExecPhaseDecl) -> None:
        if decl.binding is None:
            cost = 1
            if decl.cost is not None:
                cost = _int(eval_expr(decl.cost, self.env), decl.line, "cost")
            tg.add_exec_phase(decl.name, float(cost))
            return
        binding = decl.binding
        if binding.typename not in self.spaces:
            raise LarcsSemanticError(
                f"unknown nodetype {binding.typename!r} in execphase 'for' clause",
                decl.line,
            )
        dims = self.spaces[binding.typename]
        if len(binding.args) != len(dims):
            raise LarcsSemanticError(
                f"nodetype {binding.typename!r} has {len(dims)} dimensions",
                decl.line,
            )
        pattern_vars = []
        for arg in binding.args:
            if not isinstance(arg, ast.Name) or arg.ident in self.env:
                raise LarcsSemanticError(
                    "execphase 'for' pattern arguments must be fresh variables",
                    decl.line,
                )
            pattern_vars.append(arg.ident)
        costs = {}
        for coords in self._coords_iter(binding.typename):
            env = dict(self.env)
            env.update(zip(pattern_vars, coords))
            cost = 1
            if decl.cost is not None:
                cost = _int(eval_expr(decl.cost, env), decl.line, "cost")
            costs[self._label(binding.typename, coords)] = float(cost)
        tg.add_exec_phase(decl.name, 1.0, costs)

    # -- phase expressions ----------------------------------------------------
    def _elaborate_pexpr(self, px: ast.PExpr, env=None) -> PhaseExpr:
        env = env if env is not None else self.env
        if isinstance(px, ast.PXEps):
            return EPSILON
        if isinstance(px, ast.PXRef):
            if px.index is None:
                return PhaseRef(px.name)
            idx = _int(eval_expr(px.index, env), px.line, "phase index")
            return PhaseRef(f"{px.name}[{idx}]")
        if isinstance(px, ast.PXSeq):
            return Seq(tuple(self._elaborate_pexpr(p, env) for p in px.parts))
        if isinstance(px, ast.PXPar):
            return Par(tuple(self._elaborate_pexpr(p, env) for p in px.parts))
        if isinstance(px, ast.PXRep):
            count = _int(eval_expr(px.count, env), px.line, "repetition count")
            if count < 0:
                raise LarcsSemanticError("negative repetition count", px.line)
            return Rep(self._elaborate_pexpr(px.body, env), count)
        if isinstance(px, ast.PXIndexed):
            if px.var in env:
                raise LarcsSemanticError(
                    f"index variable {px.var!r} shadows an existing name", px.line
                )
            lo = _int(eval_expr(px.lo, env), px.line, "index bound")
            hi = _int(eval_expr(px.hi, env), px.line, "index bound")
            if hi < lo:
                raise LarcsSemanticError(f"empty index range {lo}..{hi}", px.line)
            parts = []
            for k in range(lo, hi + 1):
                inner = dict(env)
                inner[px.var] = k
                parts.append(self._elaborate_pexpr(px.body, inner))
            cls = Seq if px.kind == "seq" else Par
            return cls(tuple(parts))
        raise LarcsSemanticError(f"unknown phase-expression node {px!r}")


def elaborate(
    program: ast.Program,
    bindings: dict[str, int] | None = None,
) -> tuple[TaskGraph, list[str]]:
    """Elaborate *program* under *bindings* into a task graph.

    Returns ``(task_graph, warnings)``; warnings report edges whose computed
    destination fell outside the declared label space (these are silently
    dropped, the standard treatment of boundary cases like the north edge of
    a mesh's top row when no ``where`` guard excludes it).
    """
    elab = _Elaborator(program, dict(bindings or {}))
    tg = elab.run()
    return tg, elab.warnings
