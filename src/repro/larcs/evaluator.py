"""Elaboration of parsed LaRCS programs into task graphs.

Elaboration happens for concrete *parameter bindings*: a LaRCS program is
parametric ("size of the description is independent of the number of nodes
in the task graph"), and only at mapping time are ``n`` and the imported
variables known.

:class:`_Elaborator` binds the names, checks the program's structure
(unknown nodetypes, arities, shadowed names, empty ranges) and declares
the tasks and phases; the edges of each communication rule come from the
function :mod:`repro.larcs.codegen` generated for it, once per program,
and every other expression goes through the same compiler one
expression at a time (:func:`eval_expr`).
"""

from __future__ import annotations

from itertools import product
from math import prod

from repro.graph.phase_expr import EPSILON, Par, PhaseExpr, PhaseRef, Rep, Seq
from repro.graph.taskgraph import TaskGraph
from repro.larcs import ast
from repro.larcs.codegen import _int, compile_rules, eval_expr
from repro.larcs.errors import LarcsSemanticError
from repro.util import perf

__all__ = ["elaborate", "eval_expr"]

Value = int | bool


# ----------------------------------------------------------------------
# elaboration
# ----------------------------------------------------------------------
class _Elaborator:
    def __init__(
        self,
        program: ast.Program,
        bindings: dict[str, int],
        max_tasks: int | None = None,
    ):
        self.program = program
        self.max_tasks = max_tasks
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
            self.spaces[decl.name] = dims = self._space(decl)
            # The ranges give the count before any node exists: a binding
            # like rows=100000 must fail here, not when memory runs out.
            count = prod(hi - lo + 1 for lo, hi in dims)
            if self.max_tasks is not None and tg.n_tasks + count > self.max_tasks:
                # ``2 ** m`` nodes: printing the digits is the slow part.
                bits = count.bit_length()
                shown = count if bits <= 64 else f"2**{bits - 1} or more"
                raise LarcsSemanticError(
                    f"nodetype {decl.name!r} declares {shown} nodes; the "
                    f"task graph may have at most {self.max_tasks}",
                    decl.line,
                )
            if "nodesymmetric" in decl.attrs:
                symmetric = True
            for coords in self._coords_iter(decl.name):
                tg.add_node(self._label(decl.name, coords))
        tg.node_symmetric_hint = symmetric

        for decl, rule_fns in zip(program.comphases, program.rule_fns):
            self._elaborate_comphase(tg, decl, rule_fns)
        for decl in program.execphases:
            self._elaborate_execphase(tg, decl)
        if program.phase_expr is not None:
            tg.phase_expr = self._elaborate_pexpr(program.phase_expr)
        tg.validate()
        return tg

    # -- communication phases -------------------------------------------------
    def _elaborate_comphase(self, tg: TaskGraph, decl: ast.CommPhaseDecl, rule_fns) -> None:
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
            for rule, emit_edges in zip(decl.rules, rule_fns):
                self._elaborate_rule(phase_name, phase, rule, emit_edges, env)

    def _elaborate_rule(self, phase_name, phase, rule: ast.CommRule, emit_edges, env0) -> None:
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

        skipped = emit_edges(env0, self.spaces, phase)
        if skipped:
            self.warnings.append(
                f"comphase {phase_name!r}: skipped {skipped} edge(s) whose "
                f"destination falls outside the declared label space"
            )

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
        env = dict(self.env)
        for coords in self._coords_iter(binding.typename):
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
    *,
    max_tasks: int | None = None,
) -> tuple[TaskGraph, list[str]]:
    """Elaborate *program* under *bindings* into a task graph.

    Returns ``(task_graph, warnings)``; warnings report edges whose computed
    destination fell outside the declared label space (these are silently
    dropped, the standard treatment of boundary cases like the north edge of
    a mesh's top row when no ``where`` guard excludes it).  With
    *max_tasks*, a program whose nodetype ranges declare more nodes than
    that raises :class:`LarcsSemanticError` before the first is created.
    """
    if program.rule_fns is None:
        with perf.span("larcs.codegen"):
            program.rule_fns = compile_rules(program)
    with perf.span("larcs.elaborate"):
        elab = _Elaborator(program, dict(bindings or {}), max_tasks)
        tg = elab.run()
    return tg, elab.warnings
