"""The LaRCS back end: expressions and communication rules as Python code.

One compiler, :class:`_ExprCompiler`, turns an arithmetic/boolean
expression into Python source and is the only place the meaning of an
operator is written down.  It is used twice:

* :func:`compile_rules` emits one function per communication rule of a
  program -- nested ``for`` loops over the source ranges and the
  ``forall`` quantifiers with the guard, the destination coordinates, the
  in-space test and the volume inline.  The functions do not depend on the
  bindings: the environment and the node-space bounds are arguments.
* :func:`eval_expr` compiles one expression to ``fn(env)`` and caches the
  function on the AST node.

Typing is static.  Every name a rule can see has a type fixed by the
program text: bindings are validated ints, index, pattern and ``forall``
variables are ints, a constant has the type of its expression.  An
operand known to have the right type is used as is; one known to be
wrong, or not known (a name read from a caller's ``env`` in
:func:`eval_expr`, a parameter whose default is a boolean), goes through
the checked helpers below, which raise the :class:`LarcsSemanticError` --
message and line -- that evaluating the expression at that point calls
for.
"""

from __future__ import annotations

import linecache
import math

from repro.larcs import ast
from repro.larcs.errors import LarcsSemanticError

__all__ = ["compile_rules", "eval_expr"]

#: Static types; ``None`` means "known only at run time".
INT, BOOL = "int", "bool"


# ----------------------------------------------------------------------
# run-time helpers: the globals of every generated function
# ----------------------------------------------------------------------
def _int(value, line, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise LarcsSemanticError(f"{what} must be an integer, got {value!r}", line)
    return value


def _bool(value, line, what):
    if not isinstance(value, bool):
        raise LarcsSemanticError(f"{what} must be a boolean, got {value!r}", line)
    return value


def _int_operands(op, line, left, right):
    """Both operands are evaluated before either is checked."""
    _int(left, line, f"left operand of {op!r}")
    _int(right, line, f"right operand of {op!r}")


def _int_args(name, line, *args):
    for arg in args:
        _int(arg, line, f"argument of {name}()")


def _fail(message, line, *_evaluated):
    """Raise; the trailing arguments exist to be evaluated first."""
    raise LarcsSemanticError(message, line)


def _lookup(env, ident, line):
    try:
        return env[ident]
    except KeyError:
        raise LarcsSemanticError(f"unbound name {ident!r}", line) from None


def _div(left, right, line):
    if right == 0:
        raise LarcsSemanticError("division by zero", line)
    return left // right


def _mod(left, right, line):
    if right == 0:
        raise LarcsSemanticError("mod by zero", line)
    return left % right


def _pow(left, right, line):
    if right < 0:
        raise LarcsSemanticError("negative exponent", line)
    return left**right


def _shl(left, right, line):
    if right < 0:
        raise LarcsSemanticError("negative shift", line)
    return left << right


def _shr(left, right, line):
    if right < 0:
        raise LarcsSemanticError("negative shift", line)
    return left >> right


def _log2(value, line):
    if value <= 0:
        raise LarcsSemanticError("log2() takes one positive argument", line)
    return int(math.log2(value))


_RUNTIME = {
    fn.__name__: fn
    for fn in (_int, _bool, _int_operands, _int_args, _fail, _lookup,
               _div, _mod, _pow, _shl, _shr, _log2)
}

#: Integer operators: Python source over the operand sources and the line.
#: All arithmetic is exact integer arithmetic; ``/`` and ``div`` are floor
#: division.
_INT_OPS = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": "({0} * {1})",
    "xor": "({0} ^ {1})",
    "/": "_div({0}, {1}, {line})",
    "div": "_div({0}, {1}, {line})",
    "mod": "_mod({0}, {1}, {line})",
    "**": "_pow({0}, {1}, {line})",
    "shl": "_shl({0}, {1}, {line})",
    "shr": "_shr({0}, {1}, {line})",
}
_COMPARISONS = {"<", "<=", ">", ">="}


def _function(name: str, params: str, body: list[str], filename: str):
    """Define ``name(params)`` from its body lines.

    The source is registered with :mod:`linecache` under *filename*, so a
    traceback through generated code shows the generated line.  A later
    function with the same *filename* replaces the entry, which keeps the
    registry no larger than the set of distinct (name, line) pairs.
    """
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), _RUNTIME, namespace)
    return namespace[name]


def _local(ident: str) -> str:
    """The Python local holding LaRCS name *ident*; never a keyword, a
    builtin or one of the generator's own ``_names``."""
    return f"v_{ident}" if ident.isascii() else "u_" + ident.encode().hex()


def _tuple(items: list[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class _ExprCompiler:
    """Expression -> ``(python source, static type)``.

    *resolve* maps ``(ident, line)`` to the source and type of a name.
    """

    def __init__(self, resolve):
        self.resolve = resolve
        self.temps = 0

    def temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps}"

    def as_int(self, expr: ast.Expr, line, what: str) -> str:
        code, kind = self.compile(expr)
        return code if kind == INT else f"_int({code}, {line}, {what!r})"

    def as_bool(self, expr: ast.Expr, line, what: str) -> str:
        code, kind = self.compile(expr)
        return code if kind == BOOL else f"_bool({code}, {line}, {what!r})"

    def compile(self, expr: ast.Expr) -> tuple[str, str | None]:
        if isinstance(expr, ast.Num):
            return (f"({expr.value})" if expr.value < 0 else str(expr.value)), INT
        if isinstance(expr, ast.Bool):
            return repr(expr.value), BOOL
        if isinstance(expr, ast.Name):
            return self.resolve(expr.ident, expr.line)
        if isinstance(expr, ast.UnOp):
            line, op = expr.line, expr.op
            if op == "-":
                operand = self.as_int(expr.operand, line, "operand of unary '-'")
                return f"(-{operand})", INT
            if op == "not":
                operand = self.as_bool(expr.operand, line, "operand of 'not'")
                return f"(not {operand})", BOOL
            operand, _ = self.compile(expr.operand)
            return f"_fail({f'unknown unary operator {op!r}'!r}, {line}, {operand})", None
        if isinstance(expr, ast.BinOp):
            return self._binop(expr)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        return f"_fail({f'unknown expression node {expr!r}'!r}, None)", None

    def _binop(self, expr: ast.BinOp) -> tuple[str, str | None]:
        op, line = expr.op, expr.line
        if op in ("and", "or"):
            # Python's own short circuit, like the host languages LaRCS
            # imports from; both operands are booleans, so is the result.
            left = self.as_bool(expr.left, line, f"left operand of {op!r}")
            right = self.as_bool(expr.right, line, f"right operand of {op!r}")
            return f"({left} {op} {right})", BOOL
        left, left_kind = self.compile(expr.left)
        right, right_kind = self.compile(expr.right)
        if op in ("==", "!="):
            return f"({left} {op} {right})", BOOL
        if op in _COMPARISONS:
            template, kind = f"({{0}} {op} {{1}})", BOOL
        elif op in _INT_OPS:
            template, kind = _INT_OPS[op], INT
        else:
            template, kind = f"_fail({f'unknown operator {op!r}'!r}, {{line}})", None
        if left_kind == INT and right_kind == INT:
            return template.format(left, right, line=line), kind
        a, b = self.temp(), self.temp()
        checked = f"_int_operands({op!r}, {line}, {a} := {left}, {b} := {right})"
        return f"({checked} or {template.format(a, b, line=line)})", kind

    def _call(self, expr: ast.Call) -> tuple[str, str | None]:
        name, line = expr.func, expr.line
        compiled = [self.compile(arg) for arg in expr.args]
        args = [code for code, _ in compiled]
        checked = None
        if any(kind != INT for _, kind in compiled):
            temps = [self.temp() for _ in args]
            walrus = ", ".join(f"{t} := {code}" for t, code in zip(temps, args))
            checked, args = f"_int_args({name!r}, {line}, {walrus})", temps
        if name in ("min", "max"):
            body = (f"{name}({_tuple(args)})" if args else
                    f"_fail({f'{name}() needs at least one argument'!r}, {line})")
        elif name == "abs":
            body = (f"abs({args[0]})" if len(args) == 1 else
                    f"_fail('abs() takes one argument', {line}, {', '.join(args)})")
        elif name == "log2":
            body = (f"_log2({args[0]}, {line})" if len(args) == 1 else
                    f"_fail('log2() takes one positive argument', {line}, {', '.join(args)})")
        else:
            body = f"_fail({f'unknown function {name!r}'!r}, {line}, {', '.join(args)})"
        return (f"({checked} or {body})" if checked else body), INT


def eval_expr(expr: ast.Expr, env: dict[str, int | bool]) -> int | bool:
    """Evaluate an arithmetic/boolean expression under *env*.

    All arithmetic is exact integer arithmetic; ``/`` and ``div`` are floor
    division; ``log2`` is the floor base-2 logarithm of a positive value.
    The expression is compiled on first use and the function kept on the
    node; nothing is known about *env* ahead of time, so names are looked
    up and checked at run time.
    """
    fn = getattr(expr, "_eval", None)
    if fn is None:
        compiler = _ExprCompiler(
            lambda ident, line: (f"_lookup(env, {ident!r}, {line})", None)
        )
        code, _ = compiler.compile(expr)
        fn = expr._eval = _function(
            "_eval", "env", [f"return {code}"], f"<larcs expr:{expr.line}>"
        )
    return fn(env)


# ----------------------------------------------------------------------
# communication rules
# ----------------------------------------------------------------------
def _program_scope(program: ast.Program) -> dict[str, str | None]:
    """Static types of the names every rule of *program* can see."""
    scope: dict[str, str | None] = {}

    def kind_of(expr: ast.Expr) -> str | None:
        return _ExprCompiler(lambda ident, line: ("_", scope.get(ident))).compile(expr)[1]

    for name, default in [*program.params, *program.imports]:
        # A supplied binding is a validated int; a default is whatever
        # its expression yields.
        scope[name] = INT if default is None or kind_of(default) == INT else None
    for const in program.constants:
        scope[const.name] = kind_of(const.value)
    return scope


class _RuleCompiler:
    """One rule -> ``_rule(env, spaces, phase) -> skipped``.

    *env* holds the program's names (and the comphase index, if any),
    *spaces* maps a nodetype to its per-dimension ``(lo, hi)`` bounds,
    *phase* receives the edges; the count of edges whose destination fell
    outside the label space comes back.
    """

    def __init__(self, program: ast.Program):
        self.name = program.name
        self.arity = {decl.name: len(decl.ranges) for decl in program.nodetypes}
        self.single_type = len(program.nodetypes) == 1
        self.scope = _program_scope(program)

    def label(self, typename: str, coords: list[str]) -> str:
        """Concrete node label: plain ints for a single 1-D nodetype."""
        if self.single_type:
            return coords[0] if len(coords) == 1 else _tuple(coords)
        return _tuple([repr(typename), *coords])

    def compile(self, decl: ast.CommPhaseDecl, rule: ast.CommRule):
        src, dst, line = rule.src, rule.dst, rule.line
        if (
            src.typename not in self.arity
            or dst.typename not in self.arity
            or len(src.args) != self.arity[src.typename]
            or not all(isinstance(arg, ast.Name) for arg in src.args)
        ):
            return None  # the elaborator rejects these before calling
        outer = dict(self.scope)
        if decl.index is not None:
            outer[decl.index[0]] = INT
        loops: set[str] = set()   # pattern and forall variables bound so far
        loaded: set[str] = set()  # outer names the body reads

        def resolve(ident, name_line):
            if ident in loops:
                return _local(ident), INT
            if ident in outer:
                loaded.add(ident)
                return _local(ident), outer[ident]
            return f"_fail({f'unbound name {ident!r}'!r}, {name_line})", None

        exprs = _ExprCompiler(resolve)
        body: list[str] = []
        depth = 0

        def emit(text: str) -> None:
            body.append("    " * depth + text)

        for k, arg in enumerate(src.args):
            emit(f"for {_local(arg.ident)} in range(_slo{k}, _shi{k} + 1):")
            loops.add(arg.ident)
            depth += 1
        for var, lo, hi in rule.foralls:
            if var in loops or var in outer:
                emit(f"_fail({f'forall variable {var!r} shadows an existing name'!r}, {line})")
            lo_code = exprs.as_int(lo, line, "forall bound")
            hi_code = exprs.as_int(hi, line, "forall bound")
            emit(f"for {_local(var)} in range({lo_code}, {hi_code} + 1):")
            loops.add(var)
            depth += 1
        if rule.where is not None:
            emit(f"if not {exprs.as_bool(rule.where, line, repr('where') + ' guard')}:")
            emit("    continue")
        coords = [f"_d{k}" for k in range(len(dst.args))]
        for coord, arg in zip(coords, dst.args):
            emit(f"{coord} = {exprs.as_int(arg, line, 'destination coordinate')}")
        if len(dst.args) != self.arity[dst.typename]:
            emit("skipped += 1")  # no such label, whatever the coordinates
        else:
            if coords:
                test = " and ".join(f"_dlo{k} <= _d{k} <= _dhi{k}" for k in range(len(coords)))
                emit(f"if not ({test}):")
                emit("    skipped += 1")
                emit("    continue")
            volume = "1.0"
            if rule.volume is not None:
                emit(f"_volume = {exprs.as_int(rule.volume, line, 'volume')}")
                emit("if _volume < 0:")
                emit(f"    _fail('negative volume', {line})")
                volume = "float(_volume)"
            src_label = self.label(src.typename, [_local(a.ident) for a in src.args])
            emit(f"add({src_label}, {self.label(dst.typename, coords)}, {volume})")

        head = [f"{_local(ident)} = env[{ident!r}]" for ident in sorted(loaded)]
        for prefix, ref in (("s", src), ("d", dst)):
            bounds = ", ".join(
                f"(_{prefix}lo{k}, _{prefix}hi{k})" for k in range(self.arity[ref.typename])
            )
            head.append(f"[{bounds}] = spaces[{ref.typename!r}]")
        head += ["add = phase.add", "skipped = 0"]
        return _function(
            "_rule", "env, spaces, phase", head + body + ["return skipped"],
            f"<larcs {self.name}:{line}>",
        )


def compile_rules(program: ast.Program) -> list[list]:
    """The rule functions of *program*, ``[comphase][rule]``, in
    declaration order (``None`` for a rule the elaborator rejects)."""
    compiler = _RuleCompiler(program)
    return [
        [compiler.compile(decl, rule) for rule in decl.rules]
        for decl in program.comphases
    ]
