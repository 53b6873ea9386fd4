"""Abstract syntax for LaRCS programs.

Two expression sub-languages share one AST family:

* *arithmetic/boolean expressions* (node labels, volumes, costs, guards,
  repetition counts) -- :class:`Expr` and subclasses;
* *phase expressions* (the dynamic behaviour) -- :class:`PExpr` and
  subclasses, including the indexed ``seq k in a..b : body`` / ``par ..``
  families that elaborate FFT-style per-stage phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Expr",
    "Num",
    "Bool",
    "Name",
    "UnOp",
    "BinOp",
    "Call",
    "PExpr",
    "PXEps",
    "PXRef",
    "PXSeq",
    "PXPar",
    "PXRep",
    "PXIndexed",
    "NodeRef",
    "RangeDecl",
    "NodeTypeDecl",
    "CommRule",
    "CommPhaseDecl",
    "ExecPhaseDecl",
    "ConstDecl",
    "Program",
]


# ----------------------------------------------------------------------
# arithmetic / boolean expressions
# ----------------------------------------------------------------------
class Expr:
    """Base of the arithmetic/boolean expression AST."""

    line: int | None = None


@dataclass
class Num(Expr):
    """Integer literal."""

    value: int
    line: int | None = None


@dataclass
class Bool(Expr):
    """Boolean literal (``true`` / ``false``)."""

    value: bool
    line: int | None = None


@dataclass
class Name(Expr):
    """Reference to a parameter, import, constant, or bound index variable."""

    ident: str
    line: int | None = None


@dataclass
class UnOp(Expr):
    """Unary operation: ``-`` or ``not``."""

    op: str
    operand: Expr
    line: int | None = None


@dataclass
class BinOp(Expr):
    """Binary operation.

    ``op`` is one of ``+ - * / mod div ** xor shl shr and or`` or a
    comparison ``== != < <= > >=``.  ``/`` and ``div`` are both integer
    (floor) division -- LaRCS expressions are integral throughout.
    """

    op: str
    left: Expr
    right: Expr
    line: int | None = None


@dataclass
class Call(Expr):
    """Builtin function call: ``min``, ``max``, ``abs``, ``log2``."""

    func: str
    args: list[Expr]
    line: int | None = None


# ----------------------------------------------------------------------
# phase expressions (parameterised; counts are Exprs)
# ----------------------------------------------------------------------
class PExpr:
    """Base of the (unelaborated) phase-expression AST."""

    line: int | None = None


@dataclass
class PXEps(PExpr):
    """The idle task ``eps``."""

    line: int | None = None


@dataclass
class PXRef(PExpr):
    """A phase reference, optionally indexed: ``ring`` or ``fly[k]``."""

    name: str
    index: Expr | None = None
    line: int | None = None


@dataclass
class PXSeq(PExpr):
    """Sequential composition ``r1; r2; ..``."""

    parts: list[PExpr]
    line: int | None = None


@dataclass
class PXPar(PExpr):
    """Parallel composition ``r1 || r2 || ..``."""

    parts: list[PExpr]
    line: int | None = None


@dataclass
class PXRep(PExpr):
    """Repetition ``r ^ count`` with a parameterised count."""

    body: PExpr
    count: Expr
    line: int | None = None


@dataclass
class PXIndexed(PExpr):
    """Indexed family: ``seq k in a..b : body`` or ``par k in a..b : body``.

    Elaborates to a :class:`PXSeq` / :class:`PXPar` over the instantiated
    bodies, one per index value.
    """

    kind: str  # "seq" or "par"
    var: str
    lo: Expr
    hi: Expr
    body: PExpr
    line: int | None = None


# ----------------------------------------------------------------------
# declarations
# ----------------------------------------------------------------------
@dataclass
class NodeRef:
    """A node pattern or expression like ``body(i)`` or ``cell(i, j+1)``."""

    typename: str
    args: list[Expr]
    line: int | None = None


@dataclass
class RangeDecl:
    """An inclusive label range ``lo .. hi`` (one nodetype dimension)."""

    lo: Expr
    hi: Expr


@dataclass
class NodeTypeDecl:
    """``nodetype body[0..n-1] nodesymmetric;``"""

    name: str
    ranges: list[RangeDecl]
    attrs: list[str] = field(default_factory=list)
    line: int | None = None


@dataclass
class CommRule:
    """One edge-generating rule of a communication phase.

    ``src`` must use distinct plain variables as its arguments (a pattern
    binding one index variable per dimension).  Extra ``forall`` quantifiers
    allow one-to-many phases; ``where`` filters; ``volume`` gives the
    per-message data volume.
    """

    foralls: list[tuple[str, Expr, Expr]]
    src: NodeRef
    dst: NodeRef
    where: Expr | None = None
    volume: Expr | None = None
    line: int | None = None


@dataclass
class CommPhaseDecl:
    """``comphase NAME [k : lo..hi]? { rule; rule; }``

    When *index* is present the declaration elaborates into one phase per
    index value, named ``NAME[value]``.
    """

    name: str
    rules: list[CommRule]
    index: tuple[str, Expr, Expr] | None = None
    line: int | None = None


@dataclass
class ExecPhaseDecl:
    """``execphase NAME [for body(i)]? [cost expr]? ;``

    With a ``for`` binding the cost expression is evaluated per task, with
    the pattern variables bound to the task's label coordinates.
    """

    name: str
    binding: NodeRef | None = None
    cost: Expr | None = None
    line: int | None = None


@dataclass
class ConstDecl:
    """``constant half = (n+1)/2;``"""

    name: str
    value: Expr
    line: int | None = None


@dataclass
class Program:
    """A parsed LaRCS program.

    Read-only after parsing: the compiler shares one instance between
    every elaboration of the same source.  *rule_fns* is filled in by the
    first elaboration (``[comphase][rule]``, see
    :func:`repro.larcs.codegen.compile_rules`).
    """

    name: str
    params: list[tuple[str, Expr | None]]
    imports: list[tuple[str, Expr | None]]
    constants: list[ConstDecl]
    nodetypes: list[NodeTypeDecl]
    comphases: list[CommPhaseDecl]
    execphases: list[ExecPhaseDecl]
    phase_expr: PExpr | None
    rule_fns: list[list] | None = field(default=None, compare=False, repr=False)
