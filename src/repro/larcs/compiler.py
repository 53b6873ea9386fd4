"""The LaRCS compiler front door: source text -> task graph."""

from __future__ import annotations

from repro.graph.taskgraph import TaskGraph
from repro.larcs import ast
from repro.larcs.evaluator import elaborate
from repro.larcs.parser import parse_larcs
from repro.util import perf
from repro.util.lru import BoundedLRU

__all__ = ["compile_larcs", "CompileResult", "PROGRAM_CACHE"]

#: Parsed programs (with their generated rule functions) by source text:
#: what is the same for every binding, and read-only once the first
#: elaboration has attached the functions.  Task graphs are built afresh
#: on every call, because callers mutate them.
PROGRAM_CACHE = BoundedLRU(64)


def _program(source: str) -> ast.Program:
    program = PROGRAM_CACHE.get(source)
    if program is None:
        with perf.span("larcs.parse"):
            program = parse_larcs(source)
        PROGRAM_CACHE.put(source, program)
    return program


class CompileResult:
    """The result of compiling a LaRCS program for concrete bindings.

    Attributes
    ----------
    task_graph:
        The elaborated :class:`repro.graph.TaskGraph`.
    program:
        The parsed AST (reusable: elaborate again under other bindings;
        shared with every other compilation of the same source, so treat
        it as read-only).
    bindings:
        The parameter bindings used.
    warnings:
        Elaboration warnings (dropped out-of-space edges).
    """

    def __init__(self, task_graph: TaskGraph, program, bindings, warnings):
        self.task_graph = task_graph
        self.program = program
        self.bindings = dict(bindings)
        self.warnings = list(warnings)


def compile_larcs(
    source: str,
    bindings: dict[str, int] | None = None,
    *,
    max_tasks: int | None = None,
    **kw_bindings: int,
) -> CompileResult:
    """Compile LaRCS source for given parameter bindings.

    Bindings may be passed as a dict, as keyword arguments, or both
    (keywords win).  Example::

        result = compile_larcs(NBODY_SOURCE, n=15)
        tg = result.task_graph

    *max_tasks* is a node budget for callers that compile on behalf of
    someone else (see :func:`repro.larcs.evaluator.elaborate`); a parameter
    of that name binds through the dict.
    """
    merged = dict(bindings or {})
    merged.update(kw_bindings)
    program = _program(source)
    tg, warnings = elaborate(program, merged, max_tasks=max_tasks)
    return CompileResult(tg, program, merged, warnings)
