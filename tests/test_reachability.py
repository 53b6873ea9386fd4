"""Every module of ``repro`` is reached from a product entry point.

An AST import graph starts from the product's entry points: ``repro.cli``'s
``main`` (``python -m repro``), ``repro serve``, Fig. 3's strategy table
``STRATEGIES``, the pipeline's ``STAGES``, the machine spec table in
``repro.arch.networks`` and the LaRCS ``stdlib``.  Imports inside functions
count, as the CLI imports its subcommands on the spot.

A subsystem package's ``__init__`` (``repro.arch``, ``repro.mapper``, ...)
only re-exports: its imports of its own modules are followed just for the
names a reached module imports from the package.  The root ``repro``
package is the library's front door and nested packages are plumbing, so
their imports are followed like any module's.  A module left unreached is
reached at most through its own subsystem's ``__init__``: an island.

``ISLANDS`` names today's islands.  The test fails on an island it does
not name and on a named one that became reachable, so the list only
shrinks.
"""

import ast
import importlib
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

#: ``(module, name)`` of each product entry point.
ENTRIES = [
    ("repro.cli", "main"),
    ("repro.__main__", None),
    ("repro.serve.server", "serve"),
    ("repro.mapper.dispatch", "STRATEGIES"),
    ("repro.pipeline.stages", "STAGES"),
    ("repro.arch.networks", "_TOPOLOGY_BUILDERS"),
    ("repro.larcs.stdlib", None),
]

#: Modules and packages only their own subsystem's ``__init__`` reaches.
ISLANDS = {
    "repro.mapper.systolic",
    "repro.mapper.contraction.syntactic",
    "repro.sched",
    "repro.mapper.aggregate",
    "repro.arch.cayley_networks",
    "repro.graph.paper_examples",
}


def _modules() -> dict[str, tuple[Path, bool]]:
    """Dotted name -> (path, is a package ``__init__``)."""
    out = {}
    for path in ROOT.rglob("*.py"):
        parts = list(path.relative_to(ROOT.parent).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        out[".".join(parts[:-1] if is_package else parts)] = (path, is_package)
    return out


MODULES = _modules()


def _imports(module: str) -> list[tuple[str, str | None]]:
    """``(imported module, name or None)`` of every import in *module*."""
    path, is_package = MODULES[module]
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = module.split(".")[: None if is_package else -1]
            base = base[: len(base) - max(node.level - 1, 0)] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            out += [(target, alias.name) for alias in node.names]
    return out


def _targets(module: str, name: str | None) -> list[str]:
    """The modules ``from module import name`` executes or reads from."""
    out = [module]
    if name is not None:
        if f"{module}.{name}" in MODULES:
            out.append(f"{module}.{name}")
        elif MODULES.get(module, (None, False))[1]:  # a re-export: whence
            for target, imported in _imports(module):
                if imported == name or (imported is None and target.endswith("." + name)):
                    out += _targets(target, imported)
    return out


def _reached() -> set[str]:
    seen: set[str] = set()
    todo = [module for module, _ in ENTRIES]
    while todo:
        module = todo.pop()
        if module in seen or module not in MODULES:
            continue
        seen.add(module)
        parts = module.split(".")
        todo += [".".join(parts[:k]) for k in range(1, len(parts))]  # parents run
        subsystem = MODULES[module][1] and len(parts) == 2
        for target, name in _imports(module):
            if not (subsystem and target.startswith(module + ".")):
                todo += _targets(target, name)
    return seen


def _named(module: str) -> bool:
    return any(module == island or module.startswith(island + ".") for island in ISLANDS)


def test_the_entry_points_exist():
    for module, name in ENTRIES:
        assert module in MODULES
        if name is not None:
            assert hasattr(importlib.import_module(module), name)


def test_every_module_is_reached_or_a_named_island():
    reached = _reached()
    islands = sorted(m for m in MODULES if m not in reached)
    assert [m for m in islands if not _named(m)] == []
    # a named island that became reachable leaves the list
    assert sorted(m for m in MODULES if _named(m) and m in reached) == []
    for island in ISLANDS:
        assert island in MODULES
