"""One path per algorithm: no public callable selects an implementation.

NN-Embed, MM-Route and METRICS each have one implementation, and the
simulator picks its engine from the run's size alone; which engine ran is
an output (``SimulationResult.kernel``), never an input.  This guard keeps
a selection knob from growing back on the public surface.

The same holds for the runtime's plumbing: one bounded LRU
(:class:`repro.util.lru.BoundedLRU`) and one counter bag
(:class:`repro.util.perf.PerfRegistry`), which the serve layer uses
instead of defining its own; and for LaRCS, whose expressions one code
generator gives meaning to.
"""

import inspect
import re
from pathlib import Path

import pytest

import repro.mapper
import repro.metrics
import repro.pipeline
import repro.serve.server
import repro.sim
from repro.cli import main

PACKAGES = (repro.mapper, repro.sim, repro.metrics, repro.pipeline)
SELECTION_PARAMETERS = {"kernel", "sim_kernel", "memoize"}
#: The two result records carry the engine that ran as a field, so their
#: dataclass constructors take it; nothing else may.
PROVENANCE_FIELDS = {"SimulationResult(kernel)", "MappingMetrics(sim_kernel)"}


def _signatures(obj):
    """Signatures of *obj* and, for a class, of its public methods."""
    targets = [obj]
    if inspect.isclass(obj):
        targets += [
            member for name, member in inspect.getmembers(obj, callable)
            if not name.startswith("_")
        ]
    for target in targets:
        try:
            yield target, inspect.signature(target)
        except (TypeError, ValueError):  # builtins without signatures
            continue


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_no_exported_callable_takes_a_selection_parameter(package):
    exported = [getattr(package, name) for name in package.__all__]
    assert any(callable(obj) for obj in exported)
    offenders = [
        f"{getattr(target, '__qualname__', target)}({param})"
        for obj in exported if callable(obj)
        for target, signature in _signatures(obj)
        for param in signature.parameters
        if param in SELECTION_PARAMETERS
    ]
    assert set(offenders) <= PROVENANCE_FIELDS


def test_cli_map_has_no_kernel_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3",
              "--simulate", "--kernel", "auto"])
    assert info.value.code == 2
    assert "--kernel" in capsys.readouterr().err


def test_one_module_imports_ordereddict():
    root = Path(repro.__file__).parent
    users = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if re.search(r"\bOrderedDict\b", path.read_text())
    )
    assert users == ["util/lru.py"]


def test_serve_server_owns_no_lru_stats_class_or_lock():
    assert not hasattr(repro.serve.server, "_LRUStore")
    assert not hasattr(repro.serve.server, "_ServerStats")
    assert "Lock(" not in inspect.getsource(repro.serve.server)


def test_one_larcs_evaluator_and_the_interpreter_is_only_an_oracle():
    """Expressions are given meaning in one place, the code generator;
    the tree-walking interpreter lives in ``tests/oracles`` and nothing
    shipped imports it."""
    root = Path(repro.__file__).parent
    sources = {
        str(path.relative_to(root)): path.read_text() for path in root.rglob("*.py")
    }
    walkers = sorted(name for name, text in sources.items() if "isinstance(expr, ast" in text)
    assert walkers == ["larcs/codegen.py"]
    importers = sorted(
        name for name, text in sources.items()
        if re.search(r"^\s*(from|import)\s+tests\b", text, re.MULTILINE)
    )
    assert importers == []

