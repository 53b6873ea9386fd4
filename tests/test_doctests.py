"""Run the library's doctests as part of the suite."""

import doctest
import pkgutil
import re
from pathlib import Path

import pytest

import repro.larcs.stdlib
import repro.util.gray

MODULES = [repro.util.gray, repro.larcs.stdlib]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module.__name__} has no doctests to run"
    assert result.failed == 0


ROOT = Path(__file__).parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]


def test_every_dotted_repro_name_in_the_docs_resolves():
    """A rename that leaves README, DESIGN or ``docs/`` behind fails here."""
    names = sorted({
        name
        for doc in DOCS
        for name in re.findall(r"`(repro(?:\.[A-Za-z_]\w*)+)", doc.read_text())
    })
    assert len(names) > 50
    stale = []
    for name in names:
        try:
            pkgutil.resolve_name(name)  # import the module prefix, getattr the rest
        except (ImportError, AttributeError):
            stale.append(name)
    assert stale == []
