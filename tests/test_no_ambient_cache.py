"""A library call uses only the store it is handed.

Every test here points ``REPRO_CACHE_DIR`` at an empty directory (the
conftest fixture) with ``REPRO_CACHE`` unset, i.e. a process default that
*would* be on, and checks that a call given no store -- or its own store --
leaves that directory empty.  Only the ``repro`` front doors read the
process default (``tests/test_one_path.py`` pins that).
"""

import os

import pytest

from repro.arch import networks
from repro.larcs import stdlib
from repro.mapper import map_computation, run_portfolio
from repro.online import MappingSession, SessionConfig, generate_scenario
from repro.pipeline import ArtifactCache, cache_dir, default_portfolio
from repro.resilience import FaultSet, failure_sweep, repair_mapping


@pytest.fixture
def default_dir():
    """The process default's directory, created empty."""
    os.makedirs(cache_dir())
    yield cache_dir()
    assert os.listdir(cache_dir()) == []


def _jacobi():
    return stdlib.load("jacobi", rows=4, cols=4), networks.hypercube(3)


def test_a_session_without_a_store_writes_nothing(default_dir):
    tg, topo = _jacobi()
    scenario = generate_scenario(tg, topo, seed=3, n_events=30)
    for every in (0, 1):
        session = MappingSession(
            tg, topo, SessionConfig(checkpoint_every=every), cache=None,
        )
        report = session.run(scenario.events, resume="auto")
        assert len(report.records) == 30
        assert report.counters.get("checkpoints", 0) == 0
        assert report.resumed_at is None


def test_a_portfolio_writes_only_its_journal_into_its_store(default_dir):
    tg, topo = _jacobi()
    store = ArtifactCache(os.path.join(os.path.dirname(default_dir), "x"))
    first = run_portfolio(tg, topo, resume="auto", cache=store)
    assert len(os.listdir(store.directory)) == len(default_portfolio())
    again = run_portfolio(tg, topo, resume="auto", cache=store)
    assert again.to_dict() == first.to_dict()
    assert len(os.listdir(store.directory)) == len(default_portfolio())


def test_a_sweep_without_a_store_writes_nothing(default_dir):
    tg, topo = _jacobi()
    sweep = failure_sweep(tg, topo, elements="both", resume="auto", cache=None)
    assert sweep.entries


def test_a_full_repair_writes_nothing(default_dir):
    tg, topo = _jacobi()
    mapping = map_computation(tg, topo)
    report = repair_mapping(
        tg, mapping, topo, FaultSet(failed_procs=[0]), mode="full",
    )
    assert report.strategy == "full"
    assert 0 not in report.mapping.assignment.values()
