"""Tests for the parallel mapping-strategy portfolio."""

import pytest

from repro.arch import networks
from repro.graph import families
from repro.graph.taskgraph import TaskGraph
from repro.mapper import NotApplicableError, run_portfolio
from repro.pipeline import default_portfolio
from repro.sim import CostModel, simulate


def irregular_graph() -> TaskGraph:
    """A graph with no family tag (no canned entry) and no group structure."""
    tg = TaskGraph("irregular")
    tg.add_nodes(range(10))
    ph = tg.add_comm_phase("comm")
    for i in range(9):
        ph.add(i, i + 1, float(i + 1))
    ph.add(0, 9, 5.0)
    ph.add(2, 7, 3.0)
    return tg


class TestRunPortfolio:
    def test_winner_is_best_completion_time(self):
        result = run_portfolio(families.nbody(15), networks.hypercube(3))
        viable = [c for c in result.candidates if c.ok]
        assert viable
        assert result.completion_time == min(c.completion_time for c in viable)
        assert result.mapping is result.best.mapping

    def test_candidates_cover_all_strategies_in_order(self):
        result = run_portfolio(families.nbody(15), networks.hypercube(3))
        assert [c.strategy for c in result.candidates] == list(default_portfolio())

    def test_inapplicable_strategies_are_skipped_not_fatal(self):
        result = run_portfolio(irregular_graph(), networks.mesh(2, 4))
        skipped = {c.strategy for c in result.candidates if not c.ok}
        assert "canned" in skipped  # no family tag -> no canned mapping
        assert result.best.ok

    def test_all_inapplicable_raises(self):
        with pytest.raises(NotApplicableError, match="no portfolio strategy"):
            run_portfolio(
                irregular_graph(), networks.mesh(2, 4), strategies=("canned",)
            )

    def test_empty_strategies_rejected(self):
        with pytest.raises(ValueError, match="at least one strategy"):
            run_portfolio(families.ring(4), networks.ring(4), strategies=())

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            run_portfolio(families.ring(4), networks.ring(4), executor="gpu")

    def test_winner_time_matches_independent_simulation(self):
        model = CostModel(hop_latency=1.0, byte_time=0.5, exec_time=0.05)
        result = run_portfolio(
            families.nbody(15), networks.hypercube(3), model=model
        )
        assert result.completion_time == simulate(result.mapping, model).total_time

    @pytest.mark.parametrize(
        "executor,workers",
        [("serial", None), ("thread", 2), ("thread", 4), ("process", 2)],
    )
    def test_deterministic_across_executors(self, executor, workers):
        baseline = run_portfolio(families.nbody(15), networks.hypercube(3))
        other = run_portfolio(
            families.nbody(15),
            networks.hypercube(3),
            executor=executor,
            max_workers=workers,
        )
        assert other.winner == baseline.winner
        assert other.completion_time == baseline.completion_time
        assert [
            (c.strategy, c.completion_time, c.ok) for c in other.candidates
        ] == [(c.strategy, c.completion_time, c.ok) for c in baseline.candidates]
        # A winner sent back from a process worker is fully usable.
        other.mapping.validate(require_routes=True)
