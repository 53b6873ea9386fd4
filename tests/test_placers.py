"""One headroom ledger, one online placer: arrival, spawn and repair.

``repro.arch.capacity.Headroom`` is the ledger all three placement-known
reactions consult; ``repro.graph.dynamic.place`` is the policy arrival and
spawn share, and repair ranks the same candidates by its own key.  What
they decided before they shared anything is pinned in
``tests/data/placers_pr20.json``, captured at the parent commit by
``tests/data/capture_placers.py`` -- never regenerate it to make a test
pass.
"""

import json

import pytest

from repro.arch import networks
from repro.arch.capacity import Headroom
from repro.graph.dynamic import place
from repro.online import Arrival, MappingSession, SessionConfig
from tests.data import capture_placers as pinned

GOLDEN = json.loads((pinned.HERE / "placers_pr20.json").read_text())


def as_json(value):
    """*value* as the golden file holds it (tuples as lists, keys sorted)."""
    return json.loads(json.dumps(value, sort_keys=True))


# ----------------------------------------------------------------------
# the parent-captured goldens
# ----------------------------------------------------------------------
@pytest.mark.parametrize("section, capture", [
    ("spawn", pinned.capture_spawn),
    ("spawn_weighted", pinned.capture_weighted_spawn),
    ("repair", pinned.capture_repair),
])
def test_spawn_and_repair_decisions_match_the_parent(section, capture):
    assert as_json(capture()) == GOLDEN[section]


@pytest.mark.parametrize("seed", pinned.SESSION_SEEDS)
@pytest.mark.parametrize("label", pinned.SESSIONS)
def test_session_traces_match_the_parent(label, seed):
    assert (
        as_json(pinned.capture_session(label, seed))
        == GOLDEN["session"][f"{label}/seed{seed}"]
    )


def test_golden_has_no_bound_plus_capacities_session():
    """That corner's traces changed by design (next test); the golden must
    not be what keeps the old behaviour alive."""
    for machine, knobs in pinned.SESSIONS.values():
        assert machine().capacities is None or "load_bound" not in knobs


# ----------------------------------------------------------------------
# bound *and* vectors
# ----------------------------------------------------------------------
def test_session_arrival_enforces_load_bound_on_a_capacity_machine():
    """The arrival placement used to drop ``load_bound`` as soon as the
    machine declared capacities, while MWM-Contract enforced both."""
    topology = pinned.capped(networks.mesh(2, 3), slots=64.0, mem=64.0)
    session = MappingSession(
        pinned.session_ring(6), topology,
        SessionConfig(load_bound=2, checkpoint_every=0),
    )
    refused = 0
    for i in range(30):
        try:
            session.apply(Arrival(task=("new", i), weight=1.0))
        except ValueError as exc:
            assert "headroom" in str(exc)
            refused += 1
        held = list(session.mapping.assignment.values())
        assert max(held.count(p) for p in set(held)) <= 2
    # 6 processors x 2 slots, 6 tasks to begin with: 6 arrivals fit.
    assert refused == 24 and len(session.mapping.assignment) == 12


class TestHeadroom:
    def test_capacity_free_machine_admits_everything(self):
        ledger = Headroom(networks.ring(4))
        for _ in range(100):
            ledger.add(0, 3.0)
        assert ledger.count[0] == 100
        assert ledger.candidates(1e9) == [0, 1, 2, 3]

    def test_scalar_bound_is_a_task_count(self):
        ledger = Headroom(networks.ring(3), bound=2, placed=[(1, 9.0), (1, 9.0)])
        assert not ledger.fits(1, 0.0)
        assert ledger.candidates(5.0) == [0, 2]

    def test_vectors_follow_the_demand_rules(self):
        ledger = Headroom(pinned.capped(networks.ring(3), slots=2.0, mem=3.0))
        ledger.add(0, 2.5)           # mem nearly full, one slot left
        ledger.add(1, 0.5)
        ledger.add(1, 0.5)           # slots full, mem nearly empty
        assert ledger.candidates(1.0) == [2]
        assert ledger.candidates(0.5) == [0, 2]
        assert ledger.fits(0, 0.5 + 1e-10)  # within the summation tolerance

    def test_bound_and_vectors_hold_together(self):
        topology = pinned.capped(networks.ring(2), slots=8.0, mem=2.0)
        ledger = Headroom(topology, bound=1, placed=[(0, 0.5)])
        assert ledger.candidates(0.5) == [1]      # the bound closes 0
        assert ledger.candidates(2.5) == []       # the vector closes 1


class TestPlacePolicy:
    def test_least_loaded_beats_nearest(self):
        ledger = Headroom(networks.ring(8), placed=[(0, 1.0), (1, 1.0), (7, 1.0)])
        assert place(ledger, 1.0, anchors=[0]) == 2

    def test_nearest_any_anchor_then_lowest_index(self):
        ledger = Headroom(networks.ring(8))
        assert place(ledger, 1.0, anchors=[3, 6]) == 3
        ledger = Headroom(networks.ring(8), placed=[(3, 1.0), (6, 1.0)])
        assert place(ledger, 1.0, anchors=[3, 6]) == 2

    def test_without_anchors_highest_degree_wins(self):
        star = networks.star(5)
        hub = max(star.processors, key=star.degree)
        assert place(Headroom(star), 1.0) == hub
        assert place(Headroom(star, placed=[(hub, 1.0)]), 1.0) != hub

    def test_nowhere_to_go_is_none_and_records_nothing(self):
        ledger = Headroom(networks.ring(2), bound=1, placed=[(0, 1.0), (1, 1.0)])
        assert place(ledger, 1.0, anchors=[0]) is None
        assert ledger.count == {0: 1, 1: 1}
