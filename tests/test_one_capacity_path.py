"""One capacity path offline: a kernel given a machine reads its capacities.

``nn_embed``, ``refine_embedding`` and ``multilevel_assignment`` take a
topology and no capacity argument, so called on their own they honour
``topology.capacities`` exactly as the pipeline does.  A capacity-free
machine is the R = 0 case of the same ``CapacityContext``, whose every
question answers "fits".
"""

import numpy as np
import pytest

from repro.arch import networks
from repro.arch.capacity import Capacities, CapacityContext, Headroom
from repro.arch.hierarchy import with_capacities
from repro.graph import families
from repro.mapper.contraction.multilevel import multilevel_assignment
from repro.mapper.embedding.nn_embed import assignment_from_clusters, nn_embed
from repro.mapper.refine import refine_embedding


@pytest.fixture
def zero_slot():
    """``ring(6)`` on a ``hypercube(3)`` whose processor 0 has no slot."""
    base = networks.hypercube(3)
    machine = with_capacities(base, Capacities.from_spec(
        {"slots": {"cap": 1, "per_proc": [[0, 0]]}}, base.processors))
    tg = families.ring(6)
    return tg, machine, machine.capacities.context(tg, machine)


def test_nn_embed_keeps_off_the_full_processor(zero_slot):
    tg, machine, capacity = zero_slot
    clusters = [[t] for t in tg.nodes]
    placement = nn_embed(tg, clusters, machine)
    assert capacity.overflows(assignment_from_clusters(clusters, placement)) == []


def test_refine_embedding_keeps_a_feasible_placement_feasible(zero_slot):
    tg, machine, capacity = zero_slot
    clusters = [[t] for t in tg.nodes]
    # Ignoring the vectors, 2-opt moves cluster 2 onto processor 0 from here.
    start = dict(enumerate([1, 2, 3, 4, 6, 7]))
    placement = refine_embedding(tg, clusters, start, machine)
    assert capacity.overflows(assignment_from_clusters(clusters, placement)) == []


def test_multilevel_assignment_keeps_off_the_full_processor(zero_slot):
    tg, machine, capacity = zero_slot
    assignment, _ = multilevel_assignment(tg, machine)
    assert capacity.overflows(assignment) == []


def test_a_capacity_free_machine_is_the_r0_context():
    tg, machine = families.ring(6), networks.hypercube(3)
    capacity = CapacityContext.of(tg, machine)
    assert capacity.capacities is None
    assert capacity.cap.shape == (8, 0) and capacity.dem.shape == (6, 0)
    assert capacity.cluster_fits(tg.nodes) and capacity.unplaceable() == []
    assert capacity.cluster_masks([[0, 1], [2]]).all()
    assert capacity.overflows({t: 0 for t in tg.nodes}) == []


def test_the_r0_index_ledger_admits_everything():
    room = Headroom.of_nodes(np.zeros((4, 0)), np.zeros((6, 0)), [0] * 6)
    mask = np.array([True, False, True, False])
    assert room.fits_move(0, 1) and room.fits_swap(0, 1, 0, 1)
    assert not room.over(0) and room.fits_anywhere(0)
    assert room.holding(mask, 0) is mask and room.over_rows(mask) is mask
    assert room.exists_fit(mask, 0) is mask
    assert room.pairs_fit(np.arange(3), np.arange(3)).all()


def test_the_index_ledger_tracks_moves_against_capacity():
    cap = np.array([[2.0], [1.0]])
    room = Headroom.of_nodes(cap, np.ones((3, 1)), np.array([0, 0, 1]))
    assert not room.fits_move(0, 1) and not room.over(1)
    room.move(0, 0, 1)
    assert room.over(1) and not room.over(0)
    assert room.over_rows(np.array([False, False])).tolist() == [False, True]
    assert room.holding(np.array([True, True]), 2).tolist() == [True, False]
