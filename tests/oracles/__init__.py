"""Executable specifications the production kernels are tested against.

Each algorithm in ``src/repro`` has one implementation; the direct,
label-based versions it must agree with bit-for-bit live here, where the
equivalence tests can reach them and nothing else can:

* :func:`nn_embed_reference` -- per-pair NN-Embed (paper section 4.3);
* :func:`mm_route_reference` -- label-based MM-Route (section 4.4);
* :func:`phase_link_metrics_reference` -- per-hop METRICS link accumulation;
* :func:`simulate_uncached` -- the simulator with every step solved afresh
  (the step-memoization soundness oracle).

``larcs_reference`` (the tree-walking LaRCS interpreter),
``topology_reference`` (``Topology`` and the BFS-block baseline on
networkx), ``refine_reference`` (the delta-gain refiner's dense n x n
swap scan), ``matching`` (the dict-keyed, greedy and exhaustive
matchers and the matching predicates around the blossom kernel) and
``radius_pairs`` (the cKDTree radius query behind ``random_geometric``)
are imported by name from their modules.
"""

from tests.oracles.metrics import phase_link_metrics_reference
from tests.oracles.mm_route import mm_route_reference
from tests.oracles.nn_embed import nn_embed_reference
from tests.oracles.sim import simulate_uncached

__all__ = [
    "nn_embed_reference",
    "mm_route_reference",
    "phase_link_metrics_reference",
    "simulate_uncached",
]
