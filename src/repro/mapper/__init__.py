"""MAPPER: the mapping-algorithm library (Section 4).

MAPPER performs the three mapping steps -- *contraction* (tasks into
clusters, at most one cluster per processor), *embedding* (clusters onto
processors) and *routing* (task-graph edges onto network paths) -- choosing
its algorithms by the regularity of the task graph:

1. **Nameable** task graphs (ring, mesh, hypercube, trees, ...) hit the
   canned-mapping registry (:mod:`repro.mapper.canned`).
2. **Regular** task graphs: node-symmetric Cayley graphs go through
   group-theoretic contraction (:mod:`repro.mapper.contraction.group`);
   systolic synthesis (:mod:`repro.mapper.systolic`) is not dispatched to,
   only experiment E9 runs it.
3. **Arbitrary** task graphs use Algorithm MWM-Contract, Algorithm NN-Embed
   and Algorithm MM-Route; ``multilevel`` runs when named.

The one-call entry point is :func:`repro.mapper.map_computation`; the
parallel strategy portfolio (:func:`repro.mapper.run_portfolio`) runs
several strategies and keeps the best by simulated completion time.
"""

from repro.mapper.mapping import Mapping, NotApplicableError
from repro.mapper.dispatch import map_computation
from repro.mapper.portfolio import PortfolioResult, run_portfolio

__all__ = [
    "Mapping",
    "NotApplicableError",
    "PortfolioResult",
    "map_computation",
    "run_portfolio",
]
