"""The cKDTree radius query (moved from ``repro.graph.families``).

``families.random_geometric`` once asked ``scipy.spatial.cKDTree`` for the
pairs closer than its radius; ``families._radius_pairs`` now finds them on
a cell grid in numpy.  The body below is the old query as it stood there,
kept as the specification the grid must reproduce array for array.
"""

from __future__ import annotations

import numpy as np


def radius_pairs_reference(points: np.ndarray, radius: float) -> np.ndarray:
    """All point-index pairs ``(i, j)``, ``i < j``, within *radius* (sorted)."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    pairs = np.sort(pairs.astype(np.intp), axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]
