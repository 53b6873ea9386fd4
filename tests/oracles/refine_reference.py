"""Dense all-pairs swap scan (moved from ``repro.mapper.refine``).

The delta-gain refiner's swap pass once materialised the full n x n gain
matrix below ``_FULL_SWAP_N`` nodes; ``repro.mapper.refine._swap_candidates``
finds the same pairs from (node x processor) arrays.  The body below is the
old scan as it stood in ``_delta_gain_arrays``, kept as the specification
the pruned scan must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix

from repro.mapper.refine import _GAIN_TOL


def swap_candidates_reference(
    rows: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    proc: np.ndarray,
    Df: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every improving swap ``(v, u, gain)``, ``v < u``, row-major order.

    All-pairs swap scan: the gain of exchanging v and u is
    delta_move(v->proc[u]) + delta_move(u->proc[v]), plus
    2 w(v,u) D[pv, pu] when they share an edge (it keeps its
    endpoints' processors, so its double-subtracted contribution
    comes back).  The move deltas of *every* (node, processor)
    pair are one attachment-times-distance product, so the full
    n x n gain matrix is two gathers and a transpose.
    """
    n, n_procs = int(proc.size), int(Df.shape[0])
    colp = proc[indices]
    attach = coo_matrix(
        (weights, (rows, colp)), shape=(n, n_procs)
    ).tocsr()
    C = np.asarray(attach @ Df)
    X = C[:, proc] - C[np.arange(n), proc][:, None]
    E = X + X.T
    if indices.size:
        np.add.at(
            E, (rows, indices), 2.0 * weights * Df[proc[rows], colp]
        )
    diff = proc[:, None] != proc[None, :]
    av, bv = np.nonzero(np.triu(diff & (E < -_GAIN_TOL), 1))
    return av, bv, E[av, bv]
