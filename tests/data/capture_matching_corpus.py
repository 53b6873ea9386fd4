"""Record networkx's blossom matcher on the instances the goldens depend on.

Every MWM-Contract golden depends on *which* optimal matching the matcher
returns and on the order its result set iterates in.  This script records
both from ``networkx.max_weight_matching`` -- every stage-2 call of the
contractions below, plus seeded random graphs that reach the blossom
shrink/expand paths the dense cluster graphs do not -- so that
``tests/test_util_matching.py`` can pin the in-tree kernel to them without
consulting whatever networkx happens to be installed.  Run once; the
committed JSON was generated with the networkx version it names.

    PYTHONPATH=src python tests/data/capture_matching_corpus.py
"""
import itertools
import json
import random
from pathlib import Path

import networkx as nx

from repro.graph import families
from repro.graph.paper_examples import (
    FIG5_LOAD_BOUND,
    FIG5_PROCESSORS,
    fig5_task_graph,
)
from repro.larcs import stdlib
from repro.mapper.contraction import mwm

#: ``(name, task graph, P, B)``: the two 1-2k task graphs the layered
#: benchmark maps with MWM-Contract (dense 138- and 129-cluster rounds), the
#: paper's ``n <= 2P`` regime where the matching alone decides the result,
#: and two ``n <= P`` shapes whose rounds take the adjacent-pairs branch.
CONTRACTIONS = [
    ("rgg2000/torus:8x8", lambda: families.random_geometric(2000, seed=1), 64, None),
    ("jacobi32x32/mesh:8x8", lambda: stdlib.load("jacobi", rows=32, cols=32), 64, None),
    ("fig5", fig5_task_graph, FIG5_PROCESSORS, FIG5_LOAD_BOUND),
    ("nbody15/8", lambda: stdlib.load("nbody", n=15), 8, None),
    ("jacobi4x4/8", lambda: stdlib.load("jacobi", rows=4, cols=4), 8, None),
    ("ring16/8", lambda: families.ring(16), 8, None),
    ("complete9/5", lambda: families.complete(9), 5, None),
    ("star12/6", lambda: families.star(12), 6, None),
    ("binary_tree15/8", lambda: families.full_binary_tree(3), 8, None),
    ("ring16/16,B=2", lambda: families.ring(16), 16, 2),
    ("torus4x4/16,B=4", lambda: families.torus(4, 4), 16, 4),
]


def nx_matching(triples, *, maxcardinality=False):
    """``blossom_matching`` as networkx computes it (float weights)."""
    g = nx.Graph()
    for u, v, w in triples:
        g.add_edge(u, v, weight=float(w))
    return nx.max_weight_matching(g, maxcardinality=maxcardinality)


def random_instances(seed=20260930, count=16):
    """Seeded graphs of 8-40 vertices: float weights, small-integer ties and
    mostly-zero weights at three densities, edges in shuffled order."""
    rng = random.Random(seed)
    draw = {
        "float": lambda: round(rng.uniform(0.0, 10.0), 3),
        "ties": lambda: float(rng.randint(0, 2)),
        "zero": lambda: 0.0 if rng.random() < 0.9 else float(rng.randint(1, 3)),
    }
    for k in range(count):
        n = rng.randint(8, 40)
        kind = list(draw)[k % 3]
        density = (0.1, 0.3, 1.0)[k // 3 % 3]
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < density
        ]
        rng.shuffle(pairs)
        triples = [
            (v, u, draw[kind]()) if rng.random() < 0.3 else (u, v, draw[kind]())
            for u, v in pairs
        ]
        yield f"random{k}:{kind},n={n},p={density}", triples, bool(k % 2)


def capture():
    instances = []
    contractions = []

    def record(name, triples, maxcardinality):
        triples = [list(t) for t in triples]
        matched = nx_matching(triples, maxcardinality=maxcardinality)
        instances.append({
            "name": name,
            "maxcardinality": maxcardinality,
            "edges": triples,
            "matched": [list(e) for e in matched],
        })
        return matched

    kernel = mwm.blossom_matching
    try:
        for name, build, n_procs, bound in CONTRACTIONS:
            rounds = itertools.count()
            mwm.blossom_matching = lambda triples, *, maxcardinality=False: record(
                f"{name}#round{next(rounds)}", triples, maxcardinality
            )
            clusters = mwm.mwm_contract(build(), n_procs, load_bound=bound)
            contractions.append({
                "name": name, "n_procs": n_procs, "load_bound": bound,
                "clusters": clusters,
            })
    finally:
        mwm.blossom_matching = kernel
    for name, triples, maxcardinality in random_instances():
        record(name, triples, maxcardinality)
    return {
        "format": "oregami-matching-corpus-v1",
        "networkx": nx.__version__,
        "instances": instances,
        "contractions": contractions,
    }


if __name__ == "__main__":
    out = Path(__file__).parent / "matching_corpus.json"
    out.write_text(json.dumps(capture(), separators=(",", ":")) + "\n")
    print(f"wrote {out}")
