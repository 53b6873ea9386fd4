"""Capture the random geometric graphs a new radius query must rebuild.

Run once against the PARENT of the change that replaced the cKDTree radius
query in ``repro.graph.families`` with the in-tree cell grid (commit
eba80bb); the committed file pins every later build of these graphs to it:

    PYTHONPATH=src python tests/data/capture_rgg.py

``rgg_pr28.json`` holds, per ``(n, radius, seed)`` call, the graph's
``fingerprint()`` (points, pair list, declaration order, volumes, family
tag) and its edge count.  The first two rows are the benchmark's
``rgg2000`` and ``rgg10k`` inputs; the rest cover explicit radii.
"""
import json
from pathlib import Path

from repro.graph import families

HERE = Path(__file__).parent

#: ``label -> (n, radius, seed)``; ``None`` is the default radius.
INSTANCES = {
    "rgg2000": (2000, None, 1),
    "rgg10k": (10_000, None, 1),
    "rgg500/r0.05": (500, 0.05, 3),
    "rgg300/r0.3": (300, 0.3, 2),
    "rgg40/r1.5": (40, 1.5, 0),
}


def capture_instance(label: str) -> dict:
    n, radius, seed = INSTANCES[label]
    tg = families.random_geometric(n, radius, seed=seed)
    return {"fingerprint": tg.fingerprint(), "edges": tg.n_edges}


if __name__ == "__main__":
    path = HERE / "rgg_pr28.json"
    captured = {label: capture_instance(label) for label in INSTANCES}
    path.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
