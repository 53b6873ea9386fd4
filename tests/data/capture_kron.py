"""Capture the Kronecker graphs a new random stream must rebuild.

Run once against the PARENT of the change that replaced
``numpy.random.default_rng`` in ``repro.graph.families`` with the in-tree
PCG64 stream (``repro.util.rng``); the committed file pins every later
build of these graphs to it:

    PYTHONPATH=src python tests/data/capture_kron.py

``kron.json`` holds, per ``(scale, edge_factor, seed)`` call, the
graph's ``fingerprint()`` (pair list, declaration order, folded volumes,
family tag) and its edge count.
"""
import json
from pathlib import Path

from repro.graph import families

HERE = Path(__file__).parent

#: ``label -> (scale, edge_factor, seed)``.
INSTANCES = {
    "kron5/ef4": (5, 4, 1),
    "kron7": (7, 16, 3),
    "kron10": (10, 16, 0),
    "kron12/ef8": (12, 8, 2),
}


def capture_instance(label: str) -> dict:
    scale, edge_factor, seed = INSTANCES[label]
    tg = families.kron(scale, edge_factor, seed=seed)
    return {"fingerprint": tg.fingerprint(), "edges": tg.n_edges}


if __name__ == "__main__":
    path = HERE / "kron.json"
    captured = {label: capture_instance(label) for label in INSTANCES}
    path.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
