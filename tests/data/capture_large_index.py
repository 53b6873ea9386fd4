"""Capture what int32 CSR indices must leave bit-identical past n^2 > 2^31.

Run once against the commit before the CSR bundle's index arrays went
int32 (8710bb0); the committed file pins both mappings to it:

    PYTHONPATH=src python tests/data/capture_large_index.py

``large_index.json`` holds, per instance, the SHA-256 of the sorted
``(task, processor)`` assignment and the strategy counters.  Both graphs
have more than 46,341 tasks, so any pair key ``u * n + v`` formed in int32
would wrap: the multilevel strategy folds a 224 x 224 mesh (its fold merges
antiparallel stencil messages), and ``refine(..., "delta_gain")`` polishes
a contiguous-block start of a 50,000-task random geometric graph (its fold
is the identity).
"""
import hashlib
import json
from pathlib import Path

from repro.arch import networks
from repro.graph import families
from repro.mapper.contraction.multilevel import multilevel_assignment
from repro.mapper.mapping import Mapping
from repro.mapper.refine import refine

HERE = Path(__file__).parent


def digest(assignment) -> str:
    pairs = sorted((repr(t), repr(p)) for t, p in assignment.items())
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def multilevel_mesh():
    tg, topo = families.mesh(224, 224), networks.hypercube(6)
    assignment, stats = multilevel_assignment(tg, topo)
    return assignment, stats


def refined_rgg():
    tg, topo = families.random_geometric(50_000, seed=2), networks.torus(8, 8)
    n, procs = tg.n_tasks, topo.processors
    start = {t: procs[i * len(procs) // n] for i, t in enumerate(tg.nodes)}
    out = refine(Mapping(tg, topo, start), "delta_gain", max_passes=2)
    return out.assignment, out.map_stats


#: ``label -> builder returning (assignment, stats)``.
INSTANCES = {
    "mesh224x224/hypercube:6 multilevel": multilevel_mesh,
    "rgg50000/torus:8x8 delta_gain": refined_rgg,
}


def capture_instance(label: str) -> dict:
    assignment, stats = INSTANCES[label]()
    return {
        "assignment_sha256": digest(assignment),
        "stats": {k: stats[k] for k in sorted(stats)},
    }


if __name__ == "__main__":
    path = HERE / "large_index.json"
    out = {label: capture_instance(label) for label in INSTANCES}
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)
