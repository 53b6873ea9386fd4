"""Capture what the swap-scan rewrite must leave bit-identical at scale.

Run once against the PARENT of the PR that removed the dense n x n swap
scan from ``repro.mapper.refine`` (commit 17bddad); the committed file pins
the at-scale mappings of the delta-gain refiner to it:

    PYTHONPATH=src python tests/data/capture_refine_scale.py

``refine_scale_pr18.json`` holds, per instance, the SHA-256 of the sorted
``(task, processor)`` assignment and the strategy counters
(``map.refine_moves`` / ``map.refine_gain`` / ``map.coarsen_levels``).  Four
instances run the ``multilevel`` strategy (every level with n <= 2048 takes
the all-pairs scan, the capacity instance with demand vectors), two run
``mwm`` followed by the ``delta_gain`` refine stage at paper scale.  The
builders are copies of the layered benchmark's ``map_scale`` rows: tests
must not import ``benchmarks/``.
"""
import hashlib
import json
from pathlib import Path

from repro.arch import networks
from repro.arch.hierarchy import node_core_tree
from repro.graph import families
from repro.graph.taskgraph import TaskGraph
from repro.larcs import stdlib
from repro.pipeline import MapConfig, RunConfig, run_pipeline

HERE = Path(__file__).parent


def hotspot(side: int = 32, block: int = 8) -> TaskGraph:
    """A stencil whose corner block holds weight-8 tasks: packing by task
    count overflows the memory capacity, packing by weight does not."""
    tg = TaskGraph(f"hotspot{side * side}")
    for r in range(side):
        for c in range(side):
            tg.add_node(r * side + c, 8.0 if r < block and c < block else 1.0)
    phase = tg.add_comm_phase("stencil")
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                phase.add(i, i + 1, 1.0)
            if r + 1 < side:
                phase.add(i, i + side, 1.0)
    tg.add_exec_phase("work", 1.0)
    return tg


MULTILEVEL = MapConfig(strategy="multilevel")
MWM_DELTA_GAIN = MapConfig(strategy="mwm", refine="delta_gain")

#: ``label -> (graph builder, machine builder, map config)``.
INSTANCES = {
    "mesh32x32/hypercube:6": (
        lambda: families.mesh(32, 32), lambda: networks.hypercube(6),
        MULTILEVEL),
    "rgg2000/torus:8x8": (
        lambda: families.random_geometric(2000, seed=1),
        lambda: networks.torus(8, 8), MULTILEVEL),
    "rgg10k/torus:16x16": (
        lambda: families.random_geometric(10_000, seed=1),
        lambda: networks.torus(16, 16), MULTILEVEL),
    "hotspot1024/node_core_tree:8x4+mem96": (
        hotspot,
        lambda: node_core_tree(
            8, 4, capacities={"memory": {"demand": "weight", "cap": 96.0}}),
        MULTILEVEL),
    "jacobi16x16/mesh:4x4": (
        lambda: stdlib.load("jacobi", rows=16, cols=16),
        lambda: networks.mesh(4, 4), MWM_DELTA_GAIN),
    "jacobi8x8/hypercube:5": (
        lambda: stdlib.load("jacobi", rows=8, cols=8),
        lambda: networks.hypercube(5), MWM_DELTA_GAIN),
}


def capture_instance(label: str) -> dict:
    """Digest and counters of one instance, mapped without routing."""
    graph, machine, config = INSTANCES[label]
    result = run_pipeline(
        graph(), machine(),
        RunConfig(map=config, stages=("contract", "embed", "refine"),
                  cache=False),
    )
    pairs = sorted(
        (repr(t), repr(p)) for t, p in result.mapping.assignment.items()
    )
    stats = result.mapping.map_stats or {}
    return {
        "assignment_sha256": hashlib.sha256(
            json.dumps(pairs).encode()
        ).hexdigest(),
        "tasks": len(pairs),
        "map_stats": {k: stats[k] for k in sorted(stats)},
    }


if __name__ == "__main__":
    path = HERE / "refine_scale_pr18.json"
    captured = {label: capture_instance(label) for label in INSTANCES}
    path.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
