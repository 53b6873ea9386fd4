"""Capture what PR 18's cold-path work must leave byte-identical.

Run once against the PARENT of PR 18 (commit 24ff664); the committed files
pin the label table, the shared encoders and the cache-free pickles to it:

    PYTHONPATH=src python tests/data/capture_cold_path.py

* ``cold_path_pr17.json`` -- task-graph, topology and pipeline-key digests,
  and the ``render_result`` text of three requests with ``stage_seconds``
  blanked (wall-clock, the one member that differs run to run);
* ``artifact_pr17.pkl`` -- the disk-tier entry ``ArtifactCache.put`` wrote
  for the first of them, derived caches and all.
"""
import json
import re
import shutil
import tempfile
from pathlib import Path

from repro.arch import hierarchy, networks
from repro.graph import families
from repro.graph.phase_expr import parse_phase_expr
from repro.graph.taskgraph import TaskGraph
from repro.larcs import stdlib
from repro.pipeline import ArtifactCache, RunConfig, pipeline_key, run_pipeline
from repro.resilience import FaultSet
from repro.serve.protocol import parse_map_request, render_result

HERE = Path(__file__).parent


def exec_costs_graph() -> TaskGraph:
    """Tuple labels, every task with its own float cost."""
    tg = TaskGraph("costed")
    tasks = [(i, j) for i in range(3) for j in range(4)]
    tg.add_nodes(tasks)
    ring = tg.add_comm_phase("ring")
    for a, b in zip(tasks, tasks[1:] + tasks[:1]):
        ring.add(a, b, 2.0)
    tg.add_exec_phase("work", 1.5, {t: 1.0 + 0.25 * k for k, t in enumerate(tasks)})
    return tg


def mixed_costs_graph() -> TaskGraph:
    """Costs ``1``, ``1.0`` and ``True``: one dict key, three JSON texts."""
    tg = TaskGraph("mixed")
    tg.add_nodes(range(6))
    ring = tg.add_comm_phase("ring")
    for t in range(6):
        ring.add(t, (t + 1) % 6, 1)
    tg.add_exec_phase("work", 1, {0: 1, 1: 1.0, 2: True, 3: 2.5, 10: 1, 4: 1.0})
    tg.add_exec_phase("rest", True, {5: True, 2: 1})
    # Without one, the single step is a frozenset of phase names and the
    # per-phase metrics come out in hash-seed order.
    tg.phase_expr = parse_phase_expr("ring; work; rest")
    return tg


GRAPHS = {
    "ring16": lambda: families.ring(16),
    "torus4x4": lambda: families.torus(4, 4),
    "larcs_jacobi4x4": lambda: stdlib.load("jacobi", rows=4, cols=4),
    "larcs_pipeline8": lambda: stdlib.load("pipeline", n=8),
    "exec_costs": exec_costs_graph,
    "mixed_costs": mixed_costs_graph,
}
TOPOLOGIES = {
    "hypercube3": lambda: networks.hypercube(3),
    "mesh2x4": lambda: networks.mesh(2, 4),
    "node_core_tree2x2": lambda: hierarchy.node_core_tree(2, 2),
    "mesh2x4_slowed": lambda: networks.mesh(2, 4).degrade(
        FaultSet(degraded_links={(0, 1): 2.5})
    ),
    "cube_connected_cycles3": lambda: networks.cube_connected_cycles(3),
}
KEYS = [
    ("ring16", "hypercube3"),
    ("torus4x4", "mesh2x4"),
    ("exec_costs", "node_core_tree2x2"),
    ("mixed_costs", "mesh2x4_slowed"),
]
#: The first is also the instance behind ``artifact_pr17.pkl``.
REQUESTS = {
    "jacobi4x4/mesh2x2": {
        "program": "jacobi", "bind": {"rows": 4, "cols": 4, "msize": 2},
        "topology": "mesh:2x2",
    },
    "nbody15/hypercube3": {
        "program": "nbody", "bind": {"n": 15}, "topology": "hypercube:3",
    },
    "mixed_costs/node_core_tree2x2": {
        "task_graph": None,  # filled in below: the inline mixed-costs graph
        "machine": "node_core_tree:2x2",
        "config": {"map": {"strategy": "mwm"}},
    },
}


def request_bodies() -> dict[str, bytes]:
    from repro.io import taskgraph_to_dict

    bodies = {}
    for name, doc in REQUESTS.items():
        if "task_graph" in doc:
            doc = {**doc, "task_graph": taskgraph_to_dict(mixed_costs_graph())}
        bodies[name] = json.dumps(doc).encode()
    return bodies


def blank_stage_seconds(rendered: bytes) -> str:
    return re.sub(
        rb'"stage_seconds": \{[^}]*\}', b'"stage_seconds": {}', rendered
    ).decode()


def capture() -> dict:
    out = {
        "graphs": {name: make().fingerprint() for name, make in GRAPHS.items()},
        "topologies": {
            name: make().fingerprint() for name, make in TOPOLOGIES.items()
        },
        "structural_keys": {
            name: make().structural_key() for name, make in TOPOLOGIES.items()
        },
        "pipeline_keys": {
            f"{g}/{t}": pipeline_key(GRAPHS[g](), TOPOLOGIES[t](), RunConfig())[0]
            for g, t in KEYS
        },
        "rendered": {},
    }
    for name, raw in request_bodies().items():
        request = parse_map_request(raw)
        key, prints = pipeline_key(request.tg, request.topology, request.config)
        result = run_pipeline(request.tg, request.topology, request.config)
        out["rendered"][name] = {
            "key": key,
            "text": blank_stage_seconds(render_result(result, fingerprints=prints)),
        }
        if "artifact_key" not in out:
            directory = tempfile.mkdtemp()
            ArtifactCache(directory).put(key, result)
            shutil.copy(Path(directory, f"{key}.pkl"), HERE / "artifact_pr17.pkl")
            shutil.rmtree(directory)
            out["artifact_key"] = key
    return out


if __name__ == "__main__":
    path = HERE / "cold_path_pr17.json"
    path.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} and {HERE / 'artifact_pr17.pkl'}")
