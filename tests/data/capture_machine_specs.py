"""Capture the machine every accepted spec string resolves to.

Run once against the PARENT of the change that folded the hierarchy
generator specs (``fat_tree:...``, ``dragonfly:...``,
``node_core_tree:...``) into ``repro.arch.networks``'s spec table and
deleted ``MachineSpec.parse``; the committed file pins every later
resolution of these strings to it:

    PYTHONPATH=src python tests/data/capture_machine_specs.py

``machine_specs_pr37.json`` holds, per spec string, the name, processor
count and ``fingerprint()`` of ``parse_machine(spec)``: one or more rows
per flat family, the three hierarchy families, and a mixed-case flat
spec with a comma separator.
"""
import json
from pathlib import Path

from repro.arch.hierarchy import parse_machine

HERE = Path(__file__).parent

SPECS = [
    "ring:6", "linear:5", "mesh:3x4", "torus:2,5", "hypercube:3",
    "complete:4", "star:7", "tree:2", "ccc:2", "butterfly:2",
    "fat_tree:4", "fat_tree:2x4", "fat_tree:2x3x2", "dragonfly:3x4",
    "node_core_tree:2x4", "node_core_tree:1x3", "MESH:2,3",
]


def capture_spec(spec: str) -> dict:
    topo = parse_machine(spec)
    return {
        "name": topo.name,
        "n_processors": topo.n_processors,
        "fingerprint": topo.fingerprint(),
    }


if __name__ == "__main__":
    path = HERE / "machine_specs_pr37.json"
    captured = {spec: capture_spec(spec) for spec in SPECS}
    path.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
