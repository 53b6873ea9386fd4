"""Serialisation of task graphs and mappings (JSON).

A practical mapping tool must hand its results to the runtime that loads
tasks onto the machine -- the original OREGAMI fed its host programming
environments.  This module defines a stable JSON interchange format for
task graphs and complete mappings, round-trippable and human-inspectable,
used by the CLI's ``--save``/``--load``.

Node labels are ints, strings, or (nested) lists of them; tuples round-trip
as JSON arrays and are restored as tuples.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from typing import Any

from repro.arch.topology import Topology
from repro.graph.phase_expr import parse_phase_expr
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import Mapping
from repro.util.fingerprint import LabelTable, decode_label, encode_label

__all__ = [
    "taskgraph_to_dict",
    "taskgraph_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
    "save_mapping",
    "load_mapping",
    "faultset_to_dict",
    "faultset_from_dict",
    "save_faultset",
    "load_faultset",
    "save_artifact",
    "write_artifact",
    "load_artifact",
    "loads_artifact",
]


def taskgraph_to_dict(tg: TaskGraph, enc: LabelTable | None = None) -> dict:
    """Serialise a task graph to a JSON-compatible dict.

    *enc* is the enclosing document's label table, when there is one.
    """
    enc = LabelTable() if enc is None else enc
    return {
        "name": tg.name,
        "family": [tg.family[0], list(tg.family[1])] if tg.family else None,
        "node_symmetric_hint": tg.node_symmetric_hint,
        "nodes": [
            {"label": enc[n], "weight": tg.node_weight(n)} for n in tg.nodes
        ],
        "comm_phases": [
            {
                "name": name,
                "edges": [[enc[e.src], enc[e.dst], e.volume] for e in phase.edges],
            }
            for name, phase in tg.comm_phases.items()
        ],
        "exec_phases": [
            {
                "name": name,
                "cost": phase.cost,
                "costs": [
                    [enc[t], c] for t, c in sorted(
                        phase.costs.items(), key=lambda tc: repr(tc[0])
                    )
                ],
            }
            for name, phase in tg.exec_phases.items()
        ],
        "phase_expr": str(tg.phase_expr) if tg.phase_expr is not None else None,
    }


def taskgraph_from_dict(data: dict) -> TaskGraph:
    """Rebuild a task graph from :func:`taskgraph_to_dict` output."""
    family = None
    if data.get("family"):
        name, params = data["family"]
        family = (name, tuple(params))
    tg = TaskGraph(
        data["name"],
        family=family,
        node_symmetric_hint=data.get("node_symmetric_hint", False),
    )
    for node in data["nodes"]:
        tg.add_node(decode_label(node["label"]), node["weight"])
    for phase in data["comm_phases"]:
        p = tg.add_comm_phase(phase["name"])
        for src, dst, volume in phase["edges"]:
            p.add(decode_label(src), decode_label(dst), volume)
    for phase in data["exec_phases"]:
        costs = {decode_label(t): c for t, c in phase.get("costs", [])}
        tg.add_exec_phase(phase["name"], phase["cost"], costs)
    if data.get("phase_expr"):
        tg.phase_expr = parse_phase_expr(data["phase_expr"])
    tg.validate()
    return tg


def mapping_to_dict(mapping: Mapping) -> dict:
    """Serialise a complete mapping (graph + topology shape + routes).

    Heterogeneous-machine attributes -- link slowdown factors, capacity
    vectors, hierarchy metadata -- are emitted only when present, so
    mappings of plain homogeneous machines serialise exactly as before
    (and files written before PR 9 load unchanged).
    """
    topo = mapping.topology
    enc = LabelTable()  # one per document: tasks and processors alike
    tdoc = {
        "name": topo.name,
        "family": [topo.family[0], list(topo.family[1])] if topo.family else None,
        "processors": [enc[p] for p in topo.processors],
        "links": [sorted((enc[p] for p in link), key=repr) for link in topo.links],
    }
    if topo.link_slowdowns:
        tdoc["link_slowdowns"] = sorted(
            [lid, factor] for lid, factor in topo.link_slowdowns.items()
        )
    if topo.capacities is not None:
        tdoc["capacities"] = topo.capacities.to_dict()
    if topo.hierarchy is not None:
        tdoc["hierarchy"] = topo.hierarchy
    return {
        "format": "oregami-mapping-v1",
        "task_graph": taskgraph_to_dict(mapping.task_graph, enc),
        "topology": tdoc,
        "provenance": mapping.provenance,
        "assignment": [
            [enc[t], enc[p]]
            for t, p in sorted(mapping.assignment.items(), key=lambda kv: repr(kv[0]))
        ],
        "routes": [
            {"phase": phase, "edge": idx, "path": [enc[p] for p in path]}
            for (phase, idx), path in sorted(mapping.routes.items())
        ],
    }


def mapping_from_dict(data: dict) -> Mapping:
    """Rebuild a mapping (and its topology) from serialised form."""
    if data.get("format") != "oregami-mapping-v1":
        raise ValueError(f"unknown mapping format {data.get('format')!r}")
    tg = taskgraph_from_dict(data["task_graph"])
    tdata = data["topology"]
    family = None
    if tdata.get("family"):
        name, params = tdata["family"]
        family = (name, tuple(params))
    capacities = None
    if tdata.get("capacities") is not None:
        from repro.arch.capacity import Capacities

        capacities = Capacities.from_dict(tdata["capacities"])
    topo = Topology(
        tdata["name"],
        [(decode_label(u), decode_label(v)) for u, v in tdata["links"]],
        nodes=[decode_label(p) for p in tdata["processors"]],
        family=family,
        capacities=capacities,
        hierarchy=tdata.get("hierarchy"),
    )
    for lid, factor in tdata.get("link_slowdowns", []):
        topo.link_slowdowns[int(lid)] = float(factor)
    assignment = {
        decode_label(t): decode_label(p) for t, p in data["assignment"]
    }
    routes = {
        (r["phase"], r["edge"]): [decode_label(p) for p in r["path"]]
        for r in data["routes"]
    }
    mapping = Mapping(
        tg, topo, assignment, routes, provenance=data.get("provenance", "loaded")
    )
    mapping.validate()
    return mapping


def faultset_to_dict(faults) -> dict:
    """Serialise a :class:`~repro.resilience.FaultSet` to a JSON dict."""
    return {
        "format": "oregami-faultset-v1",
        "failed_procs": sorted(
            (encode_label(p) for p in faults.failed_procs), key=repr
        ),
        "failed_links": sorted(
            (
                sorted((encode_label(u), encode_label(v)), key=repr)
                for u, v in (tuple(l) for l in faults.failed_links)
            ),
            key=repr,
        ),
        "degraded_links": [
            [encode_label(u), encode_label(v), factor]
            for (u, v), factor in faults.degraded_links
        ],
    }


def faultset_from_dict(data: dict):
    """Rebuild a fault set from :func:`faultset_to_dict` output."""
    from repro.resilience import FaultSet

    if data.get("format") != "oregami-faultset-v1":
        raise ValueError(f"unknown faultset format {data.get('format')!r}")
    return FaultSet(
        failed_procs=[decode_label(p) for p in data.get("failed_procs", [])],
        failed_links=[
            (decode_label(u), decode_label(v))
            for u, v in data.get("failed_links", [])
        ],
        degraded_links=[
            ((decode_label(u), decode_label(v)), factor)
            for u, v, factor in data.get("degraded_links", [])
        ],
    )


def save_faultset(faults, path: str) -> None:
    """Write a fault set to a JSON file."""
    with open(path, "w") as fh:
        json.dump(faultset_to_dict(faults), fh, indent=1)


def load_faultset(path: str):
    """Read a fault set from a JSON file written by :func:`save_faultset`."""
    with open(path) as fh:
        return faultset_from_dict(json.load(fh))


def save_mapping(mapping: Mapping, path: str) -> None:
    """Write a mapping to a JSON file."""
    with open(path, "w") as fh:
        json.dump(mapping_to_dict(mapping), fh, indent=1)


def load_mapping(path: str) -> Mapping:
    """Read a mapping from a JSON file written by :func:`save_mapping`."""
    with open(path) as fh:
        return mapping_from_dict(json.load(fh))


# ----------------------------------------------------------------------
# binary artifacts (the pipeline cache's disk tier)
# ----------------------------------------------------------------------

def save_artifact(payload: Any, path: str) -> None:
    """Pickle *payload* to *path* atomically (see :func:`write_artifact`)."""
    write_artifact(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), path)


def write_artifact(data: bytes, path: str) -> None:
    """Write the already-pickled *data* to *path* atomically.

    Written via a temp file in the destination directory plus
    ``os.replace``, so a concurrent reader (another process sharing
    ``~/.cache/repro``) sees either the old file or the new one, never a
    torn write.  Creates the parent directory if needed.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_artifact(path: str) -> Any | None:
    """Unpickle an artifact written by :func:`save_artifact`.

    Returns ``None`` for a missing, truncated, or otherwise unreadable
    file -- cache tiers treat any damage as a miss, never an error.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    return loads_artifact(data)


def loads_artifact(data: bytes) -> Any | None:
    """Unpickle artifact bytes; ``None`` when they are damaged."""
    try:
        return pickle.loads(data)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError):
        return None
