"""Hierarchical machine generators: fat-tree, dragonfly, node x core trees.

The paper's machines are flat regular networks of identical processors.
Real targets are hierarchies of unequal parts -- multi-socket node x core
boxes behind racks behind a spine, with very different bandwidth at each
level (Predari et al., PAPERS.md).  This module generates such machines
and **lowers** them onto the existing flat :class:`~repro.arch.Topology`
vector core, so every downstream algorithm (NN-Embed's distance kernels,
MM-Route, the simulator) works unchanged:

* each level's interconnect becomes ordinary processor-to-processor
  links (complete graphs within a group, gateway links between groups);
* each level's **bandwidth factor** becomes a per-link slowdown
  ``1 / bandwidth`` in :attr:`Topology.link_slowdowns` -- the PR 3
  plumbing the simulator already charges (a factor above 1.0 models a
  fat upper link, below 1.0 a thin one);
* per-processor budgets become a :class:`~repro.arch.capacity.Capacities`
  attached to the topology;
* the level structure itself survives as JSON metadata in
  :attr:`Topology.hierarchy` for debugging (``repro machine show``) and
  fingerprinting.

A generator spec string (``"fat_tree:4x8"``) is parsed by the one spec
grammar in :mod:`repro.arch.networks`, like every flat topology spec.  A
JSON machine file (see ``docs/machines.md``) is a :class:`MachineSpec`:
a generator kind with its parameters, or ``kind: "topology"`` wrapping
any spec string -- which is how a flat machine gains capacities: the
degenerate one-level instance of the general model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.arch.capacity import Capacities
from repro.arch.networks import parse_topology, spec_processors
from repro.arch.topology import Topology

__all__ = [
    "MACHINE_FORMAT",
    "MachineSpec",
    "fat_tree",
    "dragonfly",
    "node_core_tree",
    "with_capacities",
    "load_machine",
    "parse_machine",
    "describe_machine",
]

#: Machine-file format tag (see ``docs/machines.md``).
MACHINE_FORMAT = "oregami-machine-v1"


def _coerce_capacities(capacities, procs) -> Capacities | None:
    if capacities is None or isinstance(capacities, Capacities):
        return capacities
    return Capacities.from_spec(capacities, procs)


def _attach_slowdowns(topo: Topology, factors: dict[int, float]) -> Topology:
    # Populated before the topology escapes (and before fingerprint() can
    # be called), the same contract degrade() follows.  Unit factors are
    # omitted: a link without an entry is charged 1.0 anyway, and leaving
    # them out keeps single-level machines digest-identical to their flat
    # equivalents modulo the hierarchy key.
    topo.link_slowdowns = {
        lid: factor for lid, factor in factors.items() if factor != 1.0
    }
    return topo


def _check_bandwidth(value: float, what: str) -> float:
    value = float(value)
    if not value > 0 or not math.isfinite(value):
        raise ValueError(f"{what} must be a positive finite number, got {value!r}")
    return value


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def fat_tree(
    arities,
    *,
    bandwidths=None,
    capacities=None,
    name: str | None = None,
) -> Topology:
    """An L-level fat tree lowered to processor-to-processor links.

    *arities* lists the branching factor per level, **top-down**:
    ``fat_tree([4, 8])`` is 4 pods of 8 processors (32 total).  Processor
    labels are full address tuples ``(pod, ..., leaf)``.  Within each
    deepest-level group the processors are completely connected; one
    gateway per group (its all-zero address) joins the complete graph of
    the level above.

    *bandwidths* gives each level's link bandwidth, top-down and parallel
    to *arities*.  The default doubles per level going **up** (the
    defining fat-tree property): leaves at 1.0, their parents at 2.0, and
    so on, lowering to per-link slowdowns ``1 / bandwidth``.
    """
    arities = [int(a) for a in arities]
    if not arities or any(a < 2 for a in arities):
        raise ValueError(
            f"fat_tree needs at least one level, every arity >= 2; got {arities!r}"
        )
    depth = len(arities)
    if bandwidths is None:
        bandwidths = [2.0 ** (depth - 1 - k) for k in range(depth)]
    bandwidths = [_check_bandwidth(b, "fat_tree bandwidth") for b in bandwidths]
    if len(bandwidths) != depth:
        raise ValueError(
            f"fat_tree got {len(bandwidths)} bandwidths for {depth} levels"
        )

    def addresses(prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
        if len(prefix) == depth:
            return [prefix]
        out = []
        for i in range(arities[len(prefix)]):
            out.extend(addresses(prefix + (i,)))
        return out

    procs = addresses(())
    edges: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    level_of_edge: list[int] = []

    def connect(prefix: tuple[int, ...]) -> None:
        """Wire level ``len(prefix)``: the complete graph over the
        gateways (or leaves) of *prefix*'s children, then recurse."""
        k = len(prefix)
        if k == depth:
            return
        pad = (0,) * (depth - k - 1)
        members = [prefix + (i,) + pad for i in range(arities[k])]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                edges.append((members[a], members[b]))
                level_of_edge.append(k)
        for i in range(arities[k]):
            connect(prefix + (i,))

    connect(())
    topo = Topology(
        name or ("fat_tree" + "x".join(str(a) for a in arities)),
        edges,
        nodes=procs,
        family=("fat_tree", tuple(arities)),
        capacities=_coerce_capacities(capacities, procs),
        hierarchy={
            "kind": "fat_tree",
            "levels": [
                {"name": f"level{k}", "arity": arities[k],
                 "bandwidth": bandwidths[k]}
                for k in range(depth)
            ],
        },
    )
    return _attach_slowdowns(topo, {
        topo.link_id(u, v): 1.0 / bandwidths[lvl]
        for (u, v), lvl in zip(edges, level_of_edge)
    })


def dragonfly(
    groups: int,
    routers: int,
    *,
    local_bandwidth: float = 1.0,
    global_bandwidth: float = 0.5,
    capacities=None,
    name: str | None = None,
) -> Topology:
    """A dragonfly: all-to-all groups of all-to-all routers.

    ``groups`` groups of ``routers`` processors each, labelled
    ``(group, router)``.  Routers within a group are completely connected
    at *local_bandwidth*; every group pair shares one global link at
    *global_bandwidth*, attached round-robin so the global links spread
    across each group's routers (group *a* reaches group *b* through
    router ``b % routers`` on *a*'s side).
    """
    if groups < 2 or routers < 1:
        raise ValueError(
            f"dragonfly needs >= 2 groups of >= 1 router, got "
            f"{groups} x {routers}"
        )
    local_bandwidth = _check_bandwidth(local_bandwidth, "dragonfly local_bandwidth")
    global_bandwidth = _check_bandwidth(global_bandwidth, "dragonfly global_bandwidth")
    procs = [(g, r) for g in range(groups) for r in range(routers)]
    edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    is_global: list[bool] = []
    for g in range(groups):
        for a in range(routers):
            for b in range(a + 1, routers):
                edges.append(((g, a), (g, b)))
                is_global.append(False)
    for a in range(groups):
        for b in range(a + 1, groups):
            edges.append(((a, b % routers), (b, a % routers)))
            is_global.append(True)
    topo = Topology(
        name or f"dragonfly{groups}x{routers}",
        edges,
        nodes=procs,
        family=("dragonfly", (groups, routers)),
        capacities=_coerce_capacities(capacities, procs),
        hierarchy={
            "kind": "dragonfly",
            "levels": [
                {"name": "router", "arity": routers,
                 "bandwidth": local_bandwidth},
                {"name": "group", "arity": groups,
                 "bandwidth": global_bandwidth},
            ],
        },
    )
    return _attach_slowdowns(topo, {
        topo.link_id(u, v): 1.0 / (global_bandwidth if glob else local_bandwidth)
        for (u, v), glob in zip(edges, is_global)
    })


def node_core_tree(
    nodes: int,
    cores: int,
    *,
    intra_bandwidth: float = 1.0,
    inter_bandwidth: float = 0.25,
    capacities=None,
    name: str | None = None,
) -> Topology:
    """A multi-socket cluster: *nodes* boxes of *cores* processors.

    Labels are ``(node, core)``.  Cores within a node share a full
    crossbar at *intra_bandwidth*; core 0 of each node is its network
    gateway, and the gateways form a ring at *inter_bandwidth* (the
    slow level -- the default models a network 4x thinner than the
    on-node fabric).
    """
    if nodes < 1 or cores < 1 or nodes * cores < 2:
        raise ValueError(
            f"node_core_tree needs >= 2 processors total, got "
            f"{nodes} nodes x {cores} cores"
        )
    intra_bandwidth = _check_bandwidth(intra_bandwidth, "node_core_tree intra_bandwidth")
    inter_bandwidth = _check_bandwidth(inter_bandwidth, "node_core_tree inter_bandwidth")
    procs = [(n, c) for n in range(nodes) for c in range(cores)]
    edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    is_inter: list[bool] = []
    for n in range(nodes):
        for a in range(cores):
            for b in range(a + 1, cores):
                edges.append(((n, a), (n, b)))
                is_inter.append(False)
    if nodes == 2:
        edges.append(((0, 0), (1, 0)))
        is_inter.append(True)
    elif nodes > 2:
        for n in range(nodes):
            edges.append(((n, 0), ((n + 1) % nodes, 0)))
            is_inter.append(True)
    topo = Topology(
        name or f"node_core_tree{nodes}x{cores}",
        edges,
        nodes=procs,
        family=("node_core_tree", (nodes, cores)),
        capacities=_coerce_capacities(capacities, procs),
        hierarchy={
            "kind": "node_core_tree",
            "levels": [
                {"name": "core", "arity": cores,
                 "bandwidth": intra_bandwidth},
                {"name": "node", "arity": nodes,
                 "bandwidth": inter_bandwidth},
            ],
        },
    )
    return _attach_slowdowns(topo, {
        topo.link_id(u, v): 1.0 / (inter_bandwidth if inter else intra_bandwidth)
        for (u, v), inter in zip(edges, is_inter)
    })


def with_capacities(topology: Topology, capacities) -> Topology:
    """A copy of *topology* carrying *capacities* (structure unchanged).

    This is how a flat machine becomes the degenerate one-level instance
    of the heterogeneous model: same processors, links, link numbering,
    and slowdowns -- only the capacity table (and hence the fingerprint)
    differs.
    """
    capacities = _coerce_capacities(capacities, topology.processors)
    out = Topology(
        topology.name,
        [tuple(link) for link in topology.links],
        nodes=topology.processors,
        family=topology.family,
        capacities=capacities,
        hierarchy=topology.hierarchy,
    )
    out.link_slowdowns = dict(topology.link_slowdowns)
    return out


# ----------------------------------------------------------------------
# MachineSpec: the serialisable machine description
# ----------------------------------------------------------------------
#: kind -> (generator, its sizes read from the JSON params: the integers
#: its spec string ``kind:AxB...`` spells in the networks table).
_GENERATORS = {
    "fat_tree": (fat_tree, lambda p: p["arities"]),
    "dragonfly": (dragonfly, lambda p: [p["groups"], p["routers"]]),
    "node_core_tree": (node_core_tree, lambda p: [p["nodes"], p["cores"]]),
}


@dataclass(frozen=True)
class MachineSpec:
    """A machine description: generator kind, parameters, capacities.

    ``kind`` is one of the hierarchy generators (``fat_tree``,
    ``dragonfly``, ``node_core_tree``) or ``"topology"`` (params:
    ``{"spec": <any spec string>}``).  ``capacities`` is the
    shorthand spec :meth:`Capacities.from_spec` accepts, or ``None``.
    """

    kind: str
    params: dict = field(default_factory=dict)
    capacities: dict | None = None

    def __post_init__(self):
        if self.kind not in _GENERATORS and self.kind != "topology":
            raise ValueError(
                f"unknown machine kind {self.kind!r}; choose from "
                f"{sorted([*_GENERATORS, 'topology'])!r}"
            )

    def _spec(self) -> str:
        """The spec string naming this machine's family and sizes."""
        if self.kind == "topology":
            spec = self.params.get("spec")
            if not isinstance(spec, str):
                raise ValueError(
                    "machine kind 'topology' needs params: "
                    "{'spec': '<topology spec>'}"
                )
            return spec
        _, sizes = _GENERATORS[self.kind]
        try:
            return f"{self.kind}:" + "x".join(
                str(int(s)) for s in sizes(self.params)
            )
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"bad parameters for machine kind {self.kind!r}: {exc!r}"
            ) from exc

    def n_processors(self) -> int:
        """How many processors :meth:`build` would create, computed from
        the spec's integers alone -- what lets a caller refuse a machine
        before paying for it."""
        return spec_processors(self._spec())

    def build(self) -> Topology:
        """Instantiate the machine as a lowered :class:`Topology`."""
        if self.kind == "topology":
            topo = parse_topology(self._spec())
            if self.capacities is not None:
                topo = with_capacities(topo, self.capacities)
            return topo
        generator, _ = _GENERATORS[self.kind]
        try:
            return generator(**self.params, capacities=self.capacities)
        except TypeError as exc:
            raise ValueError(
                f"bad parameters for machine kind {self.kind!r}: {exc}"
            ) from exc

    def to_dict(self) -> dict:
        """The JSON machine-file form (see ``docs/machines.md``)."""
        doc: dict[str, Any] = {
            "format": MACHINE_FORMAT,
            "kind": self.kind,
            "params": dict(self.params),
        }
        if self.capacities is not None:
            doc["capacities"] = self.capacities
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "MachineSpec":
        """Rebuild from a machine-file dict (inverse of :meth:`to_dict`)."""
        if not isinstance(data, dict):
            raise ValueError(
                f"machine spec must be an object, got {type(data).__name__}"
            )
        fmt = data.get("format", MACHINE_FORMAT)
        if fmt != MACHINE_FORMAT:
            raise ValueError(
                f"unsupported machine format {fmt!r} (expected {MACHINE_FORMAT!r})"
            )
        unknown = set(data) - {"format", "kind", "params", "capacities"}
        if unknown:
            raise ValueError(
                f"unknown machine spec keys {sorted(unknown)!r}"
            )
        if "kind" not in data:
            raise ValueError("machine spec needs a 'kind'")
        params = data.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("machine 'params' must be an object")
        capacities = data.get("capacities")
        if capacities is not None and not isinstance(capacities, dict):
            raise ValueError("machine 'capacities' must be an object")
        return cls(kind=data["kind"], params=params, capacities=capacities)


def load_machine(path) -> Topology:
    """Load and build a JSON machine file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"machine file {path}: invalid JSON: {exc}") from exc
    return MachineSpec.from_dict(data).build()


def parse_machine(spec: str) -> Topology:
    """Resolve a CLI machine argument: a file path or a spec string.

    An existing file wins (machine files are JSON documents); anything
    else is a spec string for :func:`~repro.arch.networks.parse_topology`.
    """
    if Path(spec).is_file():
        return load_machine(spec)
    return parse_topology(spec)


def describe_machine(topology: Topology) -> dict:
    """A JSON-compatible debugging view of one machine.

    Renders what ``repro machine show`` prints: the hierarchy levels (or
    ``"flat"``), the link bandwidth classes (distinct slowdown factors
    with their link counts), and per-resource aggregate capacities.
    """
    slow = topology.link_slowdowns
    classes: dict[float, int] = {}
    for lid in range(1, topology.n_links + 1):
        factor = slow.get(lid, 1.0)
        classes[factor] = classes.get(factor, 0) + 1
    doc: dict[str, Any] = {
        "name": topology.name,
        "kind": (topology.hierarchy or {}).get("kind", "flat"),
        "n_processors": topology.n_processors,
        "n_links": topology.n_links,
        "levels": (topology.hierarchy or {}).get("levels", []),
        "link_bandwidth_classes": [
            {"slowdown": factor, "bandwidth": 1.0 / factor, "links": count}
            for factor, count in sorted(classes.items())
        ],
        "fingerprint": topology.fingerprint(),
    }
    caps = topology.capacities
    if caps is not None:
        arr = caps.cap_array(topology)
        doc["capacities"] = [
            {
                "resource": name,
                "demand": rule,
                "total": float(arr[:, i].sum()),
                "min": float(arr[:, i].min()),
                "max": float(arr[:, i].max()),
            }
            for i, (name, rule) in enumerate(zip(caps.names, caps.rules))
        ]
    else:
        doc["capacities"] = None
    return doc
