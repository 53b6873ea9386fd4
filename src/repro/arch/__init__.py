"""Parallel architecture substrate: regular interconnection topologies.

The paper assumes "homogeneous processors connected by some regular network
topology" (iPSC/2, NCUBE, INMOS Transputer are the named candidates).  A
:class:`repro.arch.Topology` wraps the processor graph with the routing
infrastructure MAPPER needs: all-pairs distances, the shortest-path next-hop
sets MM-Route draws candidate links from, and the paper's Fig-6-style link
numbering.

Beyond the paper's flat machines, :mod:`repro.arch.hierarchy` generates
hierarchical machines (fat-tree, dragonfly, node x core trees) lowered
onto the same ``Topology`` core, and :mod:`repro.arch.capacity` attaches
per-processor multi-resource budgets the mapping layers respect.
"""

from repro.arch.topology import DisconnectedTopologyError, Topology
from repro.arch.capacity import Capacities, CapacityContext
from repro.arch.hierarchy import (
    MachineSpec,
    describe_machine,
    dragonfly,
    fat_tree,
    load_machine,
    node_core_tree,
    parse_machine,
    with_capacities,
)
from repro.arch import networks
from repro.arch.networks import (
    butterfly,
    complete,
    cube_connected_cycles,
    full_binary_tree,
    hypercube,
    linear,
    mesh,
    ring,
    star,
    torus,
)
from repro.arch.cayley_networks import cayley_topology, pancake, transposition_star

__all__ = [
    "DisconnectedTopologyError",
    "Topology",
    "Capacities",
    "CapacityContext",
    "MachineSpec",
    "fat_tree",
    "dragonfly",
    "node_core_tree",
    "with_capacities",
    "load_machine",
    "parse_machine",
    "describe_machine",
    "networks",
    "ring",
    "linear",
    "mesh",
    "torus",
    "hypercube",
    "complete",
    "star",
    "full_binary_tree",
    "cube_connected_cycles",
    "butterfly",
    "cayley_topology",
    "pancake",
    "transposition_star",
]
