"""OREGAMI: software tools for mapping parallel computations to parallel
architectures.

A reproduction of Lo, Rajopadhye, Gupta, Keldsen, Mohamed & Telle,
*OREGAMI: Software Tools for Mapping Parallel Computations to Parallel
Architectures*, ICPP 1990 (CIS-TR-89-18, University of Oregon).

Quickstart::

    from repro import compile_larcs, hypercube, map_computation, render_report
    from repro.larcs import stdlib

    tg = compile_larcs(stdlib.NBODY, n=15).task_graph   # LaRCS front end
    mapping = map_computation(tg, hypercube(3))         # MAPPER
    print(render_report(mapping))                       # METRICS

The three subsystems of the paper:

* **LaRCS** (:mod:`repro.larcs`) -- the description language for regular
  communication structures; compiles parametric programs into task graphs.
* **MAPPER** (:mod:`repro.mapper`) -- contraction, embedding and routing:
  canned mappings, group-theoretic contraction, MWM-Contract, NN-Embed,
  MM-Route, and multilevel mapping when named.
* **METRICS** (:mod:`repro.metrics`) -- performance analysis, text reports,
  and interactive mapping modification, backed by a discrete-event
  simulator (:mod:`repro.sim`).
"""

from repro.graph import TaskGraph, families, parse_phase_expr
from repro.arch import (
    Topology,
    hypercube,
    linear,
    mesh,
    ring,
    torus,
)
from repro.larcs import compile_larcs, parse_larcs
from repro.mapper import Mapping, NotApplicableError, map_computation
from repro.metrics import EditSession, analyze, render_report
from repro.sim import CostModel, simulate

__version__ = "1.2.0"

__all__ = [
    "TaskGraph",
    "families",
    "parse_phase_expr",
    "Topology",
    "ring",
    "linear",
    "mesh",
    "torus",
    "hypercube",
    "compile_larcs",
    "parse_larcs",
    "Mapping",
    "NotApplicableError",
    "map_computation",
    "analyze",
    "render_report",
    "EditSession",
    "CostModel",
    "simulate",
    "__version__",
]
