"""Capture what the one-ledger placer must leave bit-identical.

Run once against the PARENT of the PR that folded the three online
capacity ledgers (``MappingSession._place``, ``IncrementalMapper``'s and
``resilience.repair._relocate``'s) into ``repro.arch.capacity.Headroom``
(commit 9458861); the committed file pins all three reactions to it:

    PYTHONPATH=src python tests/data/capture_placers.py

``placers_pr20.json`` holds three sections:

``spawn``
    ``IncrementalMapper(...).run()`` assignments, in placement order, for
    ``full_binary_spawner(2..5)`` / ``binomial_spawner(3..6)`` on ring, mesh
    and hypercube machines of 8 processors with no bound, the tight int
    bound ``ceil(n / P)`` and topology capacities (one ``unit`` and one
    ``weight`` resource); plus a hand-driven weighted spawn sequence run
    until the machine refuses.
``repair``
    ``repair_mapping`` moved-task maps, migration cost and re-route counts
    for every single and a spread of double processor faults on
    capacity-free and capacity machines (``mode="incremental"``), and the
    "no survivor has headroom" corner under both ``"incremental"`` (the
    error text) and ``"auto"``: a full machine where the fallback fails
    too, and a fragmented one where the full remap repacks.
``session``
    ``trace_fingerprint()`` and final ``mapping_fingerprint`` of
    ``generate_scenario`` seeds 1-5 x 200 events on ``hypercube:3``
    capacity-free, the same under ``SessionConfig(load_bound=16)``, and a
    ``mesh:2x4`` with capacities.  None of these sets a bound *and*
    capacities: that corner changed by design (the session used to ignore
    the bound there).

Everything is plain JSON; labels are ``repr`` strings.
"""
import json
import math
from pathlib import Path

from repro.arch import networks
from repro.arch.capacity import Capacities
from repro.arch.hierarchy import with_capacities
from repro.graph import families
from repro.graph.dynamic import (
    IncrementalMapper,
    binomial_spawner,
    full_binary_spawner,
)
from repro.graph.taskgraph import TaskGraph
from repro.mapper import map_computation
from repro.mapper.mapping import Mapping
from repro.mapper.routing.mm_route import mm_route
from repro.online import (
    MappingSession,
    SessionConfig,
    generate_scenario,
    mapping_fingerprint,
)
from repro.resilience import FaultSet, repair_mapping

HERE = Path(__file__).parent

MACHINES = {
    "ring:8": lambda: networks.ring(8),
    "mesh:2x4": lambda: networks.mesh(2, 4),
    "hypercube:3": lambda: networks.hypercube(3),
}
PATTERNS = {
    **{f"fbt{d}": (lambda d=d: full_binary_spawner(d)) for d in range(2, 6)},
    **{f"binomial{k}": (lambda k=k: binomial_spawner(k)) for k in range(3, 7)},
}


def capped(base, slots: float, mem: float):
    """*base* with a ``unit`` slots and a ``weight`` mem budget per processor."""
    return with_capacities(base, Capacities.from_spec(
        {"slots": {"demand": "unit", "cap": slots},
         "mem": {"demand": "weight", "cap": mem}},
        base.processors,
    ))


# ----------------------------------------------------------------------
# spawn: IncrementalMapper
# ----------------------------------------------------------------------
def capture_spawn() -> dict:
    out = {}
    for mname, machine in MACHINES.items():
        for pname, pattern in PATTERNS.items():
            n = pattern().unfold().n_tasks
            per_proc = math.ceil(n / 8)
            modes = {
                "free": lambda: IncrementalMapper(machine()),
                "bound": lambda: IncrementalMapper(
                    machine(), capacity=per_proc),
                "caps": lambda: IncrementalMapper(
                    capped(machine(), per_proc + 1, per_proc + 0.5)),
            }
            for mode, build in modes.items():
                mapping = build().run(pattern())
                # Placement order is the pattern's spawn order: the
                # processors alone pin the assignment.
                out[f"{pname}/{mname}/{mode}"] = " ".join(
                    repr(p).replace(" ", "")
                    for p in mapping.assignment.values()
                )
    return out


def capture_weighted_spawn() -> dict:
    """Drive ``place_root`` / ``spawn`` by hand with mixed weights until the
    machine has no headroom left; the refusal is part of the record."""
    out = {}
    weights = (2.0, 0.5, 1.0, 1.5, 1.0)
    for mname, machine in MACHINES.items():
        mapper = IncrementalMapper(capped(machine(), 4.0, 4.5))
        placed = [[0, repr(mapper.place_root(0, weight=weights[0]))]]
        refusal = None
        for child in range(1, 64):
            try:
                proc = mapper.spawn(
                    (child - 1) // 2, child, weight=weights[child % 5])
            except RuntimeError as exc:
                refusal = [child, str(exc)]
                break
            placed.append([child, repr(proc)])
        out[mname] = {"placed": placed, "refusal": refusal}
    return out


# ----------------------------------------------------------------------
# repair: resilience._relocate
# ----------------------------------------------------------------------
def weighted_mesh_graph() -> TaskGraph:
    """A 4x6 stencil whose first row is heavy (weight 2)."""
    tg = families.mesh(4, 6)
    heavy = TaskGraph("heavy-mesh")
    for i, task in enumerate(tg.nodes):
        heavy.add_node(task, 2.0 if i < 6 else 1.0)
    for name, phase in tg.comm_phases.items():
        new = heavy.add_comm_phase(name)
        for e in phase.edges:
            new.add(e.src, e.dst, e.volume)
    for name, phase in tg.exec_phases.items():
        heavy.add_exec_phase(name, phase.cost)
    heavy.phase_expr = tg.phase_expr
    return heavy


def fault_sets(topology) -> dict:
    procs = topology.processors
    singles = {f"proc {p!r}": FaultSet.proc(p) for p in procs}
    doubles = {
        f"procs {a!r}+{b!r}": FaultSet(failed_procs=[a, b])
        for a, b in zip(procs, procs[3:])
    }
    return {**singles, **doubles}


def repair_record(tg, mapping, topology, faults, mode) -> dict:
    try:
        report = repair_mapping(tg, mapping, topology, faults, mode=mode)
    except Exception as exc:  # the refusal text is pinned too
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "strategy": report.strategy,
        "moved": {
            repr(t): [repr(old), repr(new)]
            for t, (old, new) in report.moved_tasks.items()
        },
        "migration_cost": report.migration_cost,
        "rerouted": report.n_rerouted,
        "kept_routes": report.kept_routes,
        "fallback_reason": report.fallback_reason,
    }


REPAIR_CASES = {
    "mesh4x6/hypercube:3": (
        lambda: families.mesh(4, 6), lambda: networks.hypercube(3)),
    "nbody15/mesh:2x4": (
        lambda: families.nbody(15), lambda: networks.mesh(2, 4)),
    "heavy-mesh/hypercube:3+caps": (
        weighted_mesh_graph, lambda: capped(networks.hypercube(3), 6.0, 7.0)),
    "heavy-mesh/mesh:2x4+caps": (
        weighted_mesh_graph, lambda: capped(networks.mesh(2, 4), 5.0, 6.0)),
    # 30 of 32 mem units used: a dead processor's tasks fit nowhere.
    "heavy-mesh/ring:8+tight": (
        weighted_mesh_graph, lambda: capped(networks.ring(8), 4.0, 4.0)),
}


def fragmented_case(machine) -> tuple:
    """One weight-2 task alone on the first processor, three weight-1 tasks
    on each of the other three, 4 mem units apiece: when the first
    processor dies every survivor has 1 unit left, so relocation finds no
    headroom although a full remap can repack."""
    tg = TaskGraph("fragmented")
    tg.add_node("A", 2.0)
    for i in range(9):
        tg.add_node(i, 1.0)
    chain = tg.add_comm_phase("chain")
    names = list(tg.nodes)
    for a, b in zip(names, names[1:]):
        chain.add(a, b, 1.0)
    tg.add_exec_phase("work", 1.0)
    topology = capped(machine(), 4.0, 4.0)
    procs = topology.processors
    assignment = {"A": procs[0], **{i: procs[1 + i // 3] for i in range(9)}}
    mapping = Mapping(tg, topology, assignment, provenance="hand")
    mapping.routes = mm_route(tg, topology, assignment).routes
    return tg, topology, mapping


FRAGMENTED = {
    "ring:4": lambda: networks.ring(4),
    "mesh:2x2": lambda: networks.mesh(2, 2),
    "hypercube:2": lambda: networks.hypercube(2),
}


def capture_repair() -> dict:
    out = {}
    cases = []
    for label, (graph, machine) in REPAIR_CASES.items():
        tg, topology = graph(), machine()
        mapping = map_computation(tg, topology, strategy="mwm")
        modes = ("incremental", "auto") if "tight" in label else ("incremental",)
        cases.append((label, tg, topology, mapping, modes))
    for mname, machine in FRAGMENTED.items():
        cases.append(
            (f"fragmented/{mname}", *fragmented_case(machine),
             ("incremental", "auto"))
        )
    for label, tg, topology, mapping, modes in cases:
        for fname, faults in fault_sets(topology).items():
            try:
                topology.degrade(faults)
            except ValueError:
                continue  # disconnects the machine: not a repair input
            for mode in modes:
                out[f"{label}/{fname}/{mode}"] = repair_record(
                    tg, mapping, topology, faults, mode
                )
    return out


# ----------------------------------------------------------------------
# session: MappingSession arrival placement (and everything around it)
# ----------------------------------------------------------------------
def session_ring(n: int = 8) -> TaskGraph:
    tg = TaskGraph("placers-ring")
    for i in range(n):
        tg.add_node(i, 1.0)
    phase = tg.add_comm_phase("ring")
    for i in range(n):
        phase.add(i, (i + 1) % n, 1.0)
    tg.add_exec_phase("work", 1.0)
    return tg


SESSIONS = {
    "hypercube:3": (lambda: networks.hypercube(3), {}),
    "hypercube:3+bound16": (lambda: networks.hypercube(3), {"load_bound": 16}),
    "mesh:2x4+caps": (lambda: capped(networks.mesh(2, 4), 16.0, 15.0), {}),
}
SESSION_SEEDS = (1, 2, 3, 4, 5)
SESSION_EVENTS = 200


def capture_session(label: str, seed: int) -> dict:
    machine, knobs = SESSIONS[label]
    tg, topology = session_ring(), machine()
    scenario = generate_scenario(
        tg, topology, seed=seed, n_events=SESSION_EVENTS)
    session = MappingSession(
        tg, topology, SessionConfig(checkpoint_every=0, **knobs))
    error = None
    for event in scenario.events:
        try:
            session.apply(event)
        except Exception as exc:  # a refusal ends the run; pin where and why
            error = f"{type(exc).__name__}: {exc}"
            break
    return {
        "events_applied": len(session.trace),
        "error": error,
        "trace_fingerprint": session.trace_fingerprint(),
        "mapping_fingerprint": mapping_fingerprint(session.mapping),
    }


def capture_all() -> dict:
    return {
        "spawn": capture_spawn(),
        "spawn_weighted": capture_weighted_spawn(),
        "repair": capture_repair(),
        "session": {
            f"{label}/seed{seed}": capture_session(label, seed)
            for label in SESSIONS for seed in SESSION_SEEDS
        },
    }


if __name__ == "__main__":
    path = HERE / "placers_pr20.json"
    path.write_text(json.dumps(capture_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
