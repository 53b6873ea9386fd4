"""End-to-end integration tests: LaRCS -> MAPPER -> METRICS -> simulator.

Each test walks the complete OREGAMI pipeline the way a user would, across
the full workload x architecture matrix, and checks the cross-cutting
invariants no unit test sees: assignments respect load bounds, every route
connects what the assignment says it should, metrics agree with the raw
mapping, simulation honours the phase expression, and the interactive
session keeps everything consistent through edits.
"""

import pytest

from repro import (
    CostModel,
    EditSession,
    analyze,
    compile_larcs,
    map_computation,
    render_report,
    simulate,
)
from repro.arch import networks
from repro.larcs import stdlib
from repro.metrics.display import render_mapping_ascii
from repro.sched import build_directives, derive_synchrony_sets

WORKLOADS = {
    "nbody": dict(n=15),
    "jacobi": dict(rows=4, cols=4),
    "sor": dict(rows=4, cols=4),
    "fft": dict(m=4),
    "dnc": dict(m=4),
    "cannon": dict(q=3),
    "voting": dict(m=4),
    "pipeline": dict(n=8),
    "annealing": dict(rows=4, cols=4),
}

TOPOLOGIES = {
    "hypercube3": lambda: networks.hypercube(3),
    "mesh2x4": lambda: networks.mesh(2, 4),
    "ring8": lambda: networks.ring(8),
    "ccc2": lambda: networks.cube_connected_cycles(2),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("toponame", sorted(TOPOLOGIES))
def test_full_pipeline_matrix(workload, toponame):
    tg = stdlib.load(workload, **WORKLOADS[workload])
    topo = TOPOLOGIES[toponame]()
    mapping = map_computation(tg, topo)
    mapping.validate(require_routes=True)

    metrics = analyze(mapping)
    # Cross-check: metrics' task counts match the mapping.
    assert sum(metrics.tasks_per_processor.values()) == tg.n_tasks
    # Cross-check: total IPC equals the volume of inter-processor edges.
    expected_ipc = sum(
        e.volume
        for _, e in tg.all_edges()
        if mapping.proc_of(e.src) != mapping.proc_of(e.dst)
    )
    assert metrics.total_ipc == pytest.approx(expected_ipc)
    # Reports render without error and mention the graph.
    assert tg.name in render_report(mapping, metrics)
    render_mapping_ascii(mapping)

    # Simulation runs the whole phase expression.
    sim = simulate(mapping, CostModel(exec_time=0.01))
    if tg.phase_expr is not None:
        assert len(sim.step_times) == len(tg.phase_expr.linearize())
    assert sim.total_time >= 0


@pytest.mark.parametrize("workload", ["nbody", "fft", "voting"])
def test_load_bound_respected_across_strategies(workload):
    tg = stdlib.load(workload, **WORKLOADS[workload])
    topo = networks.hypercube(3)
    n = tg.n_tasks
    bound = -(-n // 8)  # ceil
    for strategy in ("auto", "mwm"):
        mapping = map_computation(tg, topo, strategy=strategy, load_bound=bound)
        assert all(len(ts) <= bound for ts in mapping.clusters().values())


def test_larcs_reparametrisation_pipeline():
    """One program, many sizes, one pipeline -- the portability story."""
    from repro.larcs import parse_larcs
    from repro.larcs.evaluator import elaborate

    program = parse_larcs(stdlib.NBODY)
    for n, dim in [(7, 2), (15, 3), (31, 4)]:
        tg, warnings = elaborate(program, {"n": n})
        assert warnings == []
        mapping = map_computation(tg, networks.hypercube(dim))
        mapping.validate(require_routes=True)
        assert len(mapping.used_procs()) == 1 << dim


def test_session_edit_keeps_invariants():
    tg = stdlib.load("nbody", n=15)
    topo = networks.hypercube(3)
    session = EditSession(map_computation(tg, topo))
    for task in (0, 5, 9):
        target = (session.mapping.proc_of(task) + 1) % 8
        session.move_task(task, target)
        session.mapping.validate(require_routes=True)
        metrics = session.metrics
        assert sum(metrics.tasks_per_processor.values()) == 15
    while session.edits:
        session.undo()
    session.mapping.validate(require_routes=True)


def test_scheduling_pipeline():
    """Mapping -> synchrony sets -> directives, on a multiplexed mapping."""
    tg = stdlib.load("voting", m=4)
    topo = networks.hypercube(2)
    mapping = map_computation(tg, topo)
    sets = derive_synchrony_sets(mapping)
    sets.validate(mapping)
    directives = build_directives(mapping, sets)
    # Every task appears in its processor's directive for each exec step.
    steps = tg.phase_expr.linearize()
    exec_step = next(i for i, s in enumerate(steps) if "tally" in s)
    for proc, sched in directives.items():
        assert {t for t, _ in sched.steps[exec_step]} == set(mapping.tasks_on(proc))


def test_custom_program_through_whole_stack(tmp_path):
    source = """
    algorithm stencil9(n, iters = 2);
    nodetype cell[0 .. n-1, 0 .. n-1];
    comphase halo {
        cell(i, j) -> cell(i - 1, j) where i > 0;
        cell(i, j) -> cell(i + 1, j) where i < n - 1;
        cell(i, j) -> cell(i, j - 1) where j > 0;
        cell(i, j) -> cell(i, j + 1) where j < n - 1;
        cell(i, j) -> cell(i - 1, j - 1) where i > 0 and j > 0;
        cell(i, j) -> cell(i + 1, j + 1) where i < n - 1 and j < n - 1;
        cell(i, j) -> cell(i - 1, j + 1) where i > 0 and j < n - 1;
        cell(i, j) -> cell(i + 1, j - 1) where i < n - 1 and j > 0;
    }
    execphase update for cell(i, j) cost 9;
    phases (halo; update)^iters;
    """
    result = compile_larcs(source, n=6)
    tg = result.task_graph
    assert result.warnings == []
    # 9-point stencil: interior cells have 8 out-edges.
    out_degree = sum(1 for e in tg.comm_phase("halo").edges if e.src == (3, 3))
    assert out_degree == 8
    mapping = map_computation(tg, networks.mesh(3, 3))
    mapping.validate(require_routes=True)
    sim = simulate(mapping, CostModel(exec_time=0.1))
    assert sim.total_time > 0
    assert len(sim.step_times) == 4  # (halo; update)^2
