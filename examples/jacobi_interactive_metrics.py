#!/usr/bin/env python3
"""Jacobi iteration + the METRICS edit-and-recompute loop.

Maps the Jacobi stencil (one of the paper's LaRCS example programs) onto a
small mesh with the general heuristics, then reproduces the METRICS
workflow: inspect the report, focus on the busiest processor, move a task
by hand, watch the metrics move, and undo.

Run:  python examples/jacobi_interactive_metrics.py
"""

from repro import EditSession, map_computation, mesh
from repro.larcs import stdlib
from repro.metrics import focus_processor

def main() -> None:
    tg = stdlib.load("jacobi", rows=6, cols=6, msize=4)
    topo = mesh(3, 3)
    mapping = map_computation(tg, topo, load_bound=4)

    session = EditSession(mapping)
    print(session.report())

    # Focus on the most loaded processor, as a METRICS user would.
    busiest = max(
        session.metrics.exec_time_per_processor,
        key=session.metrics.exec_time_per_processor.get,
    )
    print()
    print(focus_processor(mapping, busiest, session.metrics))

    # Drag one of its tasks somewhere quieter and compare.
    victim = mapping.tasks_on(busiest)[0]
    quietest = min(
        (p for p in session.metrics.tasks_per_processor if p != busiest),
        key=session.metrics.tasks_per_processor.get,
    )
    before = session.metrics.estimated_completion_time
    session.move_task(victim, quietest)
    after = session.metrics.estimated_completion_time
    print(f"\nmoved task {victim}: {busiest} -> {quietest}")
    print(f"estimated completion time: {before:g} -> {after:g}")

    if after > before:
        session.undo()
        print("edit made things worse; undone "
              f"(back to {session.metrics.estimated_completion_time:g})")
    else:
        print("edit kept")

if __name__ == "__main__":
    main()
