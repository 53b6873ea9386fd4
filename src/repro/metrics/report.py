"""Text rendering of mappings and their metrics (the METRICS "display").

The original tool drew the mapping on color displays; here the same
information renders as text tables: the assignment, per-processor load,
per-phase link contention, and the overall summary.  ``focus_processor``
and ``focus_link`` reproduce METRICS' ability to "focus on specific
processors or links".
"""

from __future__ import annotations

from repro.mapper.mapping import Mapping
from repro.metrics.analysis import MappingMetrics, analyze

__all__ = ["render_report", "focus_processor", "focus_link", "compare_mappings"]


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_report(mapping: Mapping, metrics: MappingMetrics | None = None) -> str:
    """A full text report: assignment, load, links, overall metrics."""
    metrics = metrics if metrics is not None else analyze(mapping)
    parts: list[str] = []
    parts.append(
        f"=== OREGAMI mapping: {mapping.task_graph.name} -> "
        f"{mapping.topology.name} (via {mapping.provenance}) ==="
    )

    rows = []
    for proc in mapping.topology.processors:
        tasks = sorted(mapping.tasks_on(proc), key=repr)
        rows.append(
            [
                str(proc),
                str(metrics.tasks_per_processor.get(proc, 0)),
                f"{metrics.exec_time_per_processor.get(proc, 0.0):g}",
                " ".join(map(str, tasks)) or "-",
            ]
        )
    parts.append("-- load balancing --")
    parts.append(_table(["proc", "tasks", "exec time", "task list"], rows))

    parts.append("-- link metrics (per phase) --")
    rows = []
    for phase, pm in metrics.phase_links.items():
        rows.append(
            [
                phase,
                f"{pm.average_dilation:.3f}",
                str(pm.max_dilation),
                str(pm.max_contention),
                f"{sum(pm.volume_per_link.values()):g}",
            ]
        )
    parts.append(
        _table(["phase", "avg dilation", "max dil", "contention", "volume"], rows)
    )

    if metrics.phase_critical_time:
        parts.append("-- phase times (simulated, critical path) --")
        rows = [
            [name, f"{t:g}"]
            for name, t in sorted(
                metrics.phase_critical_time.items(), key=lambda nt: -nt[1]
            )
        ]
        parts.append(_table(["phase", "time"], rows))

    parts.append("-- overall --")
    parts.append(f"total IPC:            {metrics.total_ipc:g}")
    parts.append(f"average dilation:     {metrics.average_dilation:.3f}")
    parts.append(f"max link contention:  {metrics.max_contention}")
    parts.append(f"load imbalance:       {metrics.load_imbalance:.3f}")
    parts.append(
        f"est. completion time: {metrics.estimated_completion_time:g}"
    )
    return "\n".join(parts)


def compare_mappings(
    mappings: dict[str, Mapping],
    metrics: dict[str, MappingMetrics] | None = None,
) -> str:
    """Side-by-side summary table of several mappings of one computation.

    The workflow METRICS enables -- produce alternatives (different
    strategies, manual edits), compare, keep the best.  Rows are the
    overall metrics; columns the named mappings.
    """
    if not mappings:
        raise ValueError("nothing to compare")
    names = list(mappings)
    if metrics is None:
        metrics = {name: analyze(m) for name, m in mappings.items()}
    rows = [
        ("strategy", lambda n: mappings[n].provenance),
        ("total IPC", lambda n: f"{metrics[n].total_ipc:g}"),
        ("avg dilation", lambda n: f"{metrics[n].average_dilation:.3f}"),
        ("max contention", lambda n: str(metrics[n].max_contention)),
        ("load imbalance", lambda n: f"{metrics[n].load_imbalance:.3f}"),
        (
            "est. completion",
            lambda n: f"{metrics[n].estimated_completion_time:g}",
        ),
    ]
    headers = ["metric"] + names
    table_rows = [[label] + [fn(n) for n in names] for label, fn in rows]
    return _table(headers, table_rows)


def focus_processor(mapping: Mapping, proc, metrics: MappingMetrics | None = None) -> str:
    """Detail view of one processor: its tasks and the traffic they cause."""
    metrics = metrics if metrics is not None else analyze(mapping)
    tasks = sorted(mapping.tasks_on(proc), key=repr)
    lines = [
        f"=== processor {proc} ===",
        f"tasks ({len(tasks)}): {' '.join(map(str, tasks)) or '-'}",
        f"exec time: {metrics.exec_time_per_processor.get(proc, 0.0):g}",
    ]
    tg = mapping.task_graph
    for phase_name, phase in tg.comm_phases.items():
        in_msgs = out_msgs = 0
        ptr, _ = mapping.index_paths(phase_name)
        for edge, crosses in zip(phase.edges, (ptr[1:] - ptr[:-1] > 1).tolist()):
            if crosses and mapping.proc_of(edge.src) == proc:
                out_msgs += 1
            if crosses and mapping.proc_of(edge.dst) == proc:
                in_msgs += 1
        lines.append(f"phase {phase_name}: {out_msgs} out, {in_msgs} in")
    return "\n".join(lines)


def focus_link(mapping: Mapping, link_id: int, metrics: MappingMetrics | None = None) -> str:
    """Detail view of one link: the messages routed across it, per phase."""
    metrics = metrics if metrics is not None else analyze(mapping)
    u, v = tuple(mapping.topology.link_by_id(link_id))
    lines = [f"=== link {link_id} ({u} -- {v}) ==="]
    for phase, pm in metrics.phase_links.items():
        msgs = pm.messages_per_link.get(link_id, 0)
        vol = pm.volume_per_link.get(link_id, 0.0)
        lines.append(f"phase {phase}: {msgs} messages, volume {vol:g}")
    return "\n".join(lines)
