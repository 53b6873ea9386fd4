"""Per-hop METRICS link accumulation (moved from ``repro.metrics.analysis``)."""

from __future__ import annotations

from repro.mapper.mapping import Mapping
from repro.metrics.analysis import MappingMetrics, PhaseLinkMetrics


def phase_link_metrics_reference(
    mapping: Mapping, metrics: MappingMetrics
) -> None:
    """Per-hop dict accumulation (the executable specification)."""
    tg = mapping.task_graph
    topo = mapping.topology
    for phase_name, phase in tg.comm_phases.items():
        pm = PhaseLinkMetrics()
        for idx, edge in enumerate(phase.edges):
            route = mapping.routes[(phase_name, idx)]
            pm.dilations.append(len(route) - 1)
            if len(route) > 1:
                metrics.total_ipc += edge.volume
                for a, b in zip(route, route[1:]):
                    lid = topo.link_id(a, b)
                    pm.volume_per_link[lid] = (
                        pm.volume_per_link.get(lid, 0.0) + edge.volume
                    )
                    pm.messages_per_link[lid] = (
                        pm.messages_per_link.get(lid, 0) + 1
                    )
        metrics.phase_links[phase_name] = pm
