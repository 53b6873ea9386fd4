"""METRICS: analysis, display, and interactive modification of mappings (§5).

The original METRICS is an interactive color-graphics tool; this
reproduction provides the same substance in library + text form:

* :func:`repro.metrics.analyze` computes the full metric suite the paper
  lists -- load-balancing metrics (tasks per processor, execution time per
  processor), link metrics (dilation, communication volume, per-phase
  contention) and overall metrics (estimated completion time, total
  interprocessor communication).
* :func:`repro.metrics.render_report` renders the metrics as text tables
  (the "display"), with per-processor and per-link focus views.
* :class:`repro.metrics.EditSession` reproduces the click-and-drag
  modification loop: move tasks, re-route edges, and recompute metrics,
  with undo.
"""

from repro.metrics.analysis import (
    MappingMetrics,
    analyze,
    comm_cost,
    metrics_to_dict,
)
from repro.metrics.report import render_report, focus_link, focus_processor
from repro.metrics.session import EditSession

__all__ = [
    "analyze",
    "MappingMetrics",
    "comm_cost",
    "metrics_to_dict",
    "render_report",
    "focus_processor",
    "focus_link",
    "EditSession",
]
