"""One module per workload; each exposes ``run(ctx) -> Outcome``."""

from __future__ import annotations

import importlib

#: Workload name -> module (the two serve workloads share one).
_MODULES = {
    "paper_batch": "paper_batch",
    "map_scale": "map_scale",
    "sim_sweep": "sim_sweep",
    "serve_warm": "serve",
    "serve_mixed": "serve",
    "online_churn": "online_churn",
}


def run_workload(ctx):
    module = importlib.import_module(
        f"benchmarks.layered.workloads.{_MODULES[ctx.workload]}"
    )
    return module.run(ctx)
