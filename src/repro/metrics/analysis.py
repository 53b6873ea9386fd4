"""Computation of the METRICS performance-metric suite.

"The performance metrics currently computed by METRICS include: load
balancing metrics (tasks per processor, total execution time per
processor); link metrics (dilation, volume of communication, communication
contention with respect to the phases); and metrics for the overall mapping
(completion time of the computation, total interprocessor communication)."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.mapper.mapping import Mapping
from repro.sim.engine import SimulationResult, message_plan
from repro.sim.model import CostModel
from repro.util import perf

__all__ = [
    "MappingMetrics",
    "PhaseLinkMetrics",
    "analyze",
    "comm_cost",
    "metrics_to_dict",
]


@dataclass
class PhaseLinkMetrics:
    """Link metrics for one communication phase.

    Attributes
    ----------
    volume_per_link:
        Total message volume crossing each link (by 1-based link id).
    messages_per_link:
        Message count per link -- the *contention* of the phase: a value of
        ``k`` means ``k`` synchronous messages share the link.
    dilations:
        Route length (hops) per edge index; 0 = intra-processor.
    """

    volume_per_link: dict[int, float] = field(default_factory=dict)
    messages_per_link: dict[int, int] = field(default_factory=dict)
    dilations: list[int] = field(default_factory=list)

    @property
    def max_contention(self) -> int:
        """Most messages sharing any one link in this phase."""
        return max(self.messages_per_link.values(), default=0)

    @property
    def average_dilation(self) -> float:
        """Mean hops per message edge (intra-processor edges count 0)."""
        return sum(self.dilations) / len(self.dilations) if self.dilations else 0.0

    @property
    def max_dilation(self) -> int:
        """Longest route in the phase."""
        return max(self.dilations, default=0)


@dataclass
class MappingMetrics:
    """The full METRICS suite for one mapping."""

    # -- load balancing ---------------------------------------------------
    tasks_per_processor: dict[object, int] = field(default_factory=dict)
    exec_time_per_processor: dict[object, float] = field(default_factory=dict)
    # -- links -------------------------------------------------------------
    phase_links: dict[str, PhaseLinkMetrics] = field(default_factory=dict)
    # -- overall -----------------------------------------------------------
    total_ipc: float = 0.0
    estimated_completion_time: float = 0.0
    #: Simulated critical-path time attributed to each phase.
    phase_critical_time: dict[str, float] = field(default_factory=dict)
    #: Counters attached by the mapping stage (the multilevel strategy and
    #: the delta-gain refiner record ``map.coarsen_levels`` /
    #: ``map.refine_moves`` / ``map.refine_gain`` here).  Empty for
    #: strategies that record nothing, and then absent from the JSON form.
    map_counters: dict[str, float] = field(default_factory=dict)

    @property
    def max_tasks(self) -> int:
        return max(self.tasks_per_processor.values(), default=0)

    @property
    def min_tasks(self) -> int:
        return min(self.tasks_per_processor.values(), default=0)

    @property
    def load_imbalance(self) -> float:
        """Max over mean execution time across processors (1.0 = perfect)."""
        times = list(self.exec_time_per_processor.values())
        if not times or sum(times) == 0:
            return 1.0
        return max(times) / (sum(times) / len(times))

    @property
    def average_dilation(self) -> float:
        """Mean dilation over all message edges, all phases."""
        dil = [d for m in self.phase_links.values() for d in m.dilations]
        return sum(dil) / len(dil) if dil else 0.0

    @property
    def max_contention(self) -> int:
        """Worst per-phase link contention across the mapping."""
        return max(
            (m.max_contention for m in self.phase_links.values()), default=0
        )


def _phase_link_metrics(mapping: Mapping, metrics: MappingMetrics) -> None:
    """Link metrics per phase + total IPC, accumulated with ``np.bincount``.

    Reads the mapping's message plan -- the simulator's own tables, built
    once per mapping -- for each phase's per-edge hop counts and its
    inter-processor messages.  The link ids of every hop (in edge order,
    hops in route order) form one flat array; ``bincount`` then yields the
    message count per link and, weighted by the per-hop volumes, the volume
    per link.  ``bincount`` folds weights into each bin in input order, so
    the per-link float sums accumulate in exactly the order the per-hop
    dict loop of ``tests/oracles/`` adds them.
    """
    plan = message_plan(mapping)
    n_bins = mapping.topology.n_links + 1
    for phase_name in mapping.task_graph.comm_phases:
        msgs = plan.comm_table(phase_name)
        pm = PhaseLinkMetrics(dilations=list(plan.dilations(phase_name)))
        for _links, volume in msgs:
            metrics.total_ipc += volume
        if msgs:
            lid_arr = np.fromiter(
                chain.from_iterable(links for links, _ in msgs), dtype=np.intp
            )
            hop_vols = np.repeat(
                [volume for _, volume in msgs], [len(links) for links, _ in msgs]
            )
            counts = np.bincount(lid_arr, minlength=n_bins)
            volumes = np.bincount(lid_arr, weights=hop_vols, minlength=n_bins)
            for lid in np.flatnonzero(counts):
                pm.messages_per_link[int(lid)] = int(counts[lid])
                pm.volume_per_link[int(lid)] = float(volumes[lid])
        metrics.phase_links[phase_name] = pm


def analyze(
    mapping: Mapping,
    model: CostModel | None = None,
    *,
    sim: SimulationResult | None = None,
) -> MappingMetrics:
    """Compute the METRICS suite for a routed mapping.

    The completion time comes from the discrete-event simulator (the
    contention-aware semantics of the substituted execution substrate);
    when the task graph has no phase expression it is the one-shot
    all-phases time.

    Parameters
    ----------
    sim:
        An already-simulated :class:`~repro.sim.SimulationResult` for this
        mapping under *model*.  When given, the simulator is not re-run --
        callers holding a simulation (the portfolio, a benchmark loop)
        avoid paying for it twice.
    """
    model = model or CostModel()
    tg = mapping.task_graph
    topo = mapping.topology
    metrics = MappingMetrics()

    with perf.span("metrics.analyze"):
        # Load balancing, as flat-array folds.  The reference loop walked
        # ``assignment.items()`` task-major with the exec phases inner, so
        # the per-processor time sums accumulate exactly those terms in
        # exactly that order: the terms matrix is (task, phase) row-major
        # over the assignment order and ``np.add.at`` applies its updates
        # sequentially, keeping the floats bit-identical to the dict fold.
        for proc in topo.processors:
            metrics.tasks_per_processor[proc] = 0
            metrics.exec_time_per_processor[proc] = 0.0
        n = len(mapping.assignment)
        if n:
            pidx = topo.proc_indices
            n_procs = topo.n_processors
            proc_idx = np.fromiter(
                (pidx[p] for p in mapping.assignment.values()),
                dtype=np.intp,
                count=n,
            )
            counts = np.bincount(proc_idx, minlength=n_procs)
            exec_phases = list(tg.exec_phases.values())
            times = np.zeros(n_procs, dtype=np.float64)
            if exec_phases:
                terms = np.empty((n, len(exec_phases)), dtype=np.float64)
                for k, phase in enumerate(exec_phases):
                    if phase.costs:
                        terms[:, k] = np.fromiter(
                            (phase.cost_of(t) for t in mapping.assignment),
                            dtype=np.float64,
                            count=n,
                        )
                    else:
                        terms[:, k] = phase.cost
                terms *= model.exec_time
                np.add.at(
                    times,
                    np.repeat(proc_idx, len(exec_phases)),
                    terms.ravel(),
                )
            for proc, k in pidx.items():
                if counts[k]:
                    metrics.tasks_per_processor[proc] = int(counts[k])
                    metrics.exec_time_per_processor[proc] = float(times[k])

        # Link metrics per phase + total IPC.
        _phase_link_metrics(mapping, metrics)

    # Overall completion time via the simulator (reusing the caller's
    # simulation when one is supplied).
    if sim is None:
        from repro.sim.engine import simulate

        sim = simulate(mapping, model)
    metrics.estimated_completion_time = sim.total_time
    metrics.phase_critical_time = dict(sim.phase_time)
    stats = mapping.map_stats
    if stats:
        metrics.map_counters = dict(stats)
    return metrics


def _task_proc_indices(mapping: Mapping) -> np.ndarray:
    """Assigned processor index per task index (the QAP permutation)."""
    csr = mapping.task_graph.csr()
    pidx = mapping.topology.proc_indices
    assignment = mapping.assignment
    return np.fromiter(
        (pidx[assignment[t]] for t in csr.tasks), dtype=np.intp, count=csr.n
    )


def comm_cost(mapping: Mapping) -> float:
    """Aggregate communication cost: sum of volume x hop distance.

    The sparse quadratic-assignment objective the delta-gain refiner
    minimises, over the folded undirected pairs of the CSR bundle and the
    topology's cached distance matrix.  Equals the route-length-weighted
    volume of :func:`analyze` under shortest-path routing, but needs no
    routes -- O(E) on a 10^5-task graph instead of a full MM-Route pass,
    which is what the 1k/10k/100k mapping benchmarks and the refinement
    property tests call.
    """
    csr = mapping.task_graph.csr()
    if not csr.edge_u.size:
        return 0.0
    proc = _task_proc_indices(mapping)
    D = mapping.topology.distance_matrix()
    terms = csr.edge_w * D[proc[csr.edge_u], proc[csr.edge_v]]
    return float(np.add.accumulate(terms)[-1])


def metrics_to_dict(metrics: MappingMetrics, mapping: Mapping | None = None) -> dict:
    """A JSON-compatible dict of the metric suite (``repro analyze --json``).

    Keys are stringified so arbitrary processor labels survive JSON; the
    derived properties (imbalance, dilation, contention) are included so
    consumers need not recompute them.  With *mapping*, provenance and the
    graph/topology names are attached for self-describing output.
    """
    out: dict = {
        "load_balancing": {
            "tasks_per_processor": {
                str(p): n for p, n in metrics.tasks_per_processor.items()
            },
            "exec_time_per_processor": {
                str(p): t for p, t in metrics.exec_time_per_processor.items()
            },
            "max_tasks": metrics.max_tasks,
            "min_tasks": metrics.min_tasks,
            "load_imbalance": metrics.load_imbalance,
        },
        "links": {
            name: {
                "volume_per_link": {
                    str(l): v for l, v in pm.volume_per_link.items()
                },
                "messages_per_link": {
                    str(l): n for l, n in pm.messages_per_link.items()
                },
                "dilations": list(pm.dilations),
                "max_contention": pm.max_contention,
                "average_dilation": pm.average_dilation,
                "max_dilation": pm.max_dilation,
            }
            for name, pm in metrics.phase_links.items()
        },
        "overall": {
            "total_ipc": metrics.total_ipc,
            "estimated_completion_time": metrics.estimated_completion_time,
            "average_dilation": metrics.average_dilation,
            "max_contention": metrics.max_contention,
            "phase_critical_time": dict(metrics.phase_critical_time),
            # The one simulator engine's name, kept so that saved
            # outputs and responses stay byte-equal.
            "sim_kernel": "reference",
        },
    }
    # Mapping-stage counters (multilevel coarsening depth, refinement moves
    # and gain) ride along only when the strategy recorded them, so output
    # for the classic strategies -- and the golden fixtures pinning it --
    # is unchanged.
    if metrics.map_counters:
        out["overall"]["map_counters"] = {
            k: v for k, v in sorted(metrics.map_counters.items())
        }
    if mapping is not None:
        out["mapping"] = {
            "task_graph": mapping.task_graph.name,
            "topology": mapping.topology.name,
            "provenance": mapping.provenance,
            "processors_used": len(mapping.used_procs()),
        }
    return out
