"""Capacity-aware mapping end to end: every layer honours the vectors.

The property at the heart of PR 9: whatever strategy produces a mapping
on a capacity-constrained machine, the per-processor consumed demand
stays within every declared resource vector -- contraction, embedding,
refinement, and repair all preserve feasibility.  Mapping onto
``with_capacities(machine, None)`` reproduces the scalar-bound behaviour,
and is exactly what ``Mapping.validate()`` catches overflowing on the
capacity machine.
"""

import math

from hypothesis import assume, given, settings, strategies as st

import pytest

from repro.arch import networks
from repro.arch.capacity import Capacities
from repro.arch.hierarchy import node_core_tree, with_capacities
from repro.graph.taskgraph import TaskGraph
from repro.mapper.mapping import NotApplicableError
from repro.pipeline import MapConfig, RunConfig, run_pipeline
from repro.util.validation import ValidationError

STAGES = ("contract", "embed", "refine", "route")


def _weighted_ring(weights):
    tg = TaskGraph("capring")
    for i, w in enumerate(weights):
        tg.add_node(i, w)
    phase = tg.add_comm_phase("ring")
    n = len(weights)
    for i in range(n):
        phase.add(i, (i + 1) % n, 1.0)
    tg.add_exec_phase("work", 1.0)
    return tg


def _memory_machine(base, cap):
    return with_capacities(
        base,
        Capacities.from_spec(
            {"memory": {"demand": "weight", "cap": float(cap)}},
            base.processors,
        ),
    )


def _proc_weight_loads(tg, mapping):
    loads = {}
    for task, proc in mapping.assignment.items():
        loads[proc] = loads.get(proc, 0.0) + tg.node_weight(task)
    return loads


# ----------------------------------------------------------------------
# the property: produced mappings satisfy every resource vector
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_capacity_constrained_mappings_respect_every_resource(data):
    n = data.draw(st.integers(min_value=6, max_value=20), label="n")
    weights = data.draw(
        st.lists(st.integers(min_value=1, max_value=4),
                 min_size=n, max_size=n),
        label="weights",
    )
    n_procs = data.draw(st.sampled_from([2, 4]), label="n_procs")
    strategy = data.draw(
        st.sampled_from(["mwm", "multilevel", "auto"]), label="strategy"
    )
    tg = _weighted_ring(weights)
    # generous-but-declared caps: 2x the balanced share, so the greedy
    # heuristics always have room yet the feasibility gates stay active
    cap = max(2 * math.ceil(sum(weights) / n_procs), max(weights) + 1)
    topo = _memory_machine(networks.complete(n_procs), cap)
    try:
        result = run_pipeline(
            tg, topo,
            RunConfig(map=MapConfig(strategy=strategy),
                      stages=STAGES, cache=False),
        )
    except NotApplicableError:
        assume(False)  # a forced strategy may decline an instance
        return
    result.mapping.validate()
    loads = _proc_weight_loads(tg, result.mapping)
    assert all(load <= cap + 1e-9 for load in loads.values()), loads


# ----------------------------------------------------------------------
# deterministic end-to-end scenarios
# ----------------------------------------------------------------------
def _heavy_ring():
    """16 tasks, four of weight 5 spread around the ring (total 32)."""
    return _weighted_ring([5 if i % 4 == 0 else 1 for i in range(16)])


class TestStrictMode:
    def test_mwm_respects_caps_the_scalar_bound_would_break(self):
        tg = _heavy_ring()
        topo = _memory_machine(networks.complete(4), 9.0)
        result = run_pipeline(
            tg, topo,
            RunConfig(map=MapConfig(strategy="mwm"), stages=STAGES,
                      cache=False),
        )
        result.mapping.validate()
        assert max(_proc_weight_loads(tg, result.mapping).values()) <= 9.0

    @pytest.mark.parametrize("refine", ["kl", "delta_gain"])
    def test_refinement_preserves_feasibility(self, refine):
        tg = _heavy_ring()
        topo = _memory_machine(networks.complete(4), 9.0)
        result = run_pipeline(
            tg, topo,
            RunConfig(map=MapConfig(strategy="mwm", refine=refine),
                      stages=STAGES, cache=False),
        )
        result.mapping.validate()
        assert max(_proc_weight_loads(tg, result.mapping).values()) <= 9.0

    def test_multilevel_on_hierarchical_machine(self):
        tg = _weighted_ring([3 if i % 8 == 0 else 1 for i in range(64)])
        topo = node_core_tree(
            4, 4, capacities={"memory": {"demand": "weight", "cap": 8.0}}
        )
        result = run_pipeline(
            tg, topo,
            RunConfig(map=MapConfig(strategy="multilevel"), stages=STAGES,
                      cache=False),
        )
        result.mapping.validate()
        assert max(_proc_weight_loads(tg, result.mapping).values()) <= 8.0

    def test_infeasible_task_is_not_applicable(self):
        # one task outweighs every processor: no strategy can place it
        tg = _weighted_ring([50, 1, 1, 1])
        topo = _memory_machine(networks.complete(2), 10.0)
        with pytest.raises(NotApplicableError):
            run_pipeline(
                tg, topo,
                RunConfig(map=MapConfig(strategy="mwm"), stages=STAGES,
                          cache=False),
            )


class TestIgnoreMode:
    """Ignoring the vectors is not a mode: what the scalar-bound path does
    is a mapping onto the same machine without its capacity table."""

    def test_scalar_bound_path_overflows_and_validate_flags_it(self):
        from repro.mapper.mapping import Mapping

        tg = _heavy_ring()
        # cap 6: the count-balanced packing (4 tasks incl. one heavy per
        # processor) weighs 8 -- infeasible, which is the point
        topo = _memory_machine(networks.complete(4), 6.0)
        scalar = run_pipeline(
            tg, with_capacities(topo, None),
            RunConfig(map=MapConfig(strategy="mwm"), stages=STAGES,
                      cache=False),
        ).mapping
        scalar.validate(require_routes=True)  # sound where nothing is capped
        on_capped = Mapping(tg, topo, scalar.assignment, scalar.routes)
        with pytest.raises(ValidationError) as info:
            on_capped.validate()
        payload = info.value.payload
        assert payload["kind"] == "capacity_overflow"
        entry = payload["overflows"][0]
        assert entry["resource"] == "memory"
        assert entry["demand"] > entry["capacity"] == 6.0
        assert entry["processor"] in topo.processors


class TestRepairHeadroom:
    def test_incremental_repair_relocates_onto_headroom(self):
        from repro.resilience import FaultSet, repair_mapping

        tg = _heavy_ring()
        base = networks.complete(6)
        topo = _memory_machine(base, 9.0)
        mapping = run_pipeline(
            tg, topo,
            RunConfig(map=MapConfig(strategy="mwm"), stages=STAGES,
                      cache=False),
        ).mapping
        report = repair_mapping(
            tg, mapping, topo, FaultSet(failed_procs=[base.processors[0]])
        )
        report.mapping.validate()
        loads = _proc_weight_loads(tg, report.mapping)
        assert base.processors[0] not in loads
        assert max(loads.values()) <= 9.0


def test_the_capacity_context_is_built_once_per_run(monkeypatch):
    """Contract, embed and refine share one ``CapacityContext``; each used
    to rebuild the demand and capacity arrays."""
    built = []
    context = Capacities.context
    monkeypatch.setattr(
        Capacities, "context",
        lambda self, tg, topology: built.append(1) or context(self, tg, topology),
    )
    tg = _weighted_ring([1] * 16)
    machine = _memory_machine(networks.complete(4), 6)
    result = run_pipeline(
        tg, machine,
        RunConfig(map=MapConfig(strategy="mwm", refine="kl"),
                  stages=STAGES, cache=False),
    )
    assert result.strategy == "mwm+refined"
    assert len(built) == 2  # the run's, and the closing ``Mapping.validate``'s
