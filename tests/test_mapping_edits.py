"""In-place edits of a mapping never leave a derived table stale.

A hypothesis state machine edits one routed mapping in place, by every
path a caller has: moving a task, rerouting an edge, adding an aggregation
phase, rebinding ``assignment``/``routes``, and raw ``__setitem__``,
``del``, ``update``, ``pop``, ``popitem``, ``setdefault``, ``|=`` and
``clear``.  Between edits it asks ``simulate``, ``step_cost`` and
``analyze`` under two cost models.  Every answer must equal the uncached
oracles (``tests/oracles/sim.simulate_uncached``,
``tests/oracles/metrics.phase_link_metrics_reference``) and a fresh
``copy()``'s answer, or raise exactly what the copy raises.

The task graph has no phase expression, so ``simulate`` runs one step of
every phase -- aggregation phases included -- and ``step_cost`` over all
phases prices the same step.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.arch import networks
from repro.larcs import stdlib
from repro.mapper import map_computation
from repro.mapper.aggregate import add_aggregation_phase
from repro.mapper.routing.mm_route import mm_route
from repro.metrics import analyze
from repro.metrics.analysis import MappingMetrics
from repro.sim import CostModel, simulate, step_cost
from tests.oracles import simulate_uncached
from tests.oracles.metrics import phase_link_metrics_reference

TASKS = stdlib.load("jacobi", rows=4, cols=4).nodes
PROCS = networks.mesh(2, 2).processors
MODELS = (CostModel(), CostModel(2.0, 0.5, 1.5, "cut_through"))
#: Step subsets for ``step_cost``; ``None`` is every phase.
STEPS = (None, ("north",), ("north", "south", "relax"))
MAX_AGGREGATES = 2


def outcome(fn, *args, **kwargs):
    """*fn*'s result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed
        return (type(exc), str(exc))


def raised(value) -> bool:
    return isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], type)


class MappingEdits(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        tg = stdlib.load("jacobi", rows=4, cols=4)
        tg.phase_expr = None
        self.mapping = map_computation(tg, networks.mesh(2, 2))
        self.saved = self.snapshot()
        self.aggregates = 0

    def snapshot(self):
        m = self.mapping
        return dict(m.assignment), {k: list(r) for k, r in m.routes.items()}

    def valid(self) -> bool:
        return not raised(outcome(self.mapping.copy().validate, require_routes=True))

    def all_assigned(self) -> bool:
        return set(TASKS) <= set(self.mapping.assignment)

    def route_key(self, i):
        keys = list(self.mapping.routes)
        return keys[i % len(keys)]

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    @rule(task=st.sampled_from(TASKS), proc=st.sampled_from(PROCS))
    def move(self, task, proc):
        self.mapping.assignment[task] = proc  # routes kept as they were

    @precondition(all_assigned)
    @rule(how=st.sampled_from(["update", "ior", "setitem", "rebind"]))
    def reroute_all(self, how):
        m = self.mapping
        fresh = mm_route(m.task_graph, m.topology, m.assignment).routes
        if how == "update":
            m.routes.update(fresh)
        elif how == "ior":
            m.routes |= fresh
        elif how == "setitem":
            for key, route in fresh.items():
                m.routes[key] = route
        else:
            m.routes = fresh

    @precondition(lambda self: self.mapping.routes and self.all_assigned())
    @rule(i=st.integers(0, 200), via=st.sampled_from(PROCS))
    def reroute(self, i, via):
        m = self.mapping
        phase, idx = key = self.route_key(i)
        edge = m.task_graph.comm_phase(phase).edges[idx]
        src, dst = m.proc_of(edge.src), m.proc_of(edge.dst)
        head = m.topology.shortest_routes(src, via)[0]
        tail = m.topology.shortest_routes(via, dst)[0]
        m.routes[key] = head + tail[1:]

    @precondition(lambda self: self.aggregates < MAX_AGGREGATES and self.valid())
    @rule(root=st.sampled_from(TASKS))
    def aggregate(self, root):
        add_aggregation_phase(
            self.mapping, root, phase_name=f"aggregate{self.aggregates}"
        )
        self.aggregates += 1

    @rule()
    def save(self):
        self.saved = self.snapshot()

    @rule(which=st.sampled_from(["assignment", "routes"]), saved=st.booleans())
    def rebind(self, which, saved):
        assignment, routes = self.saved if saved else self.snapshot()
        setattr(self.mapping, which, assignment if which == "assignment" else routes)

    @precondition(lambda self: self.mapping.routes)
    @rule(i=st.integers(0, 200), how=st.sampled_from(["del", "pop", "popitem"]))
    def drop_route(self, i, how):
        routes = self.mapping.routes
        if how == "del":
            del routes[self.route_key(i)]
        elif how == "pop":
            routes.pop(self.route_key(i))
        else:
            routes.popitem()

    @rule()
    def clear_routes(self):
        self.mapping.routes.clear()

    @rule(task=st.sampled_from(TASKS))
    def unassign(self, task):
        self.mapping.assignment.pop(task, None)

    @rule(task=st.sampled_from(TASKS), proc=st.sampled_from(PROCS))
    def reassign_if_missing(self, task, proc):
        self.mapping.assignment.setdefault(task, proc)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @rule(model=st.sampled_from(MODELS))
    def simulate_matches(self, model):
        m = self.mapping
        got = outcome(simulate, m, model)
        assert got == outcome(simulate_uncached, m, model)
        assert got == outcome(simulate, m.copy(), model)

    @rule(model=st.sampled_from(MODELS), phases=st.sampled_from(STEPS))
    def step_cost_matches(self, model, phases):
        m = self.mapping
        got = outcome(step_cost, m, model, phases)
        assert got == outcome(step_cost, m.copy(), model, phases)
        if phases is None and self.valid():
            assert got == simulate_uncached(m, model).total_time

    @rule(model=st.sampled_from(MODELS))
    def analyze_matches(self, model):
        m = self.mapping
        got = outcome(analyze, m, model)
        assert got == outcome(analyze, m.copy(), model)
        if not raised(got):
            expected = MappingMetrics()
            phase_link_metrics_reference(m, expected)
            assert got.phase_links == expected.phase_links
            assert got.total_ipc == expected.total_ipc
            assert got.estimated_completion_time == (
                simulate_uncached(m, model).total_time
            )


MappingEdits.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None, derandomize=True
)
TestMappingEdits = MappingEdits.TestCase
