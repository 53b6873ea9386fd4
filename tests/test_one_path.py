"""One path per algorithm: no public callable selects an implementation.

NN-Embed, MM-Route, METRICS and the simulator each have one
implementation: the simulator's step solver is its event loop, with no
second engine, size rule or engine counter beside it.  This guard keeps a
selection knob from growing back on the public surface.

The same holds for the runtime's plumbing: one bounded LRU
(:class:`repro.util.lru.BoundedLRU`) and one counter bag
(:class:`repro.util.perf.PerfRegistry`), which the serve layer uses
instead of defining its own; and for LaRCS, whose expressions one code
generator gives meaning to.

And for capacity: it belongs to the machine (``topology.capacities``), not
to a mode.  No config field or parameter turns the vectors off, and one
ledger (:class:`repro.arch.capacity.Headroom`) owns the feasibility
tolerance for every placement-known reaction.

And for MAPPER's dispatch and the run config: Fig 3 is a table
(``repro.mapper.dispatch.STRATEGIES``) nothing registers into at run time,
the six stages are another, ``CostModel`` is the only cost-model class, and
the stage list, the switching modes and the resume modes are each spelled
in one module.

And for supervision: ``repro.runtime`` reads ``REPRO_CHAOS``, validates
``resume=``, builds the journal and turns a retry count into a
``RetryPolicy``; the fan-outs keep only the payload of their run key, and
one module-level worker runs a pipeline under it.

And for the artifact cache's disk tier: its directory is its only index,
with no second copy of sizes or recency to drift.  And for the store a run
uses: a library call reads and writes only the cache it is handed, and
only the ``repro`` front doors in ``cli.py`` read the process default.

And for batching: many instances under one config are one
``run_supervised(pipeline_task, ...)`` call, the one ``repro run`` and the
serving batcher make; only product paths call ``run_supervised``.

And for scipy: two kernels import it, on the spot, and nothing else does.

And for machine strings: ``repro.arch.networks``'s spec table is the one
grammar, every hierarchy family is a row of it, and each family's
processor count is written once.

And for routes: every router hands over per-phase index arrays in a
``RouteTable``; none files a label list per edge.  A mapping's routes are
that table however they were bound, and only ``mapper/mapping.py`` names
the assignment's ``StampedDict``.

And for SHA-256: ``repro.util.fingerprint`` picks the constructor once;
no other module imports ``hashlib`` or a built-in hash module.

And for random numbers: the seeded graph families draw from
``repro.util.rng``'s PCG64 stream; no other module names ``numpy.random``.

And for HTTP: the server's own framing layer is the one HTTP stack; no
module imports ``http.server`` or ``http.client``.
"""

import ast
import dataclasses
import inspect
import json
import re
import shutil
from pathlib import Path

import pytest

import repro.mapper
import repro.metrics
import repro.pipeline
import repro.serve.server
import repro.sim
from repro.cli import main

PACKAGES = (repro.mapper, repro.sim, repro.metrics, repro.pipeline)
SELECTION_PARAMETERS = {
    "kernel", "sim_kernel", "memoize", "capacity_mode", "check_capacities",
}


def _signatures(obj):
    """Signatures of *obj* and, for a class, of its public methods."""
    targets = [obj]
    if inspect.isclass(obj):
        targets += [
            member for name, member in inspect.getmembers(obj, callable)
            if not name.startswith("_")
        ]
    for target in targets:
        try:
            yield target, inspect.signature(target)
        except (TypeError, ValueError):  # builtins without signatures
            continue


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_no_exported_callable_takes_a_selection_parameter(package):
    exported = [getattr(package, name) for name in package.__all__]
    assert any(callable(obj) for obj in exported)
    offenders = [
        f"{getattr(target, '__qualname__', target)}({param})"
        for obj in exported if callable(obj)
        for target, signature in _signatures(obj)
        for param in signature.parameters
        if param in SELECTION_PARAMETERS
    ]
    assert offenders == []


def test_a_long_run_records_no_engine_choice():
    """300 repetitions of a ring: the step memo counts, and no counter
    says which engine ran or that one fell back to another."""
    from repro.arch import networks
    from repro.graph import families
    from repro.graph.phase_expr import Rep
    from repro.mapper import map_computation
    from repro.util import perf

    tg = families.ring(16)
    tg.phase_expr = Rep(tg.phase_expr, 300)
    mapping = map_computation(tg, networks.mesh(2, 4))
    steps = tg.phase_expr.linearize()
    perf.reset()
    repro.sim.simulate(mapping)
    counters = perf.counters()
    assert counters["sim.step_cache_miss"] == len(set(steps))
    assert counters["sim.step_cache_hit"] == len(steps) - len(set(steps))
    assert [name for name in counters
            if re.match(r"sim\.(kernel|vector)_", name)] == []


def test_cli_map_has_no_kernel_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3",
              "--simulate", "--kernel", "auto"])
    assert info.value.code == 2
    assert "--kernel" in capsys.readouterr().err


def test_one_module_imports_ordereddict():
    root = Path(repro.__file__).parent
    users = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if re.search(r"\bOrderedDict\b", path.read_text())
    )
    assert users == ["util/lru.py"]


def test_serve_server_owns_no_lru_stats_class_or_lock():
    assert not hasattr(repro.serve.server, "_LRUStore")
    assert not hasattr(repro.serve.server, "_ServerStats")
    assert "Lock(" not in inspect.getsource(repro.serve.server)


def test_one_larcs_evaluator_and_the_interpreter_is_only_an_oracle():
    """Expressions are given meaning in one place, the code generator;
    the tree-walking interpreter lives in ``tests/oracles`` and nothing
    shipped imports it."""
    root = Path(repro.__file__).parent
    sources = {
        str(path.relative_to(root)): path.read_text() for path in root.rglob("*.py")
    }
    walkers = sorted(name for name, text in sources.items() if "isinstance(expr, ast" in text)
    assert walkers == ["larcs/codegen.py"]
    importers = sorted(
        name for name, text in sources.items()
        if re.search(r"^\s*(from|import)\s+tests\b", text, re.MULTILINE)
    )
    assert importers == []


def test_map_config_has_no_capacity_switch():
    from repro.pipeline import MapConfig, RunConfig

    names = [f.name for f in dataclasses.fields(MapConfig)]
    assert names == ["strategy", "load_bound", "refine"]
    with pytest.raises(ValueError, match="capacity_mode"):
        RunConfig.from_dict({"map": {"capacity_mode": "ignore"}})


def test_capacity_mode_in_a_request_is_a_400_and_an_exit_2(tmp_path, capsys):
    from repro.serve.protocol import ProtocolError, parse_map_request

    with pytest.raises(ProtocolError, match="capacity_mode") as info:
        parse_map_request({
            "program": "nbody", "bind": {"n": 15}, "topology": "hypercube:3",
            "config": {"map": {"capacity_mode": "ignore"}},
        })
    assert info.value.status == 400
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"map": {"capacity_mode": "ignore"}}))
    assert main(["run", "nbody", "--bind", "n=15", "--topology",
                 "hypercube:3", "--config", str(config)]) == 2
    assert "capacity_mode" in capsys.readouterr().err


def test_artifact_written_with_the_capacity_mode_field_still_loads(tmp_path):
    """``artifact_pr17.pkl`` pickled a ``MapConfig`` that had the field; the
    stray attribute is inert, so the schema did not need to move."""
    from repro.pipeline import ArtifactCache, run_pipeline
    from repro.pipeline.cache import CACHE_SCHEMA
    from repro.serve.protocol import parse_map_request
    from tests.data import capture_cold_path as pinned

    assert CACHE_SCHEMA == 4
    data = Path(pinned.__file__).parent
    key = json.loads((data / "cold_path_pr17.json").read_text())["artifact_key"]
    shutil.copy(data / "artifact_pr17.pkl", tmp_path / f"{key}.pkl")
    request = parse_map_request(next(iter(pinned.request_bodies().values())))
    served = run_pipeline(
        request.tg, request.topology, request.config,
        cache=ArtifactCache(str(tmp_path)),
    )
    assert served.cache_hit and served.cache_tier == "disk"
    assert vars(served.config.map)["capacity_mode"] == "strict"  # as pickled
    assert served.config.map == request.config.map
    assert set(served.config.map.to_dict()) == {"strategy", "load_bound", "refine"}


def test_one_module_owns_the_capacity_tolerance():
    """``_TOL`` is ``arch/capacity``'s alone: the offline array kernels ask
    the index-space ``Headroom`` instead of comparing vectors themselves."""
    root = Path(repro.__file__).parent
    users = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if re.search(r"\b_TOL\b", path.read_text())
    )
    assert users == ["arch/capacity.py"]


def test_no_kernel_forks_on_a_missing_capacity():
    """Every (graph, machine) pair has a ``CapacityContext``; R = 0 is told
    apart in ``arch/capacity.py`` only."""
    root = Path(repro.__file__).parent
    fork = re.compile(
        r"\b(capacity|capacities|dem|dem0|capv|loadv|gload|okpair|feas)"
        r"\s+is\s+(not\s+)?None"
    )
    forks = [
        f"{path.relative_to(root)}:{number}"
        for package in ("mapper", "pipeline")
        for path in sorted((root / package).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if fork.search(line)
    ]
    assert forks == []


def test_a_function_given_a_machine_reads_its_capacities():
    """No capacity argument beside a topology: the machine's vectors are
    not something a caller can leave out."""
    root = Path(repro.__file__).parent
    both = [
        f"{path.relative_to(root)}:{node.name}"
        for path in sorted((root / "mapper").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and {"topology", "capacity"} <= {
            a.arg for a in node.args.args + node.args.kwonlyargs
        }
    ]
    assert both == []


def _sources() -> dict[str, str]:
    root = Path(repro.__file__).parent
    return {
        str(path.relative_to(root)): path.read_text() for path in root.rglob("*.py")
    }


def _modules_matching(pattern: str) -> list[str]:
    return sorted(
        name for name, text in _sources().items() if re.search(pattern, text)
    )


def test_one_cost_model_class():
    """``SimConfig`` is ``CostModel`` under the name stored artifacts spell,
    not a mirror of it: nothing converts between the two."""
    assert repro.pipeline.SimConfig is repro.sim.CostModel
    assert repro.pipeline.RunConfig().sim == repro.sim.CostModel()
    assert _modules_matching(r"from_model|\.cost_model\(") == []


def test_no_run_time_registry():
    assert _modules_matching(
        r"register_stage|register_strategy|_ensure_strategies"
    ) == []
    assert not hasattr(repro.pipeline, "register_stage")
    assert not hasattr(repro.pipeline, "register_strategy")


def test_the_strategy_table_is_the_rank_order():
    from repro.mapper.dispatch import STRATEGIES
    from repro.pipeline import default_portfolio, get_strategy, strategy_names

    assert tuple(s.name for s in STRATEGIES) == strategy_names()
    assert all(get_strategy(s.name) is s for s in STRATEGIES)
    assert default_portfolio() == ("canned", "group", "mwm", "mwm+refine")
    assert [s.name for s in repro.pipeline.all_stages()] == list(
        repro.pipeline.DEFAULT_STAGES
    )


def test_stage_list_and_mode_tuples_are_spelled_once():
    assert _modules_matching(r'"contract", "embed", "refine"') == [
        "pipeline/config.py"
    ]
    assert _modules_matching(r'"store_and_forward", "cut_through"') == [
        "sim/model.py"
    ]
    assert _modules_matching(r'\("auto", "off"\)') == ["runtime/supervisor.py"]
    assert _modules_matching(r"_RESUME_MODES|_SWITCHING_MODES") == []


# ----------------------------------------------------------------------
# supervision has one home
# ----------------------------------------------------------------------

def _outside_runtime(pattern: str) -> list[str]:
    return [
        name for name in _modules_matching(pattern)
        if not name.startswith("runtime/")
    ]


def test_chaos_resume_journal_and_retry_are_resolved_in_runtime_only():
    assert _outside_runtime(r"plan_from_env\(|RESUME_MODES") == []
    assert _outside_runtime(r"journal_for\(") == ["online/session.py"]
    assert _outside_runtime(r"RetryPolicy\(") == []
    assert _sources()["cli.py"].count('"--executor"') == 1


def test_one_module_level_pipeline_worker():
    """``def f(payload): ... return run_pipeline(<unpacked payload>)``."""
    workers = [
        f"{name}:{node.name}"
        for name, text in _sources().items()
        for node in ast.parse(text).body
        if isinstance(node, ast.FunctionDef)
        and [a.arg for a in node.args.args] == ["payload"]
        and isinstance(node.body[-1], ast.Return)
        and isinstance(node.body[-1].value, ast.Call)
        and getattr(node.body[-1].value.func, "id", None) == "run_pipeline"
    ]
    assert workers == ["pipeline/engine.py:pipeline_task"]


def _echo(payload):
    return payload


def test_run_supervised_reads_the_chaos_knob_itself(monkeypatch):
    from repro.runtime import ChaosPlan, run_supervised

    monkeypatch.setenv("REPRO_CHAOS", '{"crash": [[0, 1]]}')
    crashed, clean = run_supervised(_echo, ["a", "b"])
    assert [a.outcome for a in crashed.attempts] == ["crash"]
    assert not crashed.ok and clean.ok
    explicit = run_supervised(_echo, ["a", "b"], chaos=ChaosPlan())
    assert [r.trace() for r in explicit] == [[(1, "ok", 0.0)]] * 2


def test_a_bad_resume_mode_reads_the_same_everywhere():
    from repro.arch import networks
    from repro.graph import families
    from repro.mapper.portfolio import run_portfolio
    from repro.online import MappingSession
    from repro.resilience import failure_sweep

    tg, topo = families.ring(8), networks.hypercube(3)
    calls = [
        lambda: run_portfolio(tg, topo, resume="maybe"),
        lambda: failure_sweep(tg, topo, resume="maybe"),
        lambda: MappingSession(tg, topo).run([], resume="maybe"),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == (
            "unknown resume mode 'maybe'; choose from ('auto', 'off')"
        )
        assert info.traceback[-1].name == "resume_journal"


# ----------------------------------------------------------------------
# one batch path
# ----------------------------------------------------------------------

def _calls(name: str):
    """``(module:qualified function, Call node)`` for every call of *name*."""
    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, module, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                yield f"{module}:{'.'.join(scope)}", child
            yield from walk(child, module, scope)

    for module, text in sorted(_sources().items()):
        yield from walk(ast.parse(text), module, [])


def test_run_supervised_has_four_callers_all_on_product_paths():
    """A batch is ``run_supervised(pipeline_task, ...)``, the call ``repro run``
    and a cold ``/v1/map`` request make; no library-only fan-out wraps it."""
    callers = sorted({caller for caller, _ in _calls("run_supervised")})
    assert callers == [
        "cli.py:_cmd_run",
        "mapper/portfolio.py:run_portfolio",
        "resilience/sweep.py:failure_sweep",
        "serve/server.py:_Handler._serve_map.compute",
    ]


def test_the_server_calls_the_runtime_without_a_batcher_or_a_sleep():
    """A cold request runs from its own handler thread: no dispatch
    module, and no serving code waits out a window."""
    assert not (Path(repro.__file__).parent / "serve" / "batcher.py").exists()
    sleepers = sorted({
        caller for caller, _ in _calls("sleep") if caller.startswith("serve/")
    })
    assert sleepers == []


def test_only_the_cli_reads_the_default_cache():
    """Each front door hands the process default to the library calls it
    makes; nothing else calls ``default_cache()``."""
    callers = sorted({caller for caller, _ in _calls("default_cache")})
    assert callers == [
        "cli.py:_cmd_map",
        "cli.py:_cmd_online",
        "cli.py:_cmd_resilience",
        "cli.py:_cmd_run",
        "cli.py:_cmd_serve",
    ]


def test_two_journal_run_key_kinds():
    """``resume_journal(resume, cache, lambda: {"kind": ..., ...})``; the
    session's one-argument call only validates the mode."""
    kinds = []
    for caller, call in _calls("resume_journal"):
        if len(call.args) < 3:
            assert not call.keywords, caller
            continue
        payload = call.args[2].body
        fields = dict(zip((ast.literal_eval(k) for k in payload.keys), payload.values))
        kinds.append(ast.literal_eval(fields["kind"]))
    assert sorted(kinds) == ["failure-sweep-run", "portfolio-run"]


def test_the_portfolio_has_one_name_for_its_strategy_list():
    """``default_portfolio()`` is read off the strategy table when called;
    no module-level constant in the portfolio mirrors it."""
    import repro.mapper.portfolio as portfolio
    from repro.pipeline import default_portfolio

    mirrors = [
        name for name, value in vars(portfolio).items()
        if isinstance(value, tuple) and value == default_portfolio()
    ]
    assert mirrors == []


_NO_WORKERS = "max_workers must be >= 1, got 0 (1 means one task at a time)"


def test_portfolio_rejects_zero_workers_like_the_other_fan_outs(capsys):
    from repro.arch import networks
    from repro.graph import families
    from repro.mapper.portfolio import run_portfolio

    with pytest.raises(ValueError) as info:
        run_portfolio(families.ring(8), networks.hypercube(3), max_workers=0)
    assert str(info.value) == _NO_WORKERS
    instance = ["nbody", "--bind", "n=15", "--topology", "hypercube:3"]
    for command in (["run", *instance, "--portfolio", "--resume", "off"],
                    ["resilience", *instance, "--sweep", "processors"]):
        assert main([*command, "--workers", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and _NO_WORKERS in captured.err


@pytest.mark.parametrize("knob, flag", [
    ({"retries": -3}, ["--retries", "-3"]),
    ({"backoff_s": -1.0}, None),
    ({"state_volume": -5.0}, ["--state-volume", "-5"]),
], ids=["retries", "backoff_s", "state_volume"])
def test_session_config_rejects_negative_budgets(knob, flag, capsys):
    from repro.online import SessionConfig
    from repro.serve import protocol

    (key, value), = knob.items()
    needle = re.escape(f"{key} must be >= 0, got {value!r}")
    with pytest.raises(ValueError, match=needle):
        SessionConfig(**knob)
    with pytest.raises(ValueError, match=needle):
        SessionConfig.from_dict(knob)
    body = {"program": "dnc", "bind": {"m": 3}, "topology": "mesh:2x2",
            "session": knob}
    with pytest.raises(protocol.ProtocolError, match=needle) as info:
        protocol.parse_session_request(json.dumps(body).encode())
    assert info.value.status == 400
    if flag is not None:
        assert main(["online", "dnc", "--bind", "m=3", "--topology",
                     "mesh:2x2", "--events", "3", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{key} must be >= 0" in captured.err


def test_session_config_zero_budgets_stay_valid():
    from repro.online import SessionConfig

    config = SessionConfig(retries=0, backoff_s=0.0, state_volume=0.0)
    assert config.canonical_dict()["state_volume"] == 0.0


# ----------------------------------------------------------------------
# the disk tier is its directory
# ----------------------------------------------------------------------

def test_the_disk_tier_keeps_no_index():
    """The cache directory is the disk tier's only index (DESIGN.md §13)."""
    from repro.pipeline import cache
    from repro.pipeline.cache import ArtifactCache

    assert not {"INDEX_SCHEMA", "INDEX_NAME", "_INDEX_FLUSH_S"} & set(vars(cache))
    assert not re.search(r"^\s*(import json|from json )", inspect.getsource(cache),
                         re.MULTILINE)
    assert not hasattr(ArtifactCache(), "_index")


# ----------------------------------------------------------------------
# scipy is loaded only where a kernel needs it
# ----------------------------------------------------------------------

def _scipy_imports(node) -> list:
    return [
        child for child in ast.walk(node)
        if isinstance(child, ast.Import)
        and any(alias.name.split(".")[0] == "scipy" for alias in child.names)
        or isinstance(child, ast.ImportFrom)
        and (child.module or "").split(".")[0] == "scipy"
    ]


def test_scipy_is_imported_inside_two_modules_functions_only():
    """Building a graph (random geometric ones included), mapping it at
    paper scale and simulating it load numpy only.  ``scipy.sparse`` backs
    the delta-gain refiner's products and the all-pairs hops above
    ``_SCIPY_ABOVE`` processors, imported when those run."""
    users, module_level = [], []
    for name, text in _sources().items():
        tree = ast.parse(text)
        found = _scipy_imports(tree)
        local = {
            id(child)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for child in _scipy_imports(function)
        }
        users += [name] if found else []
        module_level += [f"{name}:{c.lineno}" for c in found if id(c) not in local]
    assert module_level == []
    assert sorted(users) == ["arch/topology.py", "mapper/refine.py"]


# ----------------------------------------------------------------------
# a mapping's derived state keys on its edits
# ----------------------------------------------------------------------

def test_no_module_keeps_the_simulator_cache_fresh_by_hand():
    """A mapping's dicts stamp their own writes (``Mapping.edits``) and the
    simulator's one cache entry per mapping -- plan, pricings, validation
    memo -- is rebuilt when they move, so no editor drops anything and
    only ``sim/engine.py`` names the cache."""
    from repro.sim import engine

    assert not hasattr(engine, "forget")
    assert _modules_matching(r"_COMPILED_CACHE") == ["sim/engine.py"]
    assert _modules_matching(r"_sim_validated|\bforget\(") == []
    helpers = [
        f"{name}: {alias.name}"
        for name, text in _sources().items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.sim")
        for alias in node.names
        if re.search(r"forget|invalidat|evict|drop|clear|reset|stale", alias.name)
    ]
    assert helpers == []


# ----------------------------------------------------------------------
# one machine grammar
# ----------------------------------------------------------------------

def test_one_machine_spec_grammar():
    from repro.arch import hierarchy, networks

    assert _modules_matching(r'\.partition\(":"\)') == ["arch/networks.py"]
    assert not hasattr(hierarchy.MachineSpec, "parse")
    assert _modules_matching(r"machine_from_dict|machine_to_dict") == []
    params = {
        "fat_tree": {"arities": [2, 3, 2]},
        "dragonfly": {"groups": 3, "routers": 4},
        "node_core_tree": {"nodes": 3, "cores": 4},
    }
    assert set(params) == set(hierarchy._GENERATORS)
    for kind, (_, sizes) in hierarchy._GENERATORS.items():
        assert kind in networks._TOPOLOGY_BUILDERS
        spec = hierarchy.MachineSpec(kind=kind, params=params[kind])
        text = f"{kind}:" + "x".join(map(str, sizes(params[kind])))
        assert spec.n_processors() == networks.spec_processors(text)
        assert spec.build().fingerprint() == networks.parse_topology(text).fingerprint()


def test_no_router_writes_a_route_per_edge():
    """MM-Route, ``route_edges`` and the baselines build a ``RouteTable``
    from packed arrays; no routing module assigns ``<x>.routes[key]``."""
    writes = []
    for module, text in sorted(_sources().items()):
        if not module.startswith("mapper/routing/"):
            continue
        for node in ast.walk(ast.parse(text)):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            for target in targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "routes"):
                    writes.append(f"{module}:{target.lineno}")
    assert writes == []
    assert sorted(m for m in _sources() if m.startswith("mapper/routing/")) == [
        "mapper/routing/__init__.py", "mapper/routing/baselines.py",
        "mapper/routing/mm_route.py",
    ]


def test_every_way_of_binding_routes_gives_a_route_table(tmp_path):
    """A router, a hand-built dict, ``copy()``, ``copy.deepcopy``, an
    unpickle, an editor's write and undo, an online session's rebind and
    its resume all leave ``Mapping.routes`` a ``RouteTable``."""
    import copy
    import pickle

    from repro.arch import networks
    from repro.graph.taskgraph import TaskGraph
    from repro.larcs import stdlib
    from repro.mapper import map_computation
    from repro.mapper.mapping import Mapping, RouteTable
    from repro.metrics import EditSession
    from repro.online import MappingSession, SessionConfig, generate_scenario
    from repro.pipeline.cache import ArtifactCache

    routed = map_computation(stdlib.load("jacobi", rows=4, cols=4), networks.mesh(2, 2))
    hand = Mapping(routed.task_graph, routed.topology, routed.assignment,
                   dict(routed.routes.items()))
    editor = EditSession(routed.copy())
    task = next(t for t in routed.task_graph.nodes if routed.proc_of(t) != 3)
    editor.move_task(task, 3)
    written = editor.mapping.routes
    editor.undo()

    tg = TaskGraph("ring")
    for i in range(6):
        tg.add_node(i)
    phase = tg.add_comm_phase("ring")
    for i in range(6):
        phase.add(i, (i + 1) % 6)
    tg.add_exec_phase("work")
    events = generate_scenario(tg, networks.mesh(2, 3), seed=21, n_events=12).events
    cache = ArtifactCache(str(tmp_path))
    live = MappingSession(tg, networks.mesh(2, 3), SessionConfig(), cache=cache)
    for event in events[:6]:
        live.apply(event)
    resumed = MappingSession(tg, networks.mesh(2, 3), SessionConfig(), cache=cache)
    assert resumed.run(events, resume="auto").resumed_at == 6

    tables = [routed.routes, hand.routes, routed.copy().routes,
              copy.deepcopy(routed).routes, pickle.loads(pickle.dumps(routed)).routes,
              written, editor.mapping.routes, live.mapping.routes, resumed.mapping.routes]
    assert [type(table) for table in tables] == [RouteTable] * len(tables)


def test_one_module_names_the_stamped_dict_and_packs_paths():
    assert _modules_matching(r"\bStampedDict\b") == ["mapper/mapping.py"]
    packers = _modules_matching(r"\bpack_paths\(")
    assert [m for m in packers
            if m != "mapper/mapping.py" and not m.startswith("mapper/routing/")] == []


def test_one_module_imports_a_sha256():
    """Cache keys, request keys and session traces digest with the
    constructor ``util/fingerprint.py`` picked; a second ``import hashlib``
    would map OpenSSL's libcrypto into every process again."""
    hashers = {"hashlib", "_sha256", "_sha2"}
    importers = sorted(
        name for name, text in _sources().items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Import)
        and any(alias.name in hashers for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module in hashers
    )
    assert set(importers) == {"util/fingerprint.py"}


def test_one_module_names_numpy_random():
    """``numpy.random`` loads nine extension modules and, through
    ``secrets`` -> ``hmac`` -> ``hashlib``, OpenSSL's libcrypto; the seeded
    families draw the same bits from ``util/rng.py`` instead."""
    names = _modules_matching(r"\b(numpy|np)\.random\b")
    assert [name for name in names if name != "util/rng.py"] == []


def test_no_module_imports_the_stdlib_http_stack():
    """``repro serve`` frames HTTP/1.1 itself; ``http.server`` would load
    ``http.client``, and with it ``ssl`` (OpenSSL) and ``email``, into
    every server process again."""
    stack = {"http.server", "http.client"}
    importers = sorted(
        name for name, text in _sources().items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Import)
        and any(alias.name in stack for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (
            node.module in stack or node.module == "http" and any(
                f"http.{alias.name}" in stack for alias in node.names))
    )
    assert importers == []
