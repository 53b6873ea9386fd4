"""The staged pipeline: configs, stage registry, engine, artifact cache."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch import networks
from repro.graph import families
from repro.mapper import NotApplicableError
from repro.pipeline import (
    ArtifactCache,
    MapConfig,
    RunConfig,
    SimConfig,
    all_stages,
    default_portfolio,
    get_stage,
    get_strategy,
    run_pipeline,
    stage_names,
    strategy_names,
)
from repro.resilience import FaultSet
from repro.sim import CostModel

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# configs
# ----------------------------------------------------------------------

def test_runconfig_roundtrip():
    config = RunConfig(
        map=MapConfig(strategy="mwm", load_bound=3, refine=True),
        sim=SimConfig(hop_latency=2.0, byte_time=0.5, switching="cut_through"),
        stages=("contract", "embed", "route"),
        cache=False,
    )
    assert RunConfig.from_dict(config.to_dict()) == config
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    assert RunConfig.from_dict({}) == RunConfig()


def test_configs_hashable():
    assert len({RunConfig(), RunConfig(), RunConfig(cache=False)}) == 2
    assert MapConfig() == MapConfig(strategy="auto")


def test_config_unknown_keys_raise():
    with pytest.raises(ValueError, match="unknown RunConfig keys"):
        RunConfig.from_dict({"mapp": {}})
    with pytest.raises(ValueError, match="unknown MapConfig keys"):
        RunConfig.from_dict({"map": {"strat": "mwm"}})
    with pytest.raises(ValueError, match="unknown SimConfig keys"):
        SimConfig.from_dict({"hop": 1})
    # The removed simulator / METRICS knobs are unknown keys like any other.
    for removed in ({"sim": {"kernel": "auto"}}, {"sim": {"memoize": True}},
                    {"analyze": {"kernel": "vector"}}):
        with pytest.raises(ValueError, match="unknown (Sim|Run)Config keys"):
            RunConfig.from_dict(removed)


def test_config_validation():
    with pytest.raises(ValueError):
        MapConfig(load_bound=0)
    with pytest.raises(ValueError):
        SimConfig(switching="wormhole")
    with pytest.raises(ValueError):
        SimConfig(hop_latency=-1.0)
    with pytest.raises(ValueError):
        RunConfig(stages=())


@pytest.mark.parametrize("doc,key", [
    ({"sim": {"hop_latency": "x"}}, "hop_latency"),
    ({"sim": {"byte_time": True}}, "byte_time"),
    ({"sim": {"exec_time": None}}, "exec_time"),
    ({"map": {"load_bound": "3"}}, "load_bound"),
    ({"map": {"load_bound": True}}, "load_bound"),
    ({"cache": "false"}, "cache"),
    ({"cache": 0}, "cache"),
    ({"stages": "route"}, "stages"),
    ({"stages": ["route", 3]}, "stages"),
    ({"sim": "fast"}, "SimConfig"),
    ({"map": ["mwm"]}, "MapConfig"),
    ({"map": {"load_bound": 2.5}}, "load_bound must be an integer"),
    # 2 and 2.0 are equal configs that digested to two cache keys
    ({"map": {"load_bound": 2.0}}, "load_bound must be an integer"),
])
def test_config_wrong_typed_values_raise_naming_the_key(doc, key):
    with pytest.raises(ValueError, match=key):
        RunConfig.from_dict(doc)


def test_simconfig_model_roundtrip():
    model = CostModel(hop_latency=2.0, byte_time=0.25, exec_time=0.5,
                      switching="cut_through")
    assert SimConfig is CostModel  # one class; a run config holds the model
    assert RunConfig(sim=model).sim is model
    assert SimConfig.from_dict(model.to_dict()) == model


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------

def test_stage_registry_contents():
    assert stage_names() == (
        "contract", "embed", "refine", "route", "simulate", "analyze"
    )
    assert all(s.description for s in all_stages())
    with pytest.raises(ValueError, match="unknown pipeline stage"):
        get_stage("compile")


def test_strategy_registry_is_single_source_of_truth():
    assert strategy_names() == ("canned", "group", "mwm", "multilevel")
    # multilevel is opt-in: by name only, never via auto or the portfolio.
    assert default_portfolio() == ("canned", "group", "mwm", "mwm+refine")
    assert get_strategy("mwm").refinable
    assert not get_strategy("multilevel").auto
    assert not get_strategy("multilevel").portfolio
    with pytest.raises(ValueError, match="unknown strategy"):
        get_strategy("anneal")


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

def test_run_pipeline_full_run():
    result = run_pipeline(
        families.ring(16), networks.hypercube(3), RunConfig(cache=False)
    )
    assert result.strategy == "canned"
    assert result.stages == (
        "contract", "embed", "refine", "route", "simulate", "analyze"
    )
    assert set(result.stage_seconds) == set(result.stages)
    assert result.sim.total_time > 0
    assert result.completion_time == result.sim.total_time
    assert result.metrics.estimated_completion_time == result.sim.total_time
    assert result.routing_rounds == result.mapping.routing_rounds
    assert result.routing_rounds  # per-phase rounds, non-empty
    assert not result.cache_hit


def test_run_pipeline_partial_stages():
    result = run_pipeline(
        families.ring(16),
        networks.hypercube(3),
        RunConfig(stages=("contract", "embed"), cache=False),
    )
    assert result.mapping.routes == {}
    assert result.sim is None and result.metrics is None
    assert result.completion_time is None


def test_run_pipeline_rejects_ill_ordered_stages():
    with pytest.raises(ValueError, match="requires"):
        run_pipeline(
            families.ring(16),
            networks.hypercube(3),
            RunConfig(stages=("route", "contract"), cache=False),
        )
    with pytest.raises(ValueError, match="never built a mapping"):
        run_pipeline(
            families.ring(16),
            networks.hypercube(3),
            RunConfig(stages=("contract",), cache=False),
        )


def test_run_pipeline_forced_strategy_propagates_not_applicable():
    from repro.graph.taskgraph import TaskGraph

    tg = TaskGraph("irregular")  # no family -> no canned entry
    for i in range(5):
        tg.add_node(i)
    phase = tg.add_comm_phase("p")
    for src, dst in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]:
        phase.add(src, dst, 1.0)
    with pytest.raises(NotApplicableError):
        run_pipeline(
            tg,
            networks.hypercube(3),
            RunConfig(map=MapConfig(strategy="canned"), cache=False),
        )


def test_run_pipeline_with_faults_targets_degraded_machine():
    faults = FaultSet.proc(5)
    result = run_pipeline(
        families.ring(16),
        networks.hypercube(3),
        RunConfig(stages=("contract", "embed", "refine", "route"), cache=False),
        faults=faults,
    )
    assert 5 not in result.mapping.used_procs()
    assert result.mapping.topology.n_processors == 7


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------

def test_cache_memory_and_disk_tiers(tmp_path):
    cache = ArtifactCache(str(tmp_path / "store"))
    tg, topo = families.ring(16), networks.hypercube(3)
    config = RunConfig()

    cold = run_pipeline(tg, topo, config, cache=cache)
    assert not cold.cache_hit

    warm = run_pipeline(tg, topo, config, cache=cache)
    assert warm.cache_hit and warm.cache_tier == "memory"
    assert warm.mapping.assignment == cold.mapping.assignment
    assert warm.sim.total_time == cold.sim.total_time
    assert warm.cache_key == cold.cache_key

    # Evict the memory tier: the disk tier serves, then re-promotes.
    cache.clear()
    disk = run_pipeline(tg, topo, config, cache=cache)
    assert disk.cache_hit and disk.cache_tier == "disk"
    assert disk.mapping.assignment == cold.mapping.assignment
    again = run_pipeline(tg, topo, config, cache=cache)
    assert again.cache_tier == "memory"


def test_cache_distinguishes_inputs(tmp_path):
    cache = ArtifactCache(str(tmp_path / "store"))
    base = run_pipeline(
        families.ring(16), networks.hypercube(3), RunConfig(), cache=cache
    )
    for tg, topo, config, faults in [
        (families.ring(15), networks.hypercube(3), RunConfig(), None),
        (families.ring(16), networks.mesh(2, 4), RunConfig(), None),
        (families.ring(16), networks.hypercube(3),
         RunConfig(map=MapConfig(strategy="mwm")), None),
        (families.ring(16), networks.hypercube(3), RunConfig(),
         FaultSet.proc(0)),
    ]:
        result = run_pipeline(tg, topo, config, faults=faults, cache=cache)
        assert not result.cache_hit
        assert result.cache_key != base.cache_key


def test_cache_hit_returns_mutation_safe_mapping(tmp_path):
    """Every hit is decoded from the stored bytes: what its caller does to
    the mapping, graph, machine, sim or metrics never reaches the next
    hit, whichever tier served it, with or without a disk tier."""
    tg, topo = families.ring(16), networks.hypercube(3)

    def contents(r):
        return (r.mapping.provenance, dict(r.mapping.assignment),
                r.mapping.task_graph.n_tasks,
                dict(r.mapping.topology.link_slowdowns),
                list(r.sim.step_times), dict(r.sim.phase_time),
                dict(r.metrics.tasks_per_processor), dict(r.metrics.map_counters))

    disk, memory_only = ArtifactCache(str(tmp_path / "store")), ArtifactCache()
    for cache, tier in ((disk, "memory"), (disk, "disk"), (memory_only, "memory")):
        run_pipeline(tg, topo, RunConfig(), cache=cache)
        if tier == "disk":
            cache.clear()  # the file is the only copy
        first = run_pipeline(tg, topo, RunConfig(), cache=cache)
        assert first.cache_tier == tier
        expected = contents(first)
        first.mapping.provenance += "+vandalised"
        first.mapping.assignment[0] = 999
        first.mapping.task_graph.add_node("intruder", 1.0)
        first.mapping.topology.link_slowdowns[0] = 99.0
        first.sim.step_times.append(1e9)
        first.sim.phase_time["intruder"] = 1.0
        first.metrics.tasks_per_processor[0] = 999
        first.metrics.map_counters["intruder"] = 1

        second = run_pipeline(tg, topo, RunConfig(), cache=cache)
        assert second.cache_tier == "memory"
        assert second.mapping.provenance == "canned"
        assert contents(second) == expected
        assert "intruder" not in second.mapping.task_graph.nodes


@pytest.mark.parametrize("on_disk", [True, False], ids=["disk", "memory-only"])
def test_unpicklable_value_is_stored_nowhere(tmp_path, on_disk):
    """``put`` pickles before either tier takes the value: one that cannot
    be pickled raises and is then a miss, not a memory-only entry."""
    directory = tmp_path / "store"
    cache = ArtifactCache(str(directory) if on_disk else None)
    with pytest.raises(Exception, match="pickle"):
        cache.put("k", lambda: None)
    assert cache.get("k") is None
    assert len(cache) == 0 and "k" not in cache
    assert cache.stats()["puts"] == 0
    assert not on_disk or not list(directory.glob("*"))


@pytest.mark.parametrize("on_disk", [True, False], ids=["disk", "memory-only"])
def test_memory_tier_retains_about_the_pickled_bytes(tmp_path, on_disk):
    """The memory tier holds each entry as its pickled envelope: N results
    retain about their pickled size, not their live object graphs."""
    import pickle
    import tracemalloc

    from repro.larcs import stdlib

    blobs = [
        pickle.dumps(run_pipeline(stdlib.load("jacobi", rows=r, cols=8),
                                  networks.mesh(4, 4), RunConfig()))
        for r in range(4, 12)
    ]
    cache = ArtifactCache(str(tmp_path / "store") if on_disk else None)
    pickle.loads(blobs[0])  # first-decode costs (interned names) are not the store's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i, blob in enumerate(blobs):
            cache.put(f"k{i}", pickle.loads(blob))  # the live result dies here
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(cache) == len(blobs)
    assert held <= 1.25 * sum(len(b) for b in blobs)


def test_cache_survives_process_restart(tmp_path):
    """A second *process* gets a disk hit for work done by the first."""
    store = str(tmp_path / "store")
    script = (
        "import json\n"
        "from repro.arch import networks\n"
        "from repro.graph import families\n"
        "from repro.pipeline import ArtifactCache, RunConfig, run_pipeline\n"
        f"cache = ArtifactCache({store!r})\n"
        "r = run_pipeline(families.ring(16), networks.hypercube(3),"
        " RunConfig(), cache=cache)\n"
        "print(json.dumps({'hit': r.cache_hit, 'tier': r.cache_tier,"
        " 'time': r.sim.total_time}))\n"
    )

    def run(seed):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": seed,
                 "PATH": "/usr/bin:/bin"},
        )
        return json.loads(proc.stdout)

    first = run("11")
    second = run("7777")  # different process AND different hash seed
    assert first == {"hit": False, "tier": None, "time": first["time"]}
    assert second == {"hit": True, "tier": "disk", "time": first["time"]}


def test_cache_corrupted_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(str(tmp_path / "store"))
    tg, topo = families.ring(16), networks.hypercube(3)
    cold = run_pipeline(tg, topo, RunConfig(), cache=cache)
    cache.clear()  # drop memory so the disk file is the only copy
    for entry in (tmp_path / "store").glob("*.pkl"):
        entry.write_bytes(b"not a pickle")
    recomputed = run_pipeline(tg, topo, RunConfig(), cache=cache)
    assert not recomputed.cache_hit
    assert recomputed.mapping.assignment == cold.mapping.assignment


def test_cache_old_schema_envelope_is_a_miss_and_overwritten(tmp_path):
    """An envelope from before a pickle-layout change sits under a key
    that is still live (keys did not move): it must read as a miss, never
    be served, and be replaced by the recomputed result."""
    from repro import io
    from repro.pipeline import pipeline_key
    from repro.pipeline.cache import CACHE_SCHEMA

    cache = ArtifactCache(str(tmp_path / "store"))
    tg, topo = families.ring(16), networks.hypercube(3)
    key, _ = pipeline_key(tg, topo, RunConfig())
    path = tmp_path / "store" / f"{key}.pkl"
    io.save_artifact({"schema": 2, "key": key, "result": "stale"}, str(path))

    assert CACHE_SCHEMA == 4
    assert cache.get(key) is None
    recomputed = run_pipeline(tg, topo, RunConfig(), cache=cache)
    assert not recomputed.cache_hit and recomputed.cache_key == key
    envelope = io.load_artifact(str(path))
    assert envelope["schema"] == CACHE_SCHEMA
    assert envelope["result"].sim.total_time == recomputed.sim.total_time
    cache.clear()
    assert run_pipeline(tg, topo, RunConfig(), cache=cache).cache_tier == "disk"


def test_pickles_carry_content_not_derived_caches():
    """Cache entries, checkpoints and worker result pipes all pickle
    results: the CSR view, the task index and the machine's tables are
    rebuilt on demand, not shipped."""
    import pickle

    import numpy as np

    from repro.larcs import stdlib

    tg, topo = stdlib.load("jacobi", rows=8, cols=8), networks.mesh(4, 4)
    result = run_pipeline(tg, topo, RunConfig(cache=False))
    tg.task_index(), tg.comm_phase_names, tg.fingerprint()
    assert tg._csr_cache and tg._index_cache and tg._name_cache
    # The simulator reads index paths through the pair table; the label
    # API's route cache fills when called.
    procs = topo.processors
    topo.route_link_ids(topo.shortest_routes(procs[0], procs[5])[0])
    assert topo._next_hop_table and topo._route_links_cache
    assert topo._pair_links is not None
    bare = stdlib.load("jacobi", rows=8, cols=8)
    bare.fingerprint()  # a digest: it travels
    assert len(pickle.dumps(tg)) == len(pickle.dumps(bare))
    payload = pickle.dumps(result)
    # one matrix row, one CSR index array: neither travels
    assert topo.distance_matrix()[0].tobytes() not in payload
    assert tg.csr().indices.tobytes() not in payload

    back = pickle.loads(payload)
    tg2, topo2 = back.mapping.task_graph, back.mapping.topology
    assert tg2._csr_cache is tg2._index_cache is tg2._name_cache is None
    assert topo2._pair_links is None and not topo2._route_links_cache
    assert tg2.fingerprint() == tg.fingerprint()
    assert topo2.fingerprint() == topo.fingerprint()
    assert tg2.task_index() == tg.task_index()
    assert tg2.comm_phase_names == tg.comm_phase_names
    for name in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(tg2.csr(), name), getattr(tg.csr(), name))
    assert np.array_equal(topo2.distance_matrix(), topo.distance_matrix())
    assert topo2.next_hop_links(0, 15) == topo.next_hop_links(0, 15)
    route = back.mapping.routes[next(iter(back.mapping.routes))]
    assert topo2.route_link_ids(route) == topo.route_link_ids(route)
    again = run_pipeline(tg2, topo2, RunConfig(cache=False))
    assert again.mapping.assignment == result.mapping.assignment
    assert again.mapping.routes == result.mapping.routes
    assert again.sim.total_time == result.sim.total_time == back.sim.total_time


def test_entry_written_by_the_parent_commit_is_a_disk_hit(tmp_path):
    """``tests/data/artifact_pr17.pkl`` is what PR 18's parent put on disk
    for the first pinned request -- ``_csr_cache``, ``_dist_matrix`` and
    ``_next_hop_table`` included.  Same schema, same key: still served."""
    import pickle
    import shutil

    from repro.metrics import comm_cost
    from repro.pipeline import pipeline_key
    from repro.serve.protocol import parse_map_request
    from repro.sim.engine import simulate
    from tests.data import capture_cold_path as pinned

    data = Path(pinned.__file__).parent
    key = json.loads((data / "cold_path_pr17.json").read_text())["artifact_key"]
    shutil.copy(data / "artifact_pr17.pkl", tmp_path / f"{key}.pkl")
    request = parse_map_request(next(iter(pinned.request_bodies().values())))
    assert pipeline_key(request.tg, request.topology, request.config)[0] == key

    cache = ArtifactCache(str(tmp_path))
    served = run_pipeline(request.tg, request.topology, request.config, cache=cache)
    assert served.cache_hit and served.cache_tier == "disk"
    assert served.mapping.task_graph._csr_cache is not None  # as the parent wrote it
    fresh = run_pipeline(request.tg, request.topology, request.config)
    assert served.mapping.assignment == fresh.mapping.assignment
    assert served.mapping.routes == fresh.mapping.routes
    assert served.sim.total_time == fresh.sim.total_time
    # The content decodes too, not only the stored results: every edge's
    # dict state is read by field name.
    decoded = served.mapping.task_graph
    assert list(decoded.comm_phases) == list(request.tg.comm_phases)
    for name, phase in request.tg.comm_phases.items():
        assert [(e.src, e.dst, e.volume) for e in decoded.comm_phase(name).edges] \
            == [(e.src, e.dst, e.volume) for e in phase.edges]
    # The parent shipped its CSR view: comm_cost reads edges only once the
    # entry is pickled again without it.
    restored = pickle.loads(pickle.dumps(served.mapping))
    for mapping in (served.mapping, restored):
        assert comm_cost(mapping) == comm_cost(fresh.mapping)
    assert simulate(served.mapping.copy(), request.config.sim).total_time \
        == fresh.sim.total_time
    # The memory tier now holds the file's bytes: the next hit decodes them.
    again = run_pipeline(request.tg, request.topology, request.config, cache=cache)
    assert again.cache_tier == "memory" and again is not served
    assert again.mapping.assignment == served.mapping.assignment
    assert again.mapping.routes == served.mapping.routes
    assert again.sim.total_time == served.sim.total_time
    # and it is re-stored without the caches it arrived with
    cache.put(key, served)
    assert (tmp_path / f"{key}.pkl").stat().st_size < (data / "artifact_pr17.pkl").stat().st_size


def test_closing_validate_is_not_a_second_walk(monkeypatch):
    """The simulate stage validates the mapping it runs; ``run_pipeline``
    walks it again only when no simulate stage vouched for this object."""
    from repro.mapper.mapping import Mapping

    calls = []
    real = Mapping.validate
    monkeypatch.setattr(
        Mapping, "validate",
        lambda self, **kw: calls.append(kw) or real(self, **kw),
    )
    tg, topo = families.ring(16), networks.hypercube(3)
    result = run_pipeline(tg, topo, RunConfig(cache=False))
    assert calls == [{"require_routes": True}]  # simulate's
    del calls[:]
    run_pipeline(tg, topo, RunConfig(
        stages=("contract", "embed", "route"), cache=False))
    assert calls == [{"require_routes": True}]
    del calls[:]
    run_pipeline(tg, topo, RunConfig(stages=("contract", "embed"), cache=False))
    assert calls == [{"require_routes": False}]
    # The memo is simulate's, not validate's: a route corrupted in place
    # is caught by the next explicit validate().
    key = next(k for k, r in result.mapping.routes.items() if len(r) > 1)
    result.mapping.routes[key] = [result.mapping.routes[key][0]] * 2
    with pytest.raises(ValueError, match="not a network path"):
        result.mapping.validate()


def test_cache_lru_eviction():
    cache = ArtifactCache(capacity=2)  # memory-only
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == (1, "memory")  # refresh a
    cache.put("c", 3)  # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == (1, "memory")
    assert cache.get("c") == (3, "memory")


def test_cache_env_knobs(tmp_path, monkeypatch):
    from repro.pipeline import cache_dir, default_cache, reset_default_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "knob"))
    reset_default_cache()
    assert cache_dir() == str(tmp_path / "knob")
    assert default_cache().directory == str(tmp_path / "knob")

    monkeypatch.setenv("REPRO_CACHE", "off")
    reset_default_cache()
    assert default_cache() is None
    # Disabled default cache -> every run recomputes.
    r1 = run_pipeline(families.ring(16), networks.hypercube(3), RunConfig())
    r2 = run_pipeline(families.ring(16), networks.hypercube(3), RunConfig())
    assert not r1.cache_hit and not r2.cache_hit
    assert r1.cache_key is None

    reset_default_cache()


def test_default_cache_used_between_runs(capsys):
    """``run_pipeline`` without a store computes every time and writes
    nothing; ``repro map`` hands it the default store, so a second run in
    the same ``REPRO_CACHE_DIR`` (a new process's default) is a disk hit."""
    from repro.cli import main
    from repro.pipeline import cache_dir, default_cache, reset_default_cache

    r1 = run_pipeline(families.ring(16), networks.hypercube(3), RunConfig())
    r2 = run_pipeline(families.ring(16), networks.hypercube(3), RunConfig())
    assert not r1.cache_hit and not r2.cache_hit
    assert r1.cache_key is None and r2.cache_key is None
    assert not list(Path(cache_dir()).glob("*.pkl"))

    argv = ["map", "nbody", "--bind", "n=15", "--topology", "hypercube:3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    reset_default_cache()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    stats = default_cache().stats()
    assert (stats["hits_disk"], stats["misses"]) == (1, 0)
    assert len(list(Path(cache_dir()).glob("*.pkl"))) == 1


def test_result_to_dict_is_json_compatible():
    result = run_pipeline(
        families.ring(16), networks.hypercube(3), RunConfig(cache=False)
    )
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["format"] == "oregami-pipeline-result-v1"
    assert payload["strategy"] == "canned"
    assert payload["sim"]["total_time"] == result.sim.total_time
    assert payload["mapping"]["format"] == "oregami-mapping-v1"
    assert payload["config"]["map"]["strategy"] == "auto"
    assert set(payload["stage_seconds"]) == set(result.stages)
