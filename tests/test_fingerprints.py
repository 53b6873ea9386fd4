"""Stable content fingerprints (repro.util.fingerprint + the three inputs).

The artifact cache is only sound if fingerprints are (a) identical across
processes regardless of ``PYTHONHASHSEED`` -- otherwise the disk tier
never hits after a restart -- and (b) sensitive to every semantic change
-- otherwise it serves wrong answers.  Both properties are tested here,
(a) by spawning subprocesses under forced different hash seeds.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch import networks
from repro.graph import families
from repro.graph.taskgraph import TaskGraph
from repro.pipeline import ArtifactCache, MapConfig, RunConfig, SimConfig, pipeline_key
from repro.resilience import FaultSet
from repro.serve import protocol
from repro.util.fingerprint import (
    LabelTable,
    canonical_json,
    sha256,
    sort_encoded,
    stable_digest,
)
from tests.data import capture_cold_path as pinned

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Emits one JSON line of fingerprints for a representative input set:
# tuple-labelled graphs and topologies (torus/mesh), plain-int ones
# (ring/hypercube), a fault set mixing procs/links/degradations, and a
# non-default RunConfig.
_FINGERPRINT_SCRIPT = """
import json
from repro.arch import networks
from repro.graph import families
from repro.pipeline import MapConfig, RunConfig, run_pipeline, pipeline_key
from repro.resilience import FaultSet

tg = families.torus(4, 4)
topo = networks.mesh(2, 4)
faults = FaultSet(
    failed_procs=[(0, 1)],
    failed_links=[((0, 0), (1, 0))],
    degraded_links={((0, 2), (1, 2)): 2.5},
)
config = RunConfig(map=MapConfig(strategy="mwm", load_bound=3, refine=True))
key, _ = pipeline_key(families.ring(16), networks.hypercube(3), RunConfig())
print(json.dumps({
    "graph_tuple": tg.fingerprint(),
    "graph_int": families.ring(16).fingerprint(),
    "topo_tuple": topo.fingerprint(),
    "topo_int": networks.hypercube(3).fingerprint(),
    "faults": faults.fingerprint(),
    "config": config.fingerprint(),
    "pipeline_key": key,
}))
"""


def _fingerprints_under_seed(seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return json.loads(proc.stdout)


def test_fingerprints_identical_across_hash_seeds():
    a = _fingerprints_under_seed("1")
    b = _fingerprints_under_seed("4242")
    assert a == b
    # And the current process (whatever its seed) agrees too.
    assert a["graph_int"] == families.ring(16).fingerprint()
    assert a["topo_int"] == networks.hypercube(3).fingerprint()


def test_fingerprint_equal_content_equal_digest():
    assert families.ring(16).fingerprint() == families.ring(16).fingerprint()
    assert networks.mesh(2, 4).fingerprint() == networks.mesh(2, 4).fingerprint()
    f1 = FaultSet(failed_links=[(0, 1)], degraded_links={(2, 3): 2.0})
    f2 = FaultSet(failed_links=[(1, 0)], degraded_links=[((3, 2), 2.0)])
    assert f1.fingerprint() == f2.fingerprint()


def test_taskgraph_fingerprint_sensitivity():
    base = families.ring(16).fingerprint()

    light = TaskGraph("g")
    heavy = TaskGraph("g")
    light.add_node("x", 1.0)
    heavy.add_node("x", 7.0)
    assert light.fingerprint() != heavy.fingerprint()

    renamed = families.ring(16)
    renamed.name = "other"
    assert renamed.fingerprint() != base

    extra_edge = families.ring(16)
    extra_edge.comm_phase("ring").add(0, 8, 1.0)
    assert extra_edge.fingerprint() != base

    assert families.ring(15).fingerprint() != base


def test_taskgraph_fingerprint_tracks_mutation_after_caching():
    tg = families.ring(16)
    before = tg.fingerprint()
    tg.comm_phase("ring").add(0, 8, 1.0)
    assert tg.fingerprint() != before


def test_taskgraph_fingerprint_tracks_phase_expr():
    tg = families.ring(16)
    before = tg.fingerprint()
    tg.phase_expr = None
    assert tg.fingerprint() != before


@pytest.mark.parametrize("attribute, value", [
    ("family", None),
    ("family", ("ring", (9,))),
    ("name", "renamed"),
    ("node_symmetric_hint", False),  # the ring generator says True
])
def test_taskgraph_fingerprint_tracks_plain_attributes(attribute, value):
    """``stdlib.load`` and the CLI assign ``family`` after construction; a
    digest memoized before that must not outlive it (the dispatcher maps
    a ``family=None`` ring differently: not canned)."""
    tg = families.ring(8)
    before = tg.fingerprint()
    setattr(tg, attribute, value)
    fresh = families.ring(8)
    setattr(fresh, attribute, value)
    assert tg.fingerprint() == fresh.fingerprint() != before


def test_taskgraph_fingerprint_volume_and_cost_sensitivity():
    a = TaskGraph("g")
    b = TaskGraph("g")
    for g in (a, b):
        g.add_node("x")
        g.add_node("y")
    a.add_comm_phase("p").add("x", "y", 1.0)
    b.add_comm_phase("p").add("x", "y", 2.0)
    assert a.fingerprint() != b.fingerprint()

    c = TaskGraph("g")
    d = TaskGraph("g")
    for g in (c, d):
        g.add_node("x")
        g.add_node("y")
        g.add_comm_phase("p").add("x", "y", 1.0)
    c.add_exec_phase("e", 1.0)
    d.add_exec_phase("e", 1.0, {"x": 5.0})
    assert c.fingerprint() != d.fingerprint()


def test_topology_fingerprint_sensitivity():
    base = networks.hypercube(3).fingerprint()
    assert networks.hypercube(2).fingerprint() != base
    assert networks.mesh(2, 4).fingerprint() != base

    # A degraded machine fingerprints differently from the pristine one,
    # and differently per slowdown factor.
    topo = networks.hypercube(3)
    cut = topo.degrade(FaultSet(degraded_links={(0, 1): 2.0}))
    worse = topo.degrade(FaultSet(degraded_links={(0, 1): 4.0}))
    assert cut.fingerprint() != topo.fingerprint()
    assert cut.fingerprint() != worse.fingerprint()


def test_faultset_fingerprint_sensitivity():
    base = FaultSet(failed_procs=[1]).fingerprint()
    assert FaultSet(failed_procs=[2]).fingerprint() != base
    assert FaultSet(failed_procs=[1, 2]).fingerprint() != base
    assert FaultSet(failed_links=[(1, 2)]).fingerprint() != base
    assert FaultSet().fingerprint() != base
    assert (
        FaultSet(degraded_links={(1, 2): 2.0}).fingerprint()
        != FaultSet(degraded_links={(1, 2): 3.0}).fingerprint()
    )


def test_runconfig_fingerprint_sensitivity_and_cache_neutrality():
    base = RunConfig().fingerprint()
    assert RunConfig(map=MapConfig(strategy="mwm")).fingerprint() != base
    assert RunConfig(sim=SimConfig(hop_latency=2.0)).fingerprint() != base
    assert RunConfig(stages=("contract", "embed")).fingerprint() != base
    # The cache switch changes what is *stored*, not what is computed.
    assert RunConfig(cache=False).fingerprint() == base


# Digests captured at the commit before the simulator / METRICS knobs
# (``memoize``, ``kernel``, ``AnalyzeConfig``) were removed.  Their frozen
# defaults are still digested (``repro.pipeline.config``), so every cache
# entry, journal and session checkpoint written before the removal keeps
# its address.
_PINNED_MODEL = dict(byte_time=0.5, switching="cut_through")


def test_pinned_runconfig_fingerprints():
    assert RunConfig().fingerprint() == (
        "75374e24671765f7eee1ff5da1a3d76c2e8b93236333289af1f764f64749f2ee"
    )
    config = RunConfig(
        map=MapConfig(strategy="mwm", refine="kl"),
        sim=SimConfig(**_PINNED_MODEL),
    )
    assert config.fingerprint() == (
        "5cfd726fbe7b812dd7fb28fb3e630b1d892acf19257bbe75c0c5b1a343290574"
    )
    key, _ = pipeline_key(families.ring(16), networks.hypercube(3), RunConfig())
    assert key == (
        "1efe16f80f416da5eaf530fcd00342076389f14ec835bc39761ab8adb258ce47"
    )


def test_pinned_session_and_run_keys(tmp_path, monkeypatch):
    """The keys that embed the cost model: the online session's, and the
    journal run keys of the portfolio and the failure sweep, observed where
    they reach the journal (``resume_journal``'s lookup of ``journal_for``
    in its own module)."""
    import repro.runtime.journal
    from repro.mapper import map_computation
    from repro.mapper.portfolio import run_portfolio
    from repro.online import MappingSession
    from repro.resilience import failure_sweep
    from repro.sim import CostModel

    run_keys = []
    real_journal_for = repro.runtime.journal.journal_for

    def recording_journal_for(run_key, cache=None):
        run_keys.append(run_key)
        return real_journal_for(run_key, cache)

    monkeypatch.setattr(
        repro.runtime.journal, "journal_for", recording_journal_for
    )

    tg = families.ring(8)
    topo = networks.hypercube(3)
    model = CostModel(**_PINNED_MODEL)
    cache = ArtifactCache(directory=str(tmp_path))

    session = MappingSession(tg, topo, model=model, cache=cache)
    assert session.session_key == (
        "65ab9923e31d90532130e5331224916cd304c4acd8fc0ad3dbe356a4ad973fa5"
    )
    run_keys.clear()
    run_portfolio(tg, topo, strategies=("mwm", "canned"), model=model,
                  resume="auto", cache=cache)
    failure_sweep(tg, topo, mapping=map_computation(tg, topo), model=model,
                  resume="auto", cache=cache)
    assert run_keys == [
        "8f9da937031f601efdeda4f517ee9eb290c2dce2240fe0b2d31ccd8de67d6b99",
        "3ff1e5bdc9f3cbbddadbbad7d44c93ea41f1b5c2164b009878646054a2b417d2",
    ]


# Digests, keys and artifacts recorded at PR 18's parent by
# ``tests/data/capture_cold_path.py``: the label table, the shared encoders
# and the cache-free pickles must address every stored entry as before.
PINNED = json.loads(Path(pinned.__file__).with_name("cold_path_pr17.json").read_text())


@pytest.mark.parametrize("name", pinned.GRAPHS)
def test_pinned_taskgraph_fingerprints(name):
    assert pinned.GRAPHS[name]().fingerprint() == PINNED["graphs"][name]


@pytest.mark.parametrize("name", pinned.TOPOLOGIES)
def test_pinned_topology_fingerprints(name):
    topo = pinned.TOPOLOGIES[name]()
    assert topo.fingerprint() == PINNED["topologies"][name]
    assert topo.structural_key() == PINNED["structural_keys"][name]


@pytest.mark.parametrize("graph, machine", pinned.KEYS)
def test_pinned_pipeline_keys(graph, machine):
    key, _ = pipeline_key(
        pinned.GRAPHS[graph](), pinned.TOPOLOGIES[machine](), RunConfig()
    )
    assert key == PINNED["pipeline_keys"][f"{graph}/{machine}"]


def test_every_key_captured_at_pr21_is_reproduced():
    """``run_keys_pr21.json`` was written at the parent of the change that
    made ``CostModel`` the config's ``sim`` section and the registries two
    tables: 640 config digests, their ``to_dict`` texts, six pipeline keys
    and four parsed requests, all through the dict form both sides accept."""
    from tests.data import capture_run_keys

    recorded = json.loads(
        Path(capture_run_keys.__file__).with_name("run_keys_pr21.json").read_text()
    )
    assert len(recorded["fingerprints"]) == 640
    assert capture_run_keys.capture() == recorded


def test_mixed_cost_texts_are_digested_as_written():
    """``1``, ``1.0`` and ``True`` are one dict key and three JSON texts: a
    memo from cost to text would digest whichever came first."""
    def graph(costs):
        tg = TaskGraph("g")
        tg.add_nodes(range(3))
        tg.add_exec_phase("work", 1.0, costs)
        return tg

    digests = {
        graph({0: a, 1: b, 2: c}).fingerprint()
        for a in (1, 1.0, True) for b in (1, 1.0, True) for c in (1, 1.0, True)
    }
    assert len(digests) == 27
    # insertion order of the cost dict is canonicalised away, as before
    assert graph({0: 1, 1: 1.0, 2: True}).fingerprint() == graph(
        {2: True, 0: 1, 1: 1.0}
    ).fingerprint()


def test_label_table_encodes_each_label_once():
    table = LabelTable()
    first = table[(1, (2, "x"))]
    assert first == [1, [2, "x"]] and table[(1, (2, "x"))] is first
    assert table[7] == 7 and table["name"] == "name"
    assert len(table) == 3


def test_fingerprint_helpers():
    assert canonical_json({"b": 1, "a": (1,)}) == canonical_json({"a": [1], "b": 1})
    # Order is by canonical JSON text -- deterministic is what matters,
    # not numeric ("[10]" < "[1]" because "0" < "]").
    assert sort_encoded([[2], [10], [1]]) == [[10], [1], [2]]
    assert sort_encoded([[2], [10], [1]]) == sort_encoded([[1], [2], [10]])
    d1 = stable_digest({"a": 1})
    assert d1 == stable_digest({"a": 1})
    assert d1 != stable_digest({"a": 2})
    with pytest.raises(ValueError):
        stable_digest(float("nan"))


@pytest.mark.parametrize("payload", [
    {},
    {"name": "Jacobi–Gauß 网格", "labels": ["π", "∞"]},
    {"edges": [[i, i + 1, 0.5 * i] for i in range(48_000)]},  # ~1 MB
], ids=["empty", "non-ascii", "1mb"])
def test_digests_are_hashlib_sha256(payload):
    """The built-in SHA-256 the fingerprints use is hashlib's, bit for bit."""
    text = canonical_json(payload).encode("utf-8")
    assert stable_digest(payload) == hashlib.sha256(text).hexdigest()
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert protocol.request_key(payload) == hashlib.sha256(body).hexdigest()
    raw = repr(payload).encode("utf-8")  # non-ASCII bytes, unescaped
    assert sha256(raw).hexdigest() == hashlib.sha256(raw).hexdigest()
