"""The legacy entry points are bit-identical shims over the pipeline.

``tests/data/equivalence_pr4.json`` was captured by running
``tests/data/capture_equivalence.py`` against the *pre-pipeline*
implementations of ``map_computation`` / ``run_portfolio`` / ``analyze``.
These tests replay the same (graph family x topology) grid through the
refactored shims and demand byte-equal assignments, routes, portfolio
candidates, and metrics -- the proof that moving every caller onto
``run_pipeline`` changed the architecture and nothing else.

The grid crosses five graph families (ring, torus, hypercube, butterfly,
binomial tree -- exercising the canned, group, and MWM dispatch paths)
with two machines (mesh, hypercube).
"""

import json
from pathlib import Path

import pytest

from repro.arch import networks
from repro.graph import families
from repro.mapper import map_computation, run_portfolio
from repro.metrics import analyze, metrics_to_dict
from repro.pipeline import MapConfig, RunConfig, run_pipeline
from repro.sim import CostModel

GRAPHS = {
    "ring16": lambda: families.ring(16),
    "torus4x4": lambda: families.torus(4, 4),
    "hypercube4": lambda: families.hypercube(4),
    "butterfly16": lambda: families.fft_butterfly(16),
    "binomial_tree4": lambda: families.binomial_tree(4),
}
TOPOLOGIES = {
    "mesh2x4": lambda: networks.mesh(2, 4),
    "hypercube3": lambda: networks.hypercube(3),
}
MODEL = CostModel(hop_latency=1.0, byte_time=0.5, exec_time=0.25)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "equivalence_pr4.json").read_text()
)

GRID = [
    (gname, tname)
    for gname in GRAPHS
    for tname in TOPOLOGIES
]


def enc(x):
    if isinstance(x, tuple):
        return "|".join(str(e) for e in x)
    return str(x)


def _mapping_payload(m):
    return {
        "provenance": m.provenance,
        "assignment": {enc(t): enc(p) for t, p in m.assignment.items()},
        "routes": {
            f"{ph}#{i}": [enc(p) for p in r]
            for (ph, i), r in sorted(m.routes.items())
        },
        "routing_rounds": m.routing_rounds,
    }


@pytest.mark.parametrize("gname,tname", GRID)
def test_map_computation_matches_golden(gname, tname):
    golden = GOLDEN[f"{gname}/{tname}"]
    m = map_computation(GRAPHS[gname](), TOPOLOGIES[tname]())
    got = _mapping_payload(m)
    assert got["provenance"] == golden["provenance"]
    assert got["assignment"] == golden["assignment"]
    assert got["routes"] == golden["routes"]
    assert got["routing_rounds"] == golden["routing_rounds"]


@pytest.mark.parametrize("gname,tname", GRID)
def test_portfolio_matches_golden(gname, tname):
    golden = GOLDEN[f"{gname}/{tname}"]["portfolio"]
    pf = run_portfolio(GRAPHS[gname](), TOPOLOGIES[tname](), model=MODEL)
    assert pf.winner == golden["winner"]
    assert pf.completion_time == golden["completion_time"]
    assert [
        [c.strategy, c.completion_time, c.ok] for c in pf.candidates
    ] == golden["candidates"]


@pytest.mark.parametrize("gname,tname", GRID)
def test_metrics_match_golden(gname, tname):
    golden = GOLDEN[f"{gname}/{tname}"]["metrics"]
    m = map_computation(GRAPHS[gname](), TOPOLOGIES[tname]())
    metrics = analyze(m, MODEL)
    # Round-trip through JSON so float representations compare the same
    # way the golden file stored them.
    got = json.loads(json.dumps(metrics_to_dict(metrics, m)))
    assert got == golden


@pytest.mark.parametrize("gname,tname", GRID)
def test_uniform_capacities_match_golden(gname, tname):
    """Generous uniform capacities leave every assignment bit-identical.

    The capacity-aware code paths run (the machine declares vectors) but
    never bind, so contraction, embedding, and refinement must make
    exactly the choices the scalar-bound implementation made -- the PR 9
    analogue of the PR 4 shim proof.
    """
    from repro.arch.hierarchy import with_capacities

    golden = GOLDEN[f"{gname}/{tname}"]
    tg = GRAPHS[gname]()
    base = TOPOLOGIES[tname]()
    capped = with_capacities(base, {
        "slots": tg.n_tasks,
        "memory": {
            "demand": "weight",
            "cap": float(sum(tg.node_weight(t) for t in tg.nodes)),
        },
    })
    result = run_pipeline(
        tg, capped,
        RunConfig(map=MapConfig(strategy="auto"), cache=False),
    )
    got = _mapping_payload(result.mapping)
    assert got["provenance"] == golden["provenance"]
    assert got["assignment"] == golden["assignment"]
    assert got["routes"] == golden["routes"]


@pytest.mark.parametrize("gname,tname", GRID)
def test_pipeline_agrees_with_shim(gname, tname):
    """The engine run directly gives the same artifacts the shims give."""
    m = map_computation(GRAPHS[gname](), TOPOLOGIES[tname]())
    result = run_pipeline(
        GRAPHS[gname](),
        TOPOLOGIES[tname](),
        RunConfig(
            map=MapConfig(strategy="auto"),
            sim=MODEL,
            cache=False,
        ),
    )
    assert result.mapping.assignment == m.assignment
    assert result.mapping.routes == m.routes
    assert result.strategy == m.provenance
    assert result.sim is not None and result.metrics is not None
