"""What stays out of the import graph of ``src/repro``.

networkx: no mapping strategy, baseline, CLI command, server or session
needs it; the four conversion views (``TaskGraph.static_graph``,
``TaskGraph.phase_digraph``, ``Topology.graph``, ``is_node_symmetric``)
import it on the spot.  A module-level ``import networkx`` creeping back
costs every CLI start ~0.12 s and ~12 MB, and fails the first test here.

``repro.cli``: the argparse front end is a leaf.  The spec grammar lives
in ``repro.arch.networks``; the machine model and the service import it
from there, not from the CLI (second test).

scipy: a paper-scale machine gets its distance matrix from the in-tree
breadth-first search, so the one-shot CLI, a session event and a
``/v1/map`` miss all finish without ``import scipy.sparse`` (0.15-0.25 s
and ~20 MB once per process, libcrypto's 3.5 MB through ``hashlib``
included).  A random geometric graph finds its pairs on an in-tree cell
grid, so building one, mapping it and simulating the mapping does without
``scipy.spatial`` (another 32 MB).  All three scripts fail when any
``scipy`` module was loaded.

hashlib: ``import hashlib`` loads ``_hashlib``, which maps OpenSSL's
libcrypto (+3.6 MB ``VmHWM`` in a fresh interpreter).  Fingerprints hash
with the interpreter's built-in SHA-256 instead (``repro.util.fingerprint``),
so the one-shot CLI, a generated session and a pipeline run never load
``_hashlib``; the fourth script fails when one does, naming the modules
that hold ``hashlib``.

numpy.random: it imports nine extension modules and ``secrets`` ->
``hmac`` -> ``hashlib`` (+6 MB ``VmHWM`` together after ``numpy``).  The
seeded families draw from ``repro.util.rng``'s in-tree PCG64 stream
instead, so building a random geometric graph and a Kronecker graph,
mapping and simulating loads neither ``numpy.random`` nor ``_hashlib``;
the third script fails when either is loaded.  One importer of libcrypto
stays, outside ``src/repro``: ``http.server`` -> ``http.client`` ->
``ssl``, which ``repro serve`` reaches.
"""

import os
import subprocess
import sys

import networkx as nx

from repro.arch import networks
from repro.graph import families
from repro.graph.properties import is_node_symmetric
from tests.oracles.topology_reference import TopologyReference

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _run_fresh(script: str, tmp_path) -> None:
    """*script* in a fresh interpreter over ``src``; it exits 0 or says why."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": SRC,
            "PATH": "/usr/bin:/bin",
            "REPRO_CACHE_DIR": str(tmp_path),
        },
    )
    assert proc.returncode == 0, proc.stderr

_SCRIPT = """
import contextlib, io, sys

import repro.cli, repro.serve.server, repro.online
from repro.arch import networks
from repro.graph import families
from repro.online import Arrival, MappingSession

with contextlib.redirect_stdout(io.StringIO()) as out:
    code = repro.cli.main([
        "map", "jacobi", "--bind", "rows=8", "cols=8",
        "--topology", "mesh:4x4", "--simulate",
    ])
assert not code and "completion" in out.getvalue().lower(), out.getvalue()

session = MappingSession(families.ring(6), networks.mesh(2, 3))
record = session.apply(Arrival(task="new", edges=(("ring", 0, "new", 2.0),)))
assert record.action == "placed"

if "networkx" in sys.modules:
    sys.exit("networkx imported by: " + repr(sorted(
        name for name, mod in sys.modules.items()
        if name.startswith("repro") and hasattr(mod, "nx")
    )))
sys.exit("scipy imported: " + repr(sorted(
    name for name in sys.modules if name.split(".")[0] == "scipy"
)[:5]) if "scipy" in sys.modules else 0)
"""


def test_cli_server_and_session_never_import_networkx(tmp_path):
    _run_fresh(_SCRIPT, tmp_path)


_LEAF_SCRIPT = """
import json, sys

import repro.serve.server
from repro.arch.hierarchy import parse_machine
from repro.pipeline import run_pipeline
from repro.serve.protocol import parse_map_request, render_result

request = parse_map_request(json.dumps(
    {"program": "dnc", "bind": {"m": 3}, "topology": "mesh:2x2"}
).encode())
assert request.topology.n_processors == 4
assert parse_machine("fat_tree:2x2").n_processors == 4
# What a /v1/map miss runs: the whole pipeline, then the response body.
result = run_pipeline(request.tg, request.topology, request.config)
assert result.sim.total_time > 0 and render_result(result, fingerprints={})

if "repro.cli" in sys.modules:
    sys.exit("repro.cli was imported")
sys.exit("scipy was imported" if "scipy" in sys.modules else 0)
"""


def test_server_and_machine_model_never_import_the_cli(tmp_path):
    _run_fresh(_LEAF_SCRIPT, tmp_path)


_RGG_SCRIPT = """
import sys

from repro.arch import networks
from repro.graph import families
from repro.mapper import map_computation
from repro.sim import simulate

tg = families.random_geometric(2000, seed=1)
assert families.kron(8).n_edges > 0
assert simulate(map_computation(tg, networks.torus(8, 8))).total_time > 0
loaded = sorted({"scipy", "numpy.random", "_hashlib"} & sys.modules.keys())
sys.exit("loaded: " + repr(loaded) if loaded else 0)
"""


def test_random_geometric_map_and_simulate_never_import_scipy(tmp_path):
    _run_fresh(_RGG_SCRIPT, tmp_path)


_HASHLIB_SCRIPT = """
import contextlib, io, sys

import repro.cli
from repro.arch import networks
from repro.larcs import stdlib
from repro.online import MappingSession, generate_scenario
from repro.pipeline import run_pipeline

with contextlib.redirect_stdout(io.StringIO()) as out:
    code = repro.cli.main([
        "map", "jacobi", "--bind", "rows=8", "cols=8",
        "--topology", "mesh:4x4", "--simulate",
    ])
assert not code and "completion" in out.getvalue().lower(), out.getvalue()

tg, machine = stdlib.load("jacobi", rows=8, cols=8), networks.hypercube(5)
scenario = generate_scenario(tg, machine, seed=1, n_events=60)
assert len(MappingSession(tg, machine).run(scenario.events).records) == 60

result = run_pipeline(stdlib.load("fft", m=6), networks.hypercube(4))
assert result.sim.total_time > 0

if "_hashlib" in sys.modules:
    sys.exit("_hashlib imported by: " + repr(sorted(
        name for name, mod in sys.modules.items()
        if getattr(mod, "hashlib", None) is sys.modules.get("hashlib")
    )))
"""


def test_cli_session_and_pipeline_never_load_libcrypto(tmp_path):
    _run_fresh(_HASHLIB_SCRIPT, tmp_path)


def test_conversion_views_return_what_they_returned():
    tg = families.ring(4, volume=2.0)
    tg.comm_phase("ring").add(1, 0, 3.0)  # antiparallel: folds onto (0, 1)
    tg.comm_phase("ring").add(2, 2, 9.0)  # self-loop: dropped
    static = tg.static_graph()
    assert type(static) is nx.Graph
    assert list(static.nodes(data="weight")) == [(i, 1.0) for i in range(4)]
    assert list(static.edges(data="weight")) == [
        (0, 1, 5.0), (0, 3, 2.0), (1, 2, 2.0), (2, 3, 2.0),
    ]
    assert static is not tg.static_graph()  # a conversion, not a cache

    phase = tg.phase_digraph("ring")
    assert type(phase) is nx.DiGraph and list(phase.nodes) == [0, 1, 2, 3]
    assert list(phase.edges(data="volume")) == [
        (0, 1, 2.0), (1, 2, 2.0), (1, 0, 3.0), (2, 3, 2.0), (2, 2, 9.0),
        (3, 0, 2.0),
    ]

    topo = networks.torus(3, 4)
    g = topo.graph
    assert type(g) is nx.Graph and list(g.nodes) == topo.processors
    assert [frozenset(e) for e in g.edges] == topo.links
    edges = [tuple(link) for link in topo.links]
    assert nx.utils.graphs_equal(g, TopologyReference("t", edges)._graph)
    g.remove_node(topo.processors[0])  # a copy: the machine is untouched
    assert topo.n_processors == 12 and len(topo.graph) == 12

    assert is_node_symmetric(families.ring(6)) is True
    assert is_node_symmetric(families.star(4)) is False
