"""One machine grammar: every front door resolves a spec string the same way.

``tests/data/machine_specs_pr37.json`` was captured by
``tests/data/capture_machine_specs.py`` before the hierarchy generator
specs joined ``repro.arch.networks``'s spec table; never regenerate it to
make a test pass.  Each pinned spec must build the same machine (name,
processor count, fingerprint) through the library, both CLI flags and
both ``/v1/map`` members.
"""

import json
from pathlib import Path

import pytest

from repro.arch.hierarchy import MachineSpec, parse_machine
from repro.arch.networks import parse_topology, spec_processors
from repro.cli import _resolve_machine, build_parser, main
from repro.serve.protocol import ProtocolError, parse_map_request
from tests.data import capture_machine_specs as capture

_PINNED = json.loads(
    (Path(capture.__file__).parent / "machine_specs_pr37.json").read_text()
)


def _summary(topo) -> dict:
    return {
        "name": topo.name,
        "n_processors": topo.n_processors,
        "fingerprint": topo.fingerprint(),
    }


def _cli(flag: str, spec: str):
    args = build_parser().parse_args(["map", "dnc", "--bind", "m=3", flag, spec])
    return _resolve_machine(args)


def _request(member: str, spec: str):
    body = {"program": "dnc", "bind": {"m": 3}, member: spec}
    return parse_map_request(json.dumps(body).encode()).topology


_ENTRY_POINTS = {
    "parse_topology": parse_topology,
    "parse_machine": parse_machine,
    "MachineSpec": lambda s: MachineSpec(kind="topology", params={"spec": s}).build(),
    "cli --topology": lambda s: _cli("--topology", s),
    "cli --machine": lambda s: _cli("--machine", s),
    "/v1/map topology": lambda s: _request("topology", s),
    "/v1/map machine": lambda s: _request("machine", s),
}


def test_the_golden_covers_every_family():
    families = {spec.partition(":")[0].lower() for spec in _PINNED}
    assert families == {
        "ring", "linear", "mesh", "torus", "hypercube", "complete", "star",
        "tree", "ccc", "butterfly", "fat_tree", "dragonfly", "node_core_tree",
    }
    assert sorted(_PINNED) == sorted(capture.SPECS)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("spec", sorted(_PINNED))
def test_every_entry_point_builds_the_pinned_machine(spec, entry):
    topo = _ENTRY_POINTS[entry](spec)
    assert _summary(topo) == _PINNED[spec]
    assert spec_processors(spec) == _PINNED[spec]["n_processors"]


_WRONG_ARITY = ["mesh:4x4x9", "hypercube:3x100", "ring:8x3", "dragonfly:3"]


@pytest.mark.parametrize("member", ["topology", "machine"])
@pytest.mark.parametrize("spec", _WRONG_ARITY)
def test_v1_map_refuses_a_wrong_number_of_sizes(spec, member):
    with pytest.raises(ProtocolError, match="bad topology spec") as info:
        _request(member, spec)
    assert info.value.status == 400


@pytest.mark.parametrize("flag", ["--topology", "--machine"])
@pytest.mark.parametrize("spec", _WRONG_ARITY)
def test_cli_refuses_a_wrong_number_of_sizes(spec, flag, capsys):
    argv = ["map", "jacobi", "--bind", "rows=4", "cols=4", flag, spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "bad topology spec" in captured.err
    assert "mapped" not in captured.out
