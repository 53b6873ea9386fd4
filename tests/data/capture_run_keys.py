"""Capture every key the dispatch/config layer mints, before it was folded.

Run once against the PARENT of the PR that made ``CostModel`` the only
cost-model class and the stage/strategy registries two tables (commit
356ab57); the committed file pins every config digest to it:

    PYTHONPATH=src python -m tests.data.capture_run_keys

``run_keys_pr21.json`` holds:

``fingerprints``
    ``RunConfig.fingerprint()`` over strategy x ``load_bound`` in {None, 2}
    x ``refine`` in {False, True, "kl", "delta_gain"} x four cost models
    (both switching modes) x the four stage prefixes in use.
``to_dict``
    The ``to_dict()`` JSON text of every distinct ``MapConfig`` and cost
    model of that grid, and of the ``RunConfig`` of every (model, prefix).
``pipeline_keys``
    ``pipeline_key`` of six instances under non-default configs (the
    default-config keys are in ``cold_path_pr17.json``), one with faults.
``requests``
    ``protocol.request_key`` of four ``/v1/map`` bodies, with the pipeline
    key and config text each parses to.

Configs are built from their dict form only, which both sides of the
change accept.
"""
import itertools
import json
from pathlib import Path

from repro.pipeline import RunConfig, pipeline_key
from repro.resilience import FaultSet
from repro.serve.protocol import parse_map_request, request_key

from tests.data.capture_cold_path import GRAPHS, TOPOLOGIES

HERE = Path(__file__).parent

STRATEGIES = ("auto", "canned", "group", "mwm", "multilevel")
LOAD_BOUNDS = (None, 2)
REFINES = (False, True, "kl", "delta_gain")
MODELS = {
    "default": {},
    "cut_through": {"byte_time": 0.5, "switching": "cut_through"},
    "slow_hops": {"hop_latency": 2.0, "byte_time": 0.25, "exec_time": 3.0},
    "ints_cut_through": {"hop_latency": 0, "byte_time": 2, "exec_time": 1,
                         "switching": "cut_through"},
}
_ALL = ("contract", "embed", "refine", "route", "simulate", "analyze")
PREFIXES = {n: list(_ALL[:n]) for n in (3, 4, 5, 6)}

INSTANCES = [
    ("ring16", "hypercube3", {"map": {"strategy": "mwm", "refine": "kl"}}, None),
    ("torus4x4", "mesh2x4", {"map": {"load_bound": 2}, "stages": PREFIXES[4]}, None),
    ("larcs_jacobi4x4", "mesh2x4", {"sim": MODELS["cut_through"]}, None),
    ("exec_costs", "node_core_tree2x2",
     {"map": {"strategy": "multilevel"}, "sim": MODELS["slow_hops"]}, None),
    ("mixed_costs", "mesh2x4_slowed",
     {"map": {"refine": "delta_gain"}, "stages": PREFIXES[5]}, None),
    ("larcs_pipeline8", "hypercube3", {"cache": False},
     {"failed_procs": [3], "degraded_links": {(0, 1): 2.0}}),
]

REQUESTS = {
    "defaults": {
        "program": "nbody", "bind": {"n": 15}, "topology": "hypercube:3",
    },
    "mwm_refined_cut_through": {
        "program": "jacobi", "bind": {"rows": 4, "cols": 4, "msize": 2},
        "topology": "mesh:2x2",
        "config": {"map": {"strategy": "mwm", "refine": True},
                   "sim": MODELS["cut_through"]},
    },
    "bounded_mapping_only": {
        "program": "dnc", "bind": {"m": 3}, "machine": "node_core_tree:2x2",
        "config": {"map": {"load_bound": 2}, "stages": PREFIXES[4],
                   "cache": False},
    },
    "group_with_faults": {
        "program": "fft", "bind": {"m": 3}, "topology": "hypercube:3",
        "config": {"map": {"strategy": "group"}, "sim": MODELS["slow_hops"]},
        "faults": {"format": "oregami-faultset-v1", "failed_links": [[0, 1]]},
    },
}


def grid():
    """``(cell name, RunConfig dict)`` for every cell of the grid."""
    for strategy, bound, refine, model, n in itertools.product(
        STRATEGIES, LOAD_BOUNDS, REFINES, MODELS, PREFIXES
    ):
        yield f"{strategy}|{bound}|{refine!r}|{model}|{n}", {
            "map": {"strategy": strategy, "load_bound": bound, "refine": refine},
            "sim": MODELS[model],
            "stages": PREFIXES[n],
        }


def _text(obj) -> str:
    return json.dumps(obj.to_dict())


def capture() -> dict:
    fingerprints, texts = {}, {}
    for name, doc in grid():
        config = RunConfig.from_dict(doc)
        fingerprints[name] = config.fingerprint()
        strategy, bound, refine, model, n = name.split("|")
        texts.setdefault(f"map:{strategy}|{bound}|{refine}", _text(config.map))
        texts.setdefault(f"sim:{model}", _text(config.sim))
        if (strategy, bound, refine) == ("auto", "None", "False"):
            texts[f"run:{model}|{n}"] = _text(config)

    keys = {}
    for graph, machine, doc, faults in INSTANCES:
        key, prints = pipeline_key(
            GRAPHS[graph](), TOPOLOGIES[machine](), RunConfig.from_dict(doc),
            FaultSet(**faults) if faults else None,
        )
        keys[f"{graph}/{machine}"] = {"key": key, "fingerprints": prints}

    requests = {}
    for name, body in REQUESTS.items():
        request = parse_map_request(json.dumps(body).encode())
        key, _ = pipeline_key(
            request.tg, request.topology, request.config, request.faults
        )
        requests[name] = {
            "request_key": request_key(body),
            "pipeline_key": key,
            "config": _text(request.config),
        }
    return {
        "fingerprints": fingerprints,
        "to_dict": texts,
        "pipeline_keys": keys,
        "requests": requests,
    }


if __name__ == "__main__":
    path = HERE / "run_keys_pr21.json"
    path.write_text(json.dumps(capture(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {path}")
