"""Capture one online-session checkpoint in the full-snapshot layout.

Run once against the PARENT of the delta-checkpoint change (commit
9377786), whose every checkpoint is a full snapshot; the committed files
hold later checkouts to resuming such a journal:

    PYTHONPATH=src python tests/data/capture_session_journal.py

* ``session_journal_snapshot.pkl`` -- the disk-tier file ``ArtifactCache.put``
  wrote for the checkpoint taken after ``RESUMED_AT`` events;
* ``session_journal_snapshot.json`` -- its cache key (the file's stem), the
  session key, and the trace and mapping fingerprints of the
  uninterrupted session.
"""
import json
import shutil
import tempfile
from pathlib import Path

from repro.arch import networks
from repro.larcs import stdlib
from repro.online import MappingSession, SessionConfig, generate_scenario
from repro.pipeline.cache import ArtifactCache

HERE = Path(__file__).parent
SEED = 33
N_EVENTS = 20
RESUMED_AT = 13


def instance():
    """The session ``tests/test_online_chaos.py`` kills and resumes."""
    tg = stdlib.load("jacobi", rows=3, cols=3)
    topology = networks.mesh(2, 3)
    scenario = generate_scenario(tg, topology, seed=SEED, n_events=N_EVENTS)
    config = SessionConfig(drift_threshold=0.15, clear_threshold=0.02,
                           cooldown_events=2)
    return tg, topology, scenario, config


def capture() -> dict:
    tg, topology, scenario, config = instance()
    directory = tempfile.mkdtemp()
    cache = ArtifactCache(directory)
    session = MappingSession(tg, topology, config, cache=cache)
    keys = []
    for event in scenario.events:
        before = {p.name for p in Path(directory).glob("*.pkl")}
        session.apply(event)
        (new,) = {p.name for p in Path(directory).glob("*.pkl")} - before
        keys.append(new[:-len(".pkl")])
    report = session.report()
    key = keys[RESUMED_AT - 1]
    shutil.copy(Path(directory, f"{key}.pkl"), HERE / "session_journal_snapshot.pkl")
    shutil.rmtree(directory)
    return {
        "seed": SEED,
        "n_events": N_EVENTS,
        "resumed_at": RESUMED_AT,
        "cache_key": key,
        "session_key": report.session_key,
        "trace_fingerprint": report.trace_fingerprint,
        "final_mapping_fingerprint": report.final_mapping_fingerprint,
    }


if __name__ == "__main__":
    path = HERE / "session_journal_snapshot.json"
    path.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} and {HERE / 'session_journal_snapshot.pkl'}")
