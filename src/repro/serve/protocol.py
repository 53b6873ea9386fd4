"""The ``repro serve`` wire protocol: request parsing and response shaping.

One JSON document in, one JSON document out.  A ``POST /v1/map`` body
names the instance to map -- a stdlib program (plus integer bindings) or
an inline ``repro.io`` task-graph dict -- a topology spec, and optionally
a :class:`~repro.pipeline.RunConfig` dict, a fault set, and a per-request
deadline:

.. code-block:: json

    {
      "program": "jacobi",
      "bind": {"rows": 4, "cols": 4, "msize": 4},
      "topology": "mesh:2x2",
      "config": {"map": {"strategy": "auto"}},
      "deadline_s": 10.0
    }

Responses wrap the ordinary ``oregami-pipeline-result-v1`` document in a
``serving`` envelope.  Crucially, the per-request cache provenance (hit,
tier, key) lives **only** in the envelope: the ``result`` member is
byte-identical whether it was computed cold, served from a cache tier,
or shared through single-flight -- which is what makes repeated load-test
runs bit-comparable.

Errors map onto the structured taxonomy of :mod:`repro.errors`: malformed
requests are 400 with the offending detail, a blown per-request deadline
is 504 (the supervised runtime's :class:`~repro.errors.TaskTimeout`), and
worker crashes / exhausted retries are 500 -- each carrying the error
type, message, CLI-equivalent exit code, and the full attempt history.

The machine is named by exactly one of two members, ``topology`` or
``machine``, which are spellings of one value: a spec string of any
family (``"mesh:4x4"``, ``"fat_tree:4x8"``) or an inline
``oregami-machine-v1`` object.  Either way the machine may have at most
:data:`MAX_PROCESSORS` processors, checked from the spec's integers
before anything is built.

Security note: the server never touches the filesystem on behalf of a
request -- ``program`` must be a stdlib name (no paths), arbitrary
graphs arrive inline as ``task_graph``, and machine files' JSON contents
arrive inline as ``machine``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

from repro import __version__, io
from repro.arch.hierarchy import MachineSpec
from repro.arch.topology import Topology
from repro.errors import (
    EXIT_TIMEOUT,
    RetriesExhausted,
    SupervisionError,
    TaskTimeout,
    exit_code_for,
)
from repro.graph.taskgraph import TaskGraph
from repro.larcs import stdlib
from repro.pipeline import RunConfig
from repro.pipeline.engine import PipelineResult
from repro.util.fingerprint import sha256

__all__ = [
    "MAP_FORMAT",
    "HEALTH_FORMAT",
    "STATS_FORMAT",
    "SESSION_FORMAT",
    "MAX_BODY_BYTES",
    "MAX_PROCESSORS",
    "MAX_TASKS",
    "MAX_EVENTS",
    "ProtocolError",
    "MapRequest",
    "SessionRequest",
    "request_key",
    "parse_map_request",
    "parse_session_request",
    "render_result",
    "map_response",
    "session_response",
    "error_response",
]

#: Response format tags (mirroring the CLI's document formats).
MAP_FORMAT = "oregami-serve-map-v1"
HEALTH_FORMAT = "oregami-serve-health-v1"
STATS_FORMAT = "oregami-serve-stats-v1"
SESSION_FORMAT = "oregami-serve-session-v1"

#: Request-body ceiling; a graph bigger than this should arrive through
#: the batch CLI, not one HTTP request.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Machine-size ceiling.  The body limit bounds what a request *says*, not
#: what a 12-byte spec like ``hypercube:30`` expands to; the all-pairs
#: matrix alone is P**2 entries.  Checked from the spec's integers, before
#: anything is built; the CLI has no such limit.
MAX_PROCESSORS = 16_384

#: Task-graph ceiling, for the same reason: ``"bind": {"rows": 100000,
#: "cols": 100000}`` is 40 bytes.  The LaRCS elaborator checks it from the
#: nodetype ranges before it creates a node, an inline ``task_graph`` is
#: held to it by its node list; six times the largest graph the benchmark
#: maps.  The CLI has no such limit.
MAX_TASKS = 65_536

#: Ceiling on ``generate.events`` in a ``/v1/session`` request, checked
#: before the generator runs: a few bytes of ``"events": 1000000000``
#: would otherwise buy an unbounded generation run outside any deadline.
#: The value is what an inline ``scenario`` could carry: the shortest
#: event, ``{"kind":"departure","task":0}`` and its comma, is 30 bytes,
#: so a :data:`MAX_BODY_BYTES` body holds about 1.1 million; the
#: generator may make as many as the power of two below that.
MAX_EVENTS = 1 << 20

_ALLOWED_KEYS = frozenset(
    {"program", "bind", "task_graph", "topology", "machine", "config",
     "faults", "deadline_s"}
)

_SESSION_KEYS = frozenset(
    {"program", "bind", "task_graph", "topology", "machine",
     "scenario", "generate", "session", "trace"}
)

_GENERATE_KEYS = frozenset(
    {"seed", "events", "rates", "burst_len", "flap_after",
     "max_failed_frac", "name"}
)


#: Built once: ``json.dumps`` with options makes an encoder per call.
_encode_body = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def request_key(body: dict) -> str:
    """A stable digest of one request body's canonical JSON form.

    Whitespace- and key-order-insensitive.  The server memoizes
    ``request_key -> pipeline key`` so a *repeated* request skips the
    compile/fingerprint work entirely on the warm path; it is only ever
    an alias for a body that already parsed successfully, never a
    substitute for validation.
    """
    return sha256(_encode_body(body).encode()).hexdigest()


class ProtocolError(ValueError):
    """A malformed or unserviceable request, with its HTTP status."""

    def __init__(self, message: str, *, status: int = 400,
                 kind: str = "BadRequest"):
        super().__init__(message)
        self.status = status
        self.kind = kind


@dataclass
class MapRequest:
    """One parsed ``/v1/map`` request, ready for the pipeline."""

    tg: TaskGraph
    topology: Topology
    config: RunConfig
    faults: Any | None
    deadline_s: float | None
    use_cache: bool


def _parse_bind(raw: Any) -> dict[str, int]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ProtocolError(f"'bind' must be an object, got {type(raw).__name__}")
    bind: dict[str, int] = {}
    for name, value in raw.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(
                f"binding {name!r} must be an integer, got {value!r}"
            )
        bind[str(name)] = value
    return bind


def _parse_graph(body: dict) -> TaskGraph:
    program = body.get("program")
    inline = body.get("task_graph")
    if (program is None) == (inline is None):
        raise ProtocolError(
            "exactly one of 'program' (a stdlib name) or 'task_graph' "
            "(an inline oregami task-graph object) is required"
        )
    if program is not None:
        if not isinstance(program, str):
            raise ProtocolError("'program' must be a string")
        if program not in stdlib.PROGRAMS:
            raise ProtocolError(
                f"unknown stdlib program {program!r}; available: "
                f"{', '.join(sorted(stdlib.PROGRAMS))} (the server never "
                f"reads files; send an inline 'task_graph' instead)"
            )
        from repro.larcs.errors import LarcsError

        try:
            return stdlib.load(
                program, _parse_bind(body.get("bind")), max_tasks=MAX_TASKS
            )
        except ProtocolError:
            raise
        except (ValueError, KeyError, LarcsError) as exc:
            raise ProtocolError(f"compiling {program!r} failed: {exc}") from exc
    if body.get("bind") is not None:
        raise ProtocolError("'bind' only applies to 'program' requests")
    if not isinstance(inline, dict):
        raise ProtocolError("'task_graph' must be an object")
    nodes = inline.get("nodes")
    if isinstance(nodes, list) and len(nodes) > MAX_TASKS:
        raise ProtocolError(
            f"'task_graph' has {len(nodes)} nodes; one request may ask "
            f"for at most {MAX_TASKS}"
        )
    try:
        return io.taskgraph_from_dict(inline)
    except (ValueError, KeyError, TypeError) as exc:
        raise ProtocolError(f"bad 'task_graph': {exc}") from exc


def _parse_machine(raw: Any, member: str) -> Topology:
    """The ``topology`` or ``machine`` member (two spellings of one value):
    a spec string of any family or an inline ``oregami-machine-v1`` object.

    Like ``program``, the server never reads files on a request's behalf
    -- machine *files* are a CLI affordance; their JSON contents travel
    inline here.  The machine is built only if it has at most
    :data:`MAX_PROCESSORS` processors.
    """
    if isinstance(raw, str):
        raw = {"kind": "topology", "params": {"spec": raw}}
    if not isinstance(raw, dict):
        raise ProtocolError(
            f"{member!r} must be a spec string like 'mesh:4x4' or "
            "'fat_tree:4x8', or an inline oregami-machine-v1 object (the "
            "server never reads files)"
        )
    try:
        spec = MachineSpec.from_dict(raw)
        n_processors = spec.n_processors()
        if n_processors > MAX_PROCESSORS:
            raise ValueError(
                f"the machine would have {n_processors} processors; one "
                f"request may ask for at most {MAX_PROCESSORS}"
            )
        return spec.build()
    except (ValueError, KeyError, TypeError) as exc:
        raise ProtocolError(f"bad {member!r}: {exc}") from exc


def _parse_instance(
    raw: bytes | dict, allowed: frozenset
) -> tuple[dict, TaskGraph, Topology]:
    """What ``/v1/map`` and ``/v1/session`` share: the decoded body, with
    no key outside *allowed*, and the instance it names.  *raw* is the
    body's bytes, or what a caller already decoded them to."""
    body = raw
    if isinstance(raw, (bytes, str)):
        if len(raw) > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {len(raw)} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                status=413, kind="PayloadTooLarge",
            )
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    unknown = set(body) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown request keys {sorted(unknown)!r}; "
            f"choose from {sorted(allowed)!r}"
        )
    tg = _parse_graph(body)
    if ("topology" in body) == ("machine" in body):
        raise ProtocolError(
            "exactly one of 'topology' or 'machine' is required: a machine "
            "spec string or an inline machine object"
        )
    member = "topology" if "topology" in body else "machine"
    return body, tg, _parse_machine(body[member], member)


def parse_map_request(raw: bytes | dict) -> MapRequest:
    """Parse and validate one ``POST /v1/map`` body (bytes, or decoded).

    Raises :class:`ProtocolError` (HTTP 400) on anything malformed --
    undecodable JSON, unknown keys, a bad program/topology/config/fault
    spec, or a non-positive deadline.
    """
    body, tg, topology = _parse_instance(raw, _ALLOWED_KEYS)

    config = RunConfig()
    if body.get("config") is not None:
        if not isinstance(body["config"], dict):
            raise ProtocolError("'config' must be an object")
        try:
            config = RunConfig.from_dict(body["config"])
        except (ValueError, TypeError) as exc:
            raise ProtocolError(f"bad 'config': {exc}") from exc
    # The request's cache flag picks server-side semantics (compute fresh
    # vs. shared store); the worker holds no store, and the flag is
    # cleared so the stored result's config is identical either way.
    use_cache = config.cache
    config = replace(config, cache=False)

    faults = None
    if body.get("faults") is not None:
        if not isinstance(body["faults"], dict):
            raise ProtocolError("'faults' must be an object")
        try:
            faults = io.faultset_from_dict(body["faults"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"bad 'faults': {exc}") from exc

    deadline_s = body.get("deadline_s")
    if deadline_s is not None:
        if not isinstance(deadline_s, (int, float)) or isinstance(deadline_s, bool) \
                or deadline_s <= 0:
            raise ProtocolError(
                f"'deadline_s' must be a positive number, got {deadline_s!r}"
            )
        deadline_s = float(deadline_s)

    return MapRequest(
        tg=tg, topology=topology, config=config, faults=faults,
        deadline_s=deadline_s, use_cache=use_cache,
    )


@dataclass
class SessionRequest:
    """One parsed ``/v1/session`` request, ready for a mapping session."""

    tg: TaskGraph
    topology: Topology
    scenario: Any          # repro.online.Scenario
    config: Any            # repro.online.SessionConfig
    include_trace: bool


def parse_session_request(raw: bytes) -> SessionRequest:
    """Parse and validate one ``POST /v1/session`` body.

    The instance members (``program``/``bind``/``task_graph`` and
    ``topology``/``machine``) follow ``/v1/map`` exactly.  The event
    stream is either an inline ``oregami-scenario-v1`` object under
    ``scenario`` or a ``generate`` object (``seed``, ``events``,
    ``rates``, ``burst_len``, ``flap_after``, ``max_failed_frac``,
    ``name``) the server feeds to the seeded generator -- at most one of
    the two; neither means a default generated stream.  ``session``
    carries :class:`~repro.online.SessionConfig` knobs, ``trace``
    requests the full per-event trace in the response.  As with
    ``/v1/map``, the server never reads files on a request's behalf.
    """
    from repro.online import Scenario, SessionConfig, generate_scenario

    body, tg, topology = _parse_instance(raw, _SESSION_KEYS)

    if "scenario" in body and "generate" in body:
        raise ProtocolError(
            "give at most one of 'scenario' (an inline event stream) or "
            "'generate' (seeded generator parameters)"
        )
    if body.get("scenario") is not None:
        if not isinstance(body["scenario"], dict):
            raise ProtocolError(
                "'scenario' must be an inline oregami-scenario-v1 object "
                "(the server never reads files)"
            )
        try:
            scenario = Scenario.from_dict(body["scenario"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"bad 'scenario': {exc}") from exc
    else:
        gen = body.get("generate") or {}
        if not isinstance(gen, dict):
            raise ProtocolError("'generate' must be an object")
        unknown = set(gen) - _GENERATE_KEYS
        if unknown:
            raise ProtocolError(
                f"unknown 'generate' keys {sorted(unknown)!r}; "
                f"choose from {sorted(_GENERATE_KEYS)!r}"
            )
        events = gen.get("events")
        if type(events) is int and events > MAX_EVENTS:
            raise ProtocolError(
                f"bad 'generate': events={events}; one request may ask "
                f"for at most {MAX_EVENTS}"
            )
        try:
            # Only the keys given; the generator owns its defaults and
            # checks its own types.
            scenario = generate_scenario(tg, topology, **{
                "n_events" if key == "events" else key: value
                for key, value in gen.items()
            })
        except (ValueError, TypeError) as exc:
            raise ProtocolError(f"bad 'generate': {exc}") from exc

    session = body.get("session") or {}
    if not isinstance(session, dict):
        raise ProtocolError("'session' must be an object")
    if session.get("executor") == "process":
        # Worker processes forked per request do not mix with a threaded
        # HTTP server; the in-request portfolio stays in-process.
        raise ProtocolError(
            "'session.executor' must be 'serial' or 'thread' over HTTP"
        )
    try:
        config = SessionConfig.from_dict(session)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"bad 'session': {exc}") from exc

    include_trace = body.get("trace", False)
    if not isinstance(include_trace, bool):
        raise ProtocolError(f"'trace' must be a boolean, got {include_trace!r}")

    return SessionRequest(
        tg=tg, topology=topology, scenario=scenario, config=config,
        include_trace=include_trace,
    )


def session_response(scenario, report, *, include_trace: bool,
                     elapsed_s: float) -> bytes:
    """The full ``/v1/session`` success body."""
    return json.dumps({
        "format": SESSION_FORMAT,
        "scenario": {
            "name": scenario.name,
            "seed": scenario.seed,
            "events": len(scenario),
            "fingerprint": scenario.fingerprint(),
        },
        "report": report.to_dict(include_trace=include_trace),
        "serving": {
            "elapsed_ms": elapsed_s * 1e3,
            "version": __version__,
        },
    }).encode()


def render_result(
    result: PipelineResult, *, fingerprints: dict[str, str]
) -> bytes:
    """The serialized ``result`` member of a ``/v1/map`` response.

    The pipeline document with its per-request ``cache`` member lifted
    out (request-dependent provenance lives in the ``serving`` envelope
    instead), so identical instances always render byte-identically --
    which also lets the server cache these bytes per pipeline key and
    skip re-serializing a large mapping on every warm hit.
    """
    doc = result.to_dict()
    doc.pop("cache", None)
    doc["fingerprints"] = dict(fingerprints)
    return json.dumps(doc).encode()


def map_response(
    rendered_result: bytes,
    *,
    key: str,
    tier: str,
    elapsed_s: float,
) -> bytes:
    """The full ``/v1/map`` success body: envelope spliced around the
    pre-rendered (and possibly cached) ``result`` member."""
    serving = json.dumps({
        "cache": {
            "key": key,
            "tier": tier,
            "hit": tier in ("memory", "disk"),
            "deduplicated": tier == "singleflight",
        },
        "elapsed_ms": elapsed_s * 1e3,
        "version": __version__,
    }).encode()
    # one join: a chain of ``+`` copies the result again at every ``+``
    return b"".join((
        b'{"format": ', json.dumps(MAP_FORMAT).encode(),
        b', "result": ', rendered_result,
        b', "serving": ', serving, b"}",
    ))


def _http_status_for(exc: BaseException) -> int:
    if isinstance(exc, ProtocolError):
        return exc.status
    if isinstance(exc, TaskTimeout):
        return 504
    if isinstance(exc, RetriesExhausted) and exc.last_outcome == "timeout":
        return 504
    if isinstance(exc, SupervisionError):
        return 500
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return 400
    return 500


def error_response(exc: BaseException) -> tuple[int, dict]:
    """Map any failure onto ``(http_status, structured error body)``.

    The body carries the taxonomy type, the message, the exit code the
    CLI would have used (so scripted clients can share one switch), and
    -- for supervised failures -- the full deterministic attempt history.
    """
    status = _http_status_for(exc)
    error: dict[str, Any] = {
        "type": exc.kind if isinstance(exc, ProtocolError) else type(exc).__name__,
        "message": str(exc),
        "exit_code": (
            EXIT_TIMEOUT if status == 504 else exit_code_for(exc)
        ),
    }
    if isinstance(exc, SupervisionError) and exc.attempts:
        error["attempts"] = [
            {
                "number": a.number,
                "outcome": a.outcome,
                "detail": a.detail,
                "backoff_s": a.backoff_s,
            }
            for a in exc.attempts
        ]
    return status, {"format": MAP_FORMAT, "error": error}
