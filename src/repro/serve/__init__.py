"""Mapping-as-a-service: the pipeline behind a long-lived HTTP front-end.

``repro serve`` turns the batch toolchain into a shared service: a
stdlib thread-per-connection HTTP server (:mod:`repro.serve.server`)
that parses typed mapping requests (:mod:`repro.serve.protocol`),
computes each cold one as a supervised task on its own handler thread
(at most ``--workers`` at once), and answers repeats by content
fingerprint from the response bytes it holds or from the shared
:class:`~repro.pipeline.ArtifactCache`'s disk tier -- with
single-flight deduplication so a thundering herd of identical requests
computes exactly once.  The package ships no load client: the one that
measures is ``benchmarks/layered/loadclient.py`` (workloads ``serve_warm``
and ``serve_mixed``).  See ``docs/service.md``.
"""

from repro.serve.protocol import (
    HEALTH_FORMAT,
    MAP_FORMAT,
    STATS_FORMAT,
    MapRequest,
    ProtocolError,
    error_response,
    map_response,
    parse_map_request,
    render_result,
    request_key,
)
from repro.serve.server import MappingServer, serve

__all__ = [
    "serve",
    "MappingServer",
    "MapRequest",
    "ProtocolError",
    "parse_map_request",
    "request_key",
    "render_result",
    "map_response",
    "error_response",
    "MAP_FORMAT",
    "HEALTH_FORMAT",
    "STATS_FORMAT",
]
