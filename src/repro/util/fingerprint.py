"""Stable content fingerprints for cache keys (hash-seed independent).

Python's built-in ``hash`` is salted per process (``PYTHONHASHSEED``), so it
cannot key a cache that must survive process restarts or agree across the
workers of a process pool.  This module provides the one primitive the
pipeline's content-addressed artifact cache needs: a deterministic digest of
a *canonical payload* -- a JSON-able structure in which every ordering is
either semantically meaningful (and therefore preserved) or canonicalised
(sets sorted by their encoded form, never by iteration order).

The digest is a plain SHA-256 over compact canonical JSON, so equal payloads
produce equal hex strings in any process, on any platform, under any hash
seed -- which is what lets ``~/.cache/repro`` serve results computed by an
earlier process (see :mod:`repro.pipeline.cache`).

Producers of canonical payloads (``TaskGraph.fingerprint``,
``Topology.fingerprint``, ``FaultSet.fingerprint``,
``RunConfig.fingerprint``) build them from these helpers:

* :func:`encode_label` -- task/processor labels (ints, strings, nested
  tuples) into JSON-able values; :class:`LabelTable` does it once per
  label for a whole document;
* :func:`sort_encoded` -- canonical order for collections whose iteration
  order is an implementation detail (frozensets, cost dicts);
* :func:`stable_digest` -- the payload into its hex digest.

:func:`sha256` is the one SHA-256 constructor in ``src/repro``: the
interpreter's built-in one, picked once at import, not ``hashlib``'s,
whose ``_hashlib`` maps OpenSSL's libcrypto (+3.6 MB resident) to hash a
few kB of JSON per run.  Same digests; slower in bulk (2 MB: ~8 ms
against ~1.5 ms), which building the JSON text dominates.
"""

from __future__ import annotations

import json
from typing import Any

try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

__all__ = [
    "encode_label",
    "decode_label",
    "LabelTable",
    "sort_encoded",
    "canonical_json",
    "stable_digest",
    "sha256",
]


def encode_label(label) -> Any:
    """A task/processor label as a JSON-able value (tuples become lists).

    Labels in this codebase are ints, strings, or (nested) tuples of them.
    This pair is the one label codec: fingerprints, saved mappings, machine
    files and scenarios all write labels with it, so a label and its
    round-tripped form encode identically.
    """
    if isinstance(label, (tuple, list)):
        return [encode_label(x) for x in label]
    return label


def decode_label(obj) -> Any:
    """Inverse of :func:`encode_label`: lists back into tuples."""
    if isinstance(obj, list):
        return tuple(decode_label(x) for x in obj)
    return obj


class LabelTable(dict):
    """``label -> encode_label(label)`` for one document, filled on demand.

    A fingerprint payload or a saved mapping mentions a label once per
    edge end and route hop; indexing one table per document encodes it
    once.  Mentions share the encoded list (build, dump, drop), and labels
    equal as dict keys (``1``, ``1.0``, ``True``) share the first one seen.
    """

    def __missing__(self, label):
        encoded = self[label] = encode_label(label)
        return encoded


#: Built once: ``json.dumps`` with options makes a ``JSONEncoder`` per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(payload) -> str:
    """Compact JSON with sorted object keys -- the canonical text form."""
    return _CANONICAL.encode(payload)


def sort_encoded(items) -> list:
    """Encoded items in canonical (JSON-text) order.

    Use this for any collection whose iteration order depends on the hash
    seed (sets, frozensets) or is an artefact of construction order rather
    than semantics (per-task cost dicts): the result is the same list in
    every process.
    """
    return sorted(items, key=canonical_json)


def stable_digest(payload) -> str:
    """The SHA-256 hex digest of a canonical payload.

    *payload* must be JSON-able (use :func:`encode_label` /
    :func:`sort_encoded` first); equal payloads digest equally under every
    ``PYTHONHASHSEED``.
    """
    return sha256(canonical_json(payload).encode("utf-8")).hexdigest()
