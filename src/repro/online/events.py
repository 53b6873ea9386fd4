"""Typed events for continuous-operation mapping sessions.

A :class:`~repro.online.session.MappingSession` ingests a stream of these
events -- the four ways a live computation and its machine change out
from under a mapping:

* :class:`Arrival` / :class:`Departure` -- dynamically spawned tasks
  joining and leaving the computation (the online counterpart of
  :mod:`repro.graph.dynamic` spawn patterns), with the message edges that
  attach them to already-live tasks;
* :class:`Drift` -- communication volumes shifting on existing edges (a
  workload whose traffic matrix changes over time);
* :class:`Fault` / :class:`Recovery` -- processors and links failing and
  coming back, carried as :class:`~repro.resilience.FaultSet` values so
  the session composes them with ``union`` / ``difference`` into one
  cumulative machine state.

Every event is an immutable value with a JSON round-trip
(:func:`event_to_dict` / :func:`event_from_dict`) and a
``PYTHONHASHSEED``-independent content fingerprint
(:func:`event_fingerprint`).  The fingerprints chain into the session's
checkpoint keys, so two event streams sharing a prefix share exactly that
prefix's checkpoints and nothing more.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import ClassVar

from repro import io
from repro.resilience.faults import FaultSet
from repro.util.fingerprint import decode_label, encode_label, stable_digest

__all__ = [
    "Arrival",
    "Departure",
    "Drift",
    "Fault",
    "Recovery",
    "EVENT_KINDS",
    "event_to_dict",
    "event_from_dict",
    "event_fingerprint",
]

Task = Hashable


@dataclass(frozen=True)
class Arrival:
    """A new task joins the live computation.

    ``edges`` attach the task to already-live peers: each entry is
    ``(phase, src, dst, volume)`` where exactly one endpoint is the new
    task and the phase is one the session's graph already declares.  Edge
    order is significant -- edges append to the phase's edge list in this
    order, which keeps every pre-existing ``(phase, edge_index)`` route
    key stable.
    """

    kind: ClassVar[str] = "arrival"

    task: Task
    weight: float = 1.0
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "edges",
            tuple(
                (str(phase), src, dst, float(volume))
                for phase, src, dst, volume in self.edges
            ),
        )
        for phase, src, dst, volume in self.edges:
            if self.task not in (src, dst):
                raise ValueError(
                    f"arrival edge ({src!r} -> {dst!r}) in phase {phase!r} "
                    f"does not touch the arriving task {self.task!r}"
                )
            if volume < 0:
                raise ValueError(f"negative volume on arrival edge: {volume!r}")

    def payload(self) -> dict:
        return {
            "task": encode_label(self.task),
            "weight": self.weight,
            "edges": [
                [phase, encode_label(src), encode_label(dst), volume]
                for phase, src, dst, volume in self.edges
            ],
        }

    @classmethod
    def from_payload(cls, data: dict) -> "Arrival":
        return cls(
            task=decode_label(data["task"]),
            weight=float(data.get("weight", 1.0)),
            edges=tuple(
                (phase, decode_label(src), decode_label(dst), volume)
                for phase, src, dst, volume in data.get("edges", ())
            ),
        )


@dataclass(frozen=True)
class Departure:
    """A live task leaves; its incident edges (and routes) go with it."""

    kind: ClassVar[str] = "departure"

    task: Task

    def payload(self) -> dict:
        return {"task": encode_label(self.task)}

    @classmethod
    def from_payload(cls, data: dict) -> "Departure":
        return cls(task=decode_label(data["task"]))


@dataclass(frozen=True)
class Drift:
    """Communication volumes change on existing edges of one phase.

    Each update is ``(src, dst, volume)``: every directed edge
    ``src -> dst`` of the phase takes the new volume.  Updating a pair
    the phase has no edge for raises at apply time -- drift re-weights
    traffic, it never creates edges (that is an :class:`Arrival`).
    """

    kind: ClassVar[str] = "drift"

    phase: str
    updates: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "updates",
            tuple((src, dst, float(v)) for src, dst, v in self.updates),
        )
        for _src, _dst, volume in self.updates:
            if volume < 0:
                raise ValueError(f"negative drift volume: {volume!r}")

    def payload(self) -> dict:
        return {
            "phase": self.phase,
            "updates": [
                [encode_label(src), encode_label(dst), volume]
                for src, dst, volume in self.updates
            ],
        }

    @classmethod
    def from_payload(cls, data: dict) -> "Drift":
        return cls(
            phase=data["phase"],
            updates=tuple(
                (decode_label(src), decode_label(dst), volume)
                for src, dst, volume in data.get("updates", ())
            ),
        )


@dataclass(frozen=True)
class Fault:
    """Hardware fails or degrades: one FaultSet joins the cumulative state."""

    kind: ClassVar[str] = "fault"

    faults: FaultSet = field(default_factory=FaultSet)

    def payload(self) -> dict:
        return {"faults": io.faultset_to_dict(self.faults)}

    @classmethod
    def from_payload(cls, data: dict) -> "Fault":
        return cls(faults=io.faultset_from_dict(data["faults"]))


@dataclass(frozen=True)
class Recovery:
    """Previously failed/degraded hardware comes back.

    The carried fault set must be a subset of the session's active faults
    (factor-exact for degraded links); lifting it restores the recovered
    processors' capacity rows and the recovered links' pristine
    bandwidth, because the session re-derives its machine as
    ``base.degrade(active_faults)`` from the pristine topology.
    """

    kind: ClassVar[str] = "recovery"

    faults: FaultSet = field(default_factory=FaultSet)

    def payload(self) -> dict:
        return {"faults": io.faultset_to_dict(self.faults)}

    @classmethod
    def from_payload(cls, data: dict) -> "Recovery":
        return cls(faults=io.faultset_from_dict(data["faults"]))


_EVENT_TYPES = (Arrival, Departure, Drift, Fault, Recovery)
_BY_KIND = {cls.kind: cls for cls in _EVENT_TYPES}

#: The recognised event kinds, in canonical order.
EVENT_KINDS = tuple(_BY_KIND)


def event_to_dict(event) -> dict:
    """The JSON-compatible form of one event (inverse of
    :func:`event_from_dict`)."""
    if type(event) not in _EVENT_TYPES:
        raise TypeError(f"not an online event: {event!r}")
    return {"kind": event.kind, **event.payload()}


def event_from_dict(data: dict):
    """Rebuild an event from :func:`event_to_dict` output."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"an event dict needs a 'kind', got {data!r}")
    kind = data["kind"]
    if kind not in _BY_KIND:
        raise ValueError(
            f"unknown event kind {kind!r}; choose from {EVENT_KINDS!r}"
        )
    return _BY_KIND[kind].from_payload(data)


def event_fingerprint(event) -> str:
    """A stable content digest of one event (hash-seed independent)."""
    if isinstance(event, (Fault, Recovery)):
        # FaultSet already digests canonically; reuse it so equal fault
        # sets fingerprint equally however their dicts were ordered.
        return stable_digest({
            "kind": f"online-event-{event.kind}",
            "faults": event.faults.fingerprint(),
        })
    return stable_digest({
        "kind": f"online-event-{event.kind}",
        **event.payload(),
    })
