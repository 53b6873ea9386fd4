"""Seeded scenario generation: fuzzing event streams for mapping sessions.

A :class:`Scenario` is a named, reproducible event sequence for one
(task graph, machine) pair.  :func:`generate_scenario` builds one from a
seed and a rate table, tracking enough live state (live tasks, active
faults, evolving edge volumes) that every emitted event is *valid* by
construction -- departures only name tasks that arrived, recoveries only
lift active faults, fault candidates are pre-checked to keep the machine
connected.

The generator exercises the failure shapes real deployments see:

* **churn bursts** -- a burst event emits several consecutive arrivals
  (fork-join spawn fronts), so the session's placement and incremental
  routing absorb pressure in clumps, not a smooth trickle;
* **correlated failures** -- a processor dies *together with* an
  incident link of a surviving neighbour (one fault event), the
  cable-pull / switch-brownout pattern;
* **flapping links** -- a link degrades by a random factor and is
  forcibly recovered a few events later, then may flap again.

Everything is driven by one ``random.Random(seed)``; iteration is over
sorted or insertion-ordered structures only, so a scenario is
bit-identical across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.arch.topology import Topology
from repro.graph.taskgraph import TaskGraph
from repro.online.events import (
    Arrival,
    Departure,
    Drift,
    Fault,
    Recovery,
    event_fingerprint,
    event_from_dict,
    event_to_dict,
)
from repro.resilience.faults import FaultSet
from repro.util.fingerprint import stable_digest
from repro.util.validation import check_int, check_number

__all__ = ["Scenario", "DEFAULT_RATES", "generate_scenario"]

#: Relative event-kind weights (normalised by the generator).  ``burst``
#: emits ``burst_len`` arrivals at once; ``flap`` starts a degrade whose
#: recovery is scheduled automatically.
DEFAULT_RATES = {
    "arrival": 4.0,
    "departure": 2.0,
    "drift": 3.0,
    "fault": 1.0,
    "recovery": 1.0,
    "burst": 0.5,
    "flap": 0.5,
}


@dataclass(frozen=True)
class Scenario:
    """A named, seeded event sequence (JSON round-trippable)."""

    name: str
    seed: int
    events: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def fingerprint(self) -> str:
        return stable_digest({
            "kind": "online-scenario",
            "name": self.name,
            "seed": self.seed,
            "events": [event_fingerprint(e) for e in self.events],
        })

    def to_dict(self) -> dict:
        return {
            "format": "oregami-scenario-v1",
            "name": self.name,
            "seed": self.seed,
            "events": [event_to_dict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if data.get("format") not in (None, "oregami-scenario-v1"):
            raise ValueError(f"not a scenario document: {data.get('format')!r}")
        return cls(
            name=data.get("name", "scenario"),
            seed=int(data.get("seed", 0)),
            events=tuple(event_from_dict(e) for e in data.get("events", ())),
        )

    def __len__(self) -> int:
        return len(self.events)


class _Generator:
    """Stateful helper tracking validity while events are sampled."""

    def __init__(self, tg: TaskGraph, topology: Topology, seed: int,
                 rates: dict, burst_len: int, flap_after: int,
                 max_failed_frac: float):
        self.rng = random.Random(seed)
        self.base = topology
        self.rates = rates
        self.burst_len = burst_len
        self.flap_after = flap_after
        self.max_failed = max(1, int(topology.n_processors * max_failed_frac))

        self.live: list = list(tg.nodes)          # all live tasks, in order
        self.dynamic: list = []                   # tasks this stream spawned
        self.phases: list[str] = sorted(tg.comm_phases)
        # Evolving edge model: phase -> list of [src, dst, volume].
        self.edges: dict[str, list] = {
            name: [[e.src, e.dst, e.volume] for e in phase.edges]
            for name, phase in tg.comm_phases.items()
        }
        self.active = FaultSet()                  # cumulative active faults
        self.units: list[FaultSet] = []           # recoverable fault units
        self.flaps: list[tuple[int, FaultSet]] = []  # (due index, degrade unit)
        self.next_id = 0

    # -- sampled pieces ------------------------------------------------
    def _weighted_kind(self) -> str:
        kinds = sorted(self.rates)
        weights = [self.rates[k] for k in kinds]
        return self.rng.choices(kinds, weights=weights, k=1)[0]

    def _machine_ok(self, candidate: FaultSet) -> bool:
        """Would the cumulative fault state keep a usable machine?"""
        try:
            merged = self.active.union(candidate)
        except ValueError:
            return False
        if len(merged.failed_procs) > self.max_failed:
            return False
        try:
            self.base.degrade(merged)
        except ValueError:  # disconnected, all-failed, unknown hardware
            return False
        return True

    def arrival(self) -> Arrival:
        task = ("dyn", self.next_id)
        self.next_id += 1
        weight = self.rng.choice([0.5, 1.0, 1.0, 2.0])
        edges = []
        if self.phases and self.live:
            phase = self.rng.choice(self.phases)
            n_peers = self.rng.randint(1, min(2, len(self.live)))
            peers = self.rng.sample(self.live, n_peers)
            for peer in peers:
                volume = self.rng.choice([0.5, 1.0, 2.0])
                edges.append((phase, peer, task, volume))
                self.edges[phase].append([peer, task, volume])
            if self.rng.random() < 0.5:
                volume = self.rng.choice([0.5, 1.0])
                edges.append((phase, task, peers[0], volume))
                self.edges[phase].append([task, peers[0], volume])
        self.live.append(task)
        self.dynamic.append(task)
        return Arrival(task=task, weight=weight, edges=tuple(edges))

    def departure(self) -> Departure | None:
        if not self.dynamic:
            return None
        task = self.rng.choice(self.dynamic)
        self.dynamic.remove(task)
        self.live.remove(task)
        for phase in self.phases:
            self.edges[phase] = [
                e for e in self.edges[phase] if task not in (e[0], e[1])
            ]
        return Departure(task=task)

    def drift(self) -> Drift | None:
        candidates = [p for p in self.phases if self.edges[p]]
        if not candidates:
            return None
        phase = self.rng.choice(candidates)
        edges = self.edges[phase]
        n = self.rng.randint(1, min(3, len(edges)))
        picked = self.rng.sample(range(len(edges)), n)
        updates = {}
        for i in picked:
            src, dst, volume = edges[i]
            factor = self.rng.choice([0.25, 0.5, 2.0, 4.0])
            new_volume = max(volume * factor, 1e-3)
            updates[(src, dst)] = new_volume
        for edge in edges:
            if (edge[0], edge[1]) in updates:
                edge[2] = updates[(edge[0], edge[1])]
        return Drift(
            phase=phase,
            updates=tuple((s, d, v) for (s, d), v in updates.items()),
        )

    def _live_procs(self) -> list:
        return [
            p for p in self.base.processors
            if p not in self.active.failed_procs
        ]

    def _live_links(self) -> list:
        dead = self.active.dead_links_on(self.base)
        degraded = {l for l, _ in self.active.degraded_links}
        return [
            link for link in self.base.links
            if link not in dead and link not in degraded
        ]

    def fault(self, *, correlated: bool) -> Fault | None:
        for _ in range(8):  # bounded rejection sampling
            procs = self._live_procs()
            links = self._live_links()
            candidate = None
            if correlated and procs:
                victim = self.rng.choice(procs)
                # The cable-pull shape: the victim dies and drags down one
                # incident link between two of its surviving neighbours'
                # links -- approximated as a random live link touching a
                # neighbour of the victim.
                nearby = [
                    link for link in links
                    if victim not in link
                    and any(n in link for n in self.base.neighbors(victim))
                ]
                extra = [self.rng.choice(nearby)] if nearby else []
                candidate = FaultSet(
                    failed_procs=[victim],
                    failed_links=[tuple(l) for l in extra],
                )
            elif procs or links:
                if links and (not procs or self.rng.random() < 0.5):
                    link = self.rng.choice(links)
                    candidate = FaultSet(failed_links=[tuple(link)])
                else:
                    candidate = FaultSet(failed_procs=[self.rng.choice(procs)])
            if candidate is not None and self._machine_ok(candidate):
                self.active = self.active.union(candidate)
                self.units.append(candidate)
                return Fault(faults=candidate)
        return None

    def flap(self, index: int) -> Fault | None:
        links = self._live_links()
        if not links:
            return None
        link = self.rng.choice(links)
        factor = round(self.rng.uniform(1.5, 4.0), 3)
        candidate = FaultSet(degraded_links=[(tuple(link), factor)])
        if not self._machine_ok(candidate):
            return None
        self.active = self.active.union(candidate)
        self.flaps.append((index + self.flap_after, candidate))
        return Fault(faults=candidate)

    def recovery(self) -> Recovery | None:
        if not self.units:
            return None
        unit = self.rng.choice(self.units)
        self.units.remove(unit)
        self.active = self.active.difference(unit)
        return Recovery(faults=unit)

    def due_flap_recovery(self, index: int) -> Recovery | None:
        due = [entry for entry in self.flaps if entry[0] <= index]
        if not due:
            return None
        _when, unit = due[0]
        self.flaps.remove(due[0])
        self.active = self.active.difference(unit)
        return Recovery(faults=unit)


def generate_scenario(
    tg: TaskGraph,
    topology: Topology,
    *,
    seed: int = 0,
    n_events: int = 50,
    rates: dict | None = None,
    burst_len: int = 4,
    flap_after: int = 3,
    max_failed_frac: float = 0.25,
    name: str | None = None,
) -> Scenario:
    """A seeded, valid-by-construction event stream for (tg, topology).

    Parameters
    ----------
    rates:
        Relative weights per event kind (missing keys take
        :data:`DEFAULT_RATES`; a key set to 0 disables the kind).
    burst_len:
        Arrivals emitted by one churn burst.
    flap_after:
        Events between a flap's degrade and its forced recovery.
    max_failed_frac:
        Cap on the fraction of processors concurrently failed, so fault
        pressure never grinds the machine into infeasibility.
    """
    for key, value in (("seed", seed), ("n_events", n_events),
                       ("burst_len", burst_len), ("flap_after", flap_after)):
        check_int(value, key)
    check_number(max_failed_frac, "max_failed_frac")
    if n_events < 0:
        raise ValueError("n_events must be >= 0")
    table = dict(DEFAULT_RATES)
    if rates:
        if not isinstance(rates, dict):
            raise ValueError(f"rates must be an object, got {rates!r}")
        for kind, weight in rates.items():
            check_number(weight, f"rates[{kind!r}]")
        unknown = set(rates) - set(DEFAULT_RATES)
        if unknown:
            raise ValueError(
                f"unknown rate keys {sorted(unknown)!r}; choose from "
                f"{sorted(DEFAULT_RATES)!r}"
            )
        table.update({k: float(v) for k, v in rates.items()})
    if all(v <= 0 for v in table.values()):
        raise ValueError("at least one rate must be positive")
    table = {k: v for k, v in table.items() if v > 0}

    gen = _Generator(
        tg, topology, seed, table, burst_len, flap_after, max_failed_frac
    )
    events: list = []
    while len(events) < n_events:
        index = len(events)
        # Overdue flap recoveries preempt the sampled stream: a flapping
        # link always comes back on schedule.
        recovery = gen.due_flap_recovery(index)
        if recovery is not None:
            events.append(recovery)
            continue
        kind = gen._weighted_kind()
        if kind == "arrival":
            events.append(gen.arrival())
        elif kind == "burst":
            for _ in range(min(gen.burst_len, n_events - len(events))):
                events.append(gen.arrival())
        elif kind == "departure":
            event = gen.departure()
            events.append(event if event is not None else gen.arrival())
        elif kind == "drift":
            event = gen.drift()
            events.append(event if event is not None else gen.arrival())
        elif kind == "fault":
            correlated = gen.rng.random() < 0.3
            event = gen.fault(correlated=correlated)
            events.append(event if event is not None else gen.arrival())
        elif kind == "flap":
            event = gen.flap(index)
            events.append(event if event is not None else gen.arrival())
        elif kind == "recovery":
            event = gen.recovery()
            events.append(event if event is not None else gen.arrival())
    return Scenario(
        name=name or f"{tg.name}-scn{seed}",
        seed=seed,
        events=tuple(events[:n_events]),
    )
