"""Typed, frozen run configurations for the staged mapping pipeline.

Before this module, every caller re-encoded the same knobs its own way:
``map_computation`` keyword args, the portfolio's strategy tuples, the
CLI's flag plumbing.  A :class:`RunConfig` is the single typed value that
states everything a pipeline run depends on:

* :class:`MapConfig` -- which mapping strategy, load bound, refinement;
* :class:`SimConfig` -- the simulated machine's cost model;
* the stage list to execute and whether the artifact cache may serve it.

All three are frozen and hashable, so configs work as dict keys, dedupe in
sets, and fingerprint stably for the content-addressed cache
(:meth:`RunConfig.fingerprint`).  ``from_dict``/``to_dict`` round-trip them
through JSON/TOML for the ``repro run`` serving entry point; unknown keys
and wrong-typed values raise :class:`ValueError` naming the key, so a typo
in a config file fails loudly instead of silently running defaults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from numbers import Real

from repro.sim.model import CostModel
from repro.util.fingerprint import stable_digest

__all__ = ["MapConfig", "SimConfig", "RunConfig", "DEFAULT_STAGES"]

#: The full pipeline, in execution order.  ``refine`` is declared even when
#: ``MapConfig.refine`` is false -- the stage no-ops -- so one stage list
#: describes every run and introspection always sees the same shape.
DEFAULT_STAGES: tuple[str, ...] = (
    "contract", "embed", "refine", "route", "simulate", "analyze",
)

_REFINE_VALUES = ("none", "kl", "delta_gain")
_SWITCHING_MODES = ("store_and_forward", "cut_through")


def _check_unknown(cls, data: dict) -> None:
    if not isinstance(data, dict):
        raise ValueError(
            f"{cls.__name__} must be built from an object, "
            f"got {type(data).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys {sorted(unknown)!r}; "
            f"choose from {sorted(known)!r}"
        )


def _check_number(key: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{key} must be a number, got {value!r}")


def _check_int(key: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MapConfig:
    """How MAPPER contracts, embeds, and refines.

    Attributes
    ----------
    strategy:
        ``"auto"`` (registry order with fall-through) or a registered
        strategy name (``"canned"`` / ``"group"`` / ``"mwm"`` today --
        see :mod:`repro.pipeline.stages`).  Validated against the registry
        when the contract stage runs, so strategies registered after
        config construction still resolve.
    load_bound:
        Optional balance constraint ``B`` (max tasks per processor).
    refine:
        Which refinement post-pass to run on heuristic mappings:
        ``"none"`` (or ``False``, the default) skips it, ``"kl"`` (or
        legacy ``True``) runs the Kernighan-Lin-style passes, and
        ``"delta_gain"`` runs the vectorized delta-gain kernel.  The
        boolean forms are accepted everywhere a string is (configs
        written before the knob widened keep working, and their
        fingerprints are unchanged).
    """

    strategy: str = "auto"
    load_bound: int | None = None
    refine: bool | str = False

    def __post_init__(self):
        if not isinstance(self.strategy, str) or not self.strategy:
            raise ValueError(f"strategy must be a non-empty string, "
                             f"got {self.strategy!r}")
        if self.load_bound is not None:
            _check_number("load_bound", self.load_bound)
            if self.load_bound < 1:
                raise ValueError(
                    f"load_bound must be >= 1, got {self.load_bound}"
                )
        if not isinstance(self.refine, bool) and self.refine not in _REFINE_VALUES:
            raise ValueError(
                f"refine must be a bool or one of {_REFINE_VALUES}, "
                f"got {self.refine!r}"
            )

    def to_dict(self) -> dict:
        """JSON-compatible form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MapConfig":
        """Build from a (possibly partial) dict; unknown keys raise."""
        _check_unknown(cls, data)
        return cls(**data)


# Frozen legacy fingerprint constants.  The simulator once took a
# step-cache switch and an engine choice, and METRICS a kernel choice; none
# changed a result, but all three were digested into every key.  The
# options are gone; their defaults live on here -- and only here, never
# read as settings -- so that keys minted before the removal (disk caches,
# journals, session checkpoints) still address the same computation.
_LEGACY_SIM_KEYS = {"memoize": True, "kernel": "auto"}
_LEGACY_ANALYZE_SECTION = {"kernel": "vector"}


@dataclass(frozen=True)
class SimConfig:
    """The simulated machine's parameters.

    The fields mirror :class:`repro.sim.CostModel` exactly;
    :meth:`cost_model` converts.
    """

    hop_latency: float = 1.0
    byte_time: float = 1.0
    exec_time: float = 1.0
    switching: str = "store_and_forward"

    def __post_init__(self):
        if self.switching not in _SWITCHING_MODES:
            raise ValueError(
                f"switching must be one of {_SWITCHING_MODES}, "
                f"got {self.switching!r}"
            )
        for key in ("hop_latency", "byte_time", "exec_time"):
            _check_number(key, getattr(self, key))
        if min(self.hop_latency, self.byte_time, self.exec_time) < 0:
            raise ValueError("cost-model parameters must be non-negative")

    def cost_model(self) -> CostModel:
        """The equivalent :class:`~repro.sim.CostModel`."""
        return CostModel(
            hop_latency=self.hop_latency,
            byte_time=self.byte_time,
            exec_time=self.exec_time,
            switching=self.switching,
        )

    @classmethod
    def from_model(cls, model: CostModel) -> "SimConfig":
        """Wrap an existing cost model (the legacy entry points' shims)."""
        return cls(
            hop_latency=model.hop_latency,
            byte_time=model.byte_time,
            exec_time=model.exec_time,
            switching=model.switching,
        )

    def to_dict(self) -> dict:
        """JSON-compatible form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Build from a (possibly partial) dict; unknown keys raise."""
        _check_unknown(cls, data)
        return cls(**data)

    def fingerprint_payload(self) -> dict:
        """What cache, journal and session keys digest for this model."""
        return {**self.to_dict(), **_LEGACY_SIM_KEYS}


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run depends on, as a single hashable value.

    Attributes
    ----------
    map, sim:
        The per-stage configs.
    stages:
        The stage names to execute, in order (a subset of the registered
        stages; see :data:`DEFAULT_STAGES`).  Legacy shims shorten this --
        ``map_computation`` stops after ``route`` -- while the serving
        entry point runs the full pipeline.
    cache:
        Whether the artifact cache may serve/store this run's result.
        Part of the config (and its dict form) so a ``repro run`` config
        file can pin caching off; *not* part of the fingerprint, because
        it does not change what is computed.
    """

    map: MapConfig = field(default_factory=MapConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    stages: tuple[str, ...] = DEFAULT_STAGES
    cache: bool = True

    def __post_init__(self):
        if not isinstance(self.stages, (list, tuple)) or not all(
            isinstance(name, str) for name in self.stages
        ):
            raise ValueError(
                f"stages must be a list of stage names, got {self.stages!r}"
            )
        # Tolerate lists from JSON/TOML; normalise to a hashable tuple.
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("a pipeline run needs at least one stage")
        if not isinstance(self.cache, bool):
            raise ValueError(f"cache must be true or false, got {self.cache!r}")

    def to_dict(self) -> dict:
        """JSON-compatible nested dict (inverse of :meth:`from_dict`)."""
        return {
            "map": self.map.to_dict(),
            "sim": self.sim.to_dict(),
            "stages": list(self.stages),
            "cache": self.cache,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build from a (possibly partial) nested dict; unknown keys raise.

        This is the entry point for JSON/TOML config files: every section
        is optional and defaults apply, but misspelt keys raise
        :class:`ValueError` rather than silently running defaults.
        """
        _check_unknown(cls, data)
        kwargs: dict = {}
        if "map" in data:
            kwargs["map"] = MapConfig.from_dict(data["map"])
        if "sim" in data:
            kwargs["sim"] = SimConfig.from_dict(data["sim"])
        for key in ("stages", "cache"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)

    def fingerprint(self) -> str:
        """A stable digest of everything that changes the computed result.

        The ``cache`` flag is excluded: two configs differing only in it
        compute identical artifacts and should share cache entries.
        """
        return stable_digest({
            "kind": "runconfig",
            "map": self.map.to_dict(),
            "sim": self.sim.fingerprint_payload(),
            "analyze": _LEGACY_ANALYZE_SECTION,
            "stages": list(self.stages),
        })
