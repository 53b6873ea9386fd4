"""Typed, frozen run configurations for the staged mapping pipeline.

Before this module, every caller re-encoded the same knobs its own way:
``map_computation`` keyword args, the portfolio's strategy tuples, the
CLI's flag plumbing.  A :class:`RunConfig` is the single typed value that
states everything a pipeline run depends on:

* :class:`MapConfig` -- which mapping strategy, load bound, refinement;
* :class:`~repro.sim.CostModel` -- the simulated machine's cost model
  (``SimConfig`` is the same class under the name stored artifacts spell);
* the stage list to execute and whether the artifact cache may serve it.

All three are frozen and hashable, so configs work as dict keys, dedupe in
sets, and fingerprint stably for the content-addressed cache
(:meth:`RunConfig.fingerprint`).  ``from_dict``/``to_dict`` round-trip them
through JSON/TOML for the ``repro run`` serving entry point; unknown keys
and wrong-typed values raise :class:`ValueError` naming the key, so a typo
in a config file fails loudly instead of silently running defaults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.sim.model import CostModel
from repro.util.fingerprint import stable_digest
from repro.util.validation import check_int, check_known_keys

__all__ = ["MapConfig", "SimConfig", "RunConfig", "DEFAULT_STAGES"]

#: The full pipeline, in execution order.  ``refine`` is declared even when
#: ``MapConfig.refine`` is false -- the stage no-ops -- so one stage list
#: describes every run and introspection always sees the same shape.
DEFAULT_STAGES: tuple[str, ...] = (
    "contract", "embed", "refine", "route", "simulate", "analyze",
)

_REFINE_VALUES = ("none", "kl", "delta_gain")

#: Disk-tier pickles and journals name ``repro.pipeline.config.SimConfig``;
#: it must stay importable, and it is the cost model itself.
SimConfig = CostModel


@dataclass(frozen=True)
class MapConfig:
    """How MAPPER contracts, embeds, and refines.

    Attributes
    ----------
    strategy:
        ``"auto"`` (table order with fall-through) or a strategy name
        (``"canned"`` / ``"group"`` / ``"mwm"`` / ``"multilevel"`` -- see
        :data:`repro.mapper.dispatch.STRATEGIES`), resolved when the
        contract stage runs.
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
            check_int(self.load_bound, "load_bound")
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
        check_known_keys(cls, data)
        return cls(**data)


# A frozen legacy fingerprint constant: METRICS once took a kernel choice
# that never changed a result but was digested into every key (see
# ``repro.sim.model._LEGACY_KEYS`` for the simulator's two).
_LEGACY_ANALYZE_SECTION = {"kernel": "vector"}


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run depends on, as a single hashable value.

    Attributes
    ----------
    map, sim:
        The per-stage configs.
    stages:
        The stage names to execute, in order (a subset of
        :data:`DEFAULT_STAGES`).  :meth:`mapping_only` stops after
        ``route``, the portfolio after ``simulate``; the serving entry
        point runs the full pipeline.
    cache:
        Whether a front door may serve/store this run's result in its
        store: ``repro run`` (with ``--config``/``--no-cache``) and
        ``/v1/map`` read it.  :func:`~repro.pipeline.run_pipeline` does
        not; it uses the store it is handed.  Part of the config (and its
        dict form) so a config file can pin caching off; *not* part of the
        fingerprint, because it does not change what is computed.
    """

    map: MapConfig = field(default_factory=MapConfig)
    sim: CostModel = field(default_factory=CostModel)
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

    @classmethod
    def mapping_only(
        cls,
        *,
        strategy: str = "auto",
        load_bound: int | None = None,
        refine: bool | str = False,
        route: bool = True,
    ) -> "RunConfig":
        """A run that stops at the mapping: contract, embed, refine and
        (with *route*) route -- :func:`repro.mapper.map_computation`'s
        keyword arguments as a config."""
        return cls(
            map=MapConfig(strategy=strategy, load_bound=load_bound, refine=refine),
            stages=DEFAULT_STAGES[:4 if route else 3],
        )

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
        check_known_keys(cls, data)
        kwargs: dict = {}
        if "map" in data:
            kwargs["map"] = MapConfig.from_dict(data["map"])
        if "sim" in data:
            kwargs["sim"] = CostModel.from_dict(data["sim"])
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
