"""The cost model of the simulated multicomputer."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.util.validation import check_known_keys, check_number

__all__ = ["CostModel", "SWITCHING_MODES"]

SWITCHING_MODES = ("store_and_forward", "cut_through")

# Frozen legacy fingerprint constants.  The simulator once took a
# step-cache switch and an engine choice; neither changed a result, but
# both were digested into every key.  The options are gone; their defaults
# live on here -- and only here, never read as settings -- so that keys
# minted before the removal (disk caches, journals, session checkpoints)
# still address the same computation.
_LEGACY_KEYS = {"memoize": True, "kernel": "auto"}


@dataclass(frozen=True)
class CostModel:
    """Machine parameters for simulation and completion-time estimation.

    Also the ``sim`` section of a :class:`repro.pipeline.RunConfig`
    (``repro.pipeline.SimConfig`` is this class under its old name, which
    stored artifacts still spell): frozen, hashable, strict
    ``from_dict``/``to_dict``.

    Attributes
    ----------
    hop_latency:
        Fixed startup cost of moving one message across one link.
    byte_time:
        Transfer time per unit of message volume per link.
    exec_time:
        Time per unit of task execution cost.
    switching:
        ``"store_and_forward"`` (NCUBE-style: each hop receives the whole
        message before forwarding, so an L-hop message takes
        ``L * (latency + volume * byte_time)`` uncontended) or
        ``"cut_through"`` (iPSC/2-style: the header cuts through and the
        body pipelines behind it, ``L * latency + volume * byte_time``
        uncontended, but the message holds *all* its links while flowing,
        so contention blocks whole paths).
    """

    hop_latency: float = 1.0
    byte_time: float = 1.0
    exec_time: float = 1.0
    switching: str = "store_and_forward"

    def transfer_time(self, volume: float) -> float:
        """Time one message of the given volume occupies one link
        (store-and-forward per-hop cost)."""
        return self.hop_latency + self.byte_time * volume

    def cut_through_time(self, volume: float, hops: int) -> float:
        """Uncontended end-to-end time of a cut-through message."""
        return self.hop_latency * hops + self.byte_time * volume

    def __post_init__(self):
        if self.switching not in SWITCHING_MODES:
            raise ValueError(
                f"switching must be one of {SWITCHING_MODES}, "
                f"got {self.switching!r}"
            )
        for key in ("hop_latency", "byte_time", "exec_time"):
            check_number(getattr(self, key), key)
        if min(self.hop_latency, self.byte_time, self.exec_time) < 0:
            raise ValueError("cost-model parameters must be non-negative")

    def to_dict(self) -> dict:
        """JSON-compatible form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CostModel":
        """Build from a (possibly partial) dict; unknown keys raise.

        The messages say ``SimConfig``, the name config files and requests
        know this section's type by.
        """
        check_known_keys(cls, data, "SimConfig")
        return cls(**data)

    def fingerprint_payload(self) -> dict:
        """What cache, journal and session keys digest for this model."""
        return {**self.to_dict(), **_LEGACY_KEYS}
