"""Argument-validation helpers shared across the public API."""

from __future__ import annotations

from dataclasses import fields
from numbers import Real

__all__ = [
    "ValidationError",
    "require",
    "check_positive_int",
    "check_power_of_two",
    "check_number",
    "check_int",
    "check_known_keys",
]


class ValidationError(ValueError):
    """A structural-consistency check failed on a user-provided artefact.

    Subclasses :class:`ValueError` so every existing ``except ValueError``
    (and every test matching it) keeps working; the distinct type lets
    callers tell artefact corruption from bad call arguments.

    ``payload`` optionally carries a structured, JSON-compatible account
    of what failed -- e.g. :meth:`repro.mapper.Mapping.validate` attaches
    the exact ``(processor, resource, demand, capacity)`` overflows when
    a mapping violates a machine's capacity vectors -- so programmatic
    callers don't have to parse the message.
    """

    def __init__(self, message: str, *, payload=None):
        super().__init__(message)
        self.payload = payload


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def check_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a positive int and return it."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_power_of_two(value: int, name: str) -> int:
    """Validate that *value* is a positive power of two and return it."""
    check_positive_int(value, name)
    if value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return value


def check_number(value, name: str) -> None:
    """Raise unless *value* is a real number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def check_int(value, name: str) -> None:
    """Raise unless *value* is an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_known_keys(cls, data, name: str | None = None) -> None:
    """Raise unless *data* is a dict holding only fields of dataclass *cls*.

    *name* is what the messages call the config (default: the class name).
    """
    name = name or cls.__name__
    if not isinstance(data, dict):
        raise ValueError(
            f"{name} must be built from an object, got {type(data).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {name} keys {sorted(unknown)!r}; "
            f"choose from {sorted(known)!r}"
        )
