"""Shared combinatorial utilities used throughout the OREGAMI toolchain.

This subpackage holds the small, dependency-free substrates that several
MAPPER algorithms are built on:

* :mod:`repro.util.gray` -- binary-reflected Gray codes, used by the canned
  ring-to-hypercube and mesh-to-hypercube embeddings.
* :mod:`repro.util.matching` -- the *maximum-weight* matching kernel of
  Algorithm MWM-Contract (its references live in ``tests/oracles``).
* :mod:`repro.util.validation` -- argument-checking helpers shared by the
  public API.
* :mod:`repro.util.perf` -- the timer/counter registry the pipeline's hot
  paths report into.
"""

from repro.util import perf
from repro.util.gray import gray_code, gray_rank, gray_sequence

__all__ = [
    "perf",
    "gray_code",
    "gray_rank",
    "gray_sequence",
]
