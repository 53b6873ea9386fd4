"""A seeded PCG64 stream, bit-equal to ``numpy.random.default_rng(seed)``.

The seeded graph families draw a few thousand uniform doubles per graph.
``numpy.random`` would cost nine extension modules and, through
``secrets`` -> ``hmac`` -> ``hashlib``, OpenSSL's libcrypto (~6 MB
resident together), so the families draw from this stream instead:

* seeding is numpy's ``SeedSequence`` pool (four 32-bit words mixed from
  the seed's 32-bit words) hashed out to four 64-bit words, which become
  PCG64's 128-bit state and increment;
* the generator is PCG64 XSL-RR 128/64: step the LCG, then output;
* each double is ``(next64 >> 11) * 2**-53``.

``Stream(seed).random(k)`` returns the same float64 bits as
``np.random.default_rng(seed).random(k)``, and successive calls continue
one stream as numpy's do.  The states of one call come from jump-ahead
doublings over uint64 ``(hi, lo)`` arrays up to ``_BLOCK`` states, then
one jump of ``_BLOCK`` per further block, not a Python loop per draw.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_int, require

__all__ = ["Stream"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_W, _LOW = np.uint64(32), np.uint64(_M32)
#: States per block once the doublings reach it: a block's arrays stay in cache.
_BLOCK = 4096


def _hasher(const: int, mult: int):
    """numpy's 32-bit ``hashmix``, whose constant steps on every call."""

    def hash32(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * mult) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    return hash32


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return result ^ (result >> 16)


def _seed_words(seed: int) -> list:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``."""
    entropy = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [draw(pool[i % 4]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _affine(hi: np.ndarray, lo: np.ndarray, mult: int, add: int):
    """``(mult * x + add) mod 2**128`` over uint64 ``(hi, lo)`` halves.

    The high word of ``lo * mult_lo`` comes from 32-bit limbs; every other
    product only needs its low 64 bits, which uint64 arithmetic wraps to.
    """
    m1, m0 = np.uint64((mult >> 32) & _M32), np.uint64(mult & _M32)
    x1, x0 = lo >> _W, lo & _LOW
    cross0, cross1 = x0 * m1, x1 * m0
    mid = (x0 * m0 >> _W) + (cross0 & _LOW) + (cross1 & _LOW)
    carry = x1 * m1 + (cross0 >> _W) + (cross1 >> _W) + (mid >> _W)
    add_hi, add_lo = np.uint64(add >> 64), np.uint64(add & _M64)
    new_lo = lo * np.uint64(mult & _M64) + add_lo
    new_hi = carry + hi * np.uint64(mult & _M64) + lo * np.uint64(mult >> 64)
    return new_hi + add_hi + (new_lo < add_lo), new_lo


def _doubles(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of each state, as a double in ``[0, 1)``."""
    word = hi ^ lo
    turn = hi >> np.uint64(58)
    word = (word >> turn) | (word << ((np.uint64(64) - turn) & np.uint64(63)))
    return (word >> np.uint64(11)).astype(np.float64) * 2.0**-53


class Stream:
    """One seeded PCG64 stream; see the module docstring."""

    def __init__(self, seed: int):
        check_int(seed, "seed")
        require(seed >= 0, f"seed must be non-negative, got {seed}")
        s = _seed_words(seed)
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _MULT + self._inc) & _M128

    def random(self, k: int) -> np.ndarray:
        """The next *k* uniform doubles in ``[0, 1)``."""
        if not k:
            return np.zeros(0)
        step = (self._state * _MULT + self._inc) & _M128
        hi = np.array([step >> 64], dtype=np.uint64)
        lo = np.array([step & _M64], dtype=np.uint64)
        mult, add = _MULT, self._inc
        while len(lo) < min(k, _BLOCK):  # states 1..m, then m+1..2m: a jump of m
            more = k - len(lo)
            more_hi, more_lo = _affine(hi[:more], lo[:more], mult, add)
            hi, lo = np.concatenate((hi, more_hi)), np.concatenate((lo, more_lo))
            mult, add = (mult * mult) & _M128, (mult * add + add) & _M128
        out = [_doubles(hi, lo)]
        for _ in range(_BLOCK, k, _BLOCK):  # each next block: a jump of _BLOCK
            hi, lo = _affine(hi, lo, mult, add)
            out.append(_doubles(hi, lo))
        last = (k - 1) % len(lo)
        self._state = int(hi[last]) << 64 | int(lo[last])
        return np.concatenate(out)[:k]
