"""``repro.util.rng.Stream`` against ``numpy.random.default_rng``.

The stream must return numpy's float64 bits exactly (compared as
``uint64`` views, so a last-bit difference fails), for seeds of one to
five 32-bit entropy words, for sizes on both sides of each doubling of
the jump-ahead and of its 4,096-state blocks, and across calls.
"""

import numpy as np
import pytest

from repro.util.rng import Stream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 5]
SIZES = sorted(
    {0, 1, 2, 3}
    | {2**j + d for j in range(1, 17) for d in (-1, 1)}
)


def _bits(values: np.ndarray) -> np.ndarray:
    assert values.dtype == np.float64
    return values.view(np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_call_matches_numpy(seed):
    for size in SIZES:
        want = np.random.default_rng(seed).random(size)
        got = Stream(seed).random(size)
        assert got.shape == (size,)
        assert np.array_equal(_bits(got), _bits(want)), size


@pytest.mark.parametrize("seed", [0, 7, 2**128 + 5])
def test_repeated_calls_continue_numpy_stream(seed):
    stream, generator = Stream(seed), np.random.default_rng(seed)
    for size in (3, 0, 1, 64, 17, 0, 1000, 2**12 + 1, 3 * 2**12 + 7, 5):
        assert np.array_equal(
            _bits(stream.random(size)), _bits(generator.random(size))
        ), size


@pytest.mark.parametrize("seed", [None, -1, -(2**64), 1.0, 0.5, True, False, "1"])
def test_refuses_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises((ValueError, TypeError), match="seed"):
        Stream(seed)
