"""The batch draw kernels are numpy's own reference calls, bit for bit.

``StreamRNG.exponential_batch`` and ``Distribution`` sampling compute
their variates without going through ``Generator.exponential`` or
``Generator.choice``; each must return the same bits *and* leave the
stream at the same position as the call it replaces, on the numpy
installed here.
"""

import math

import numpy as np
import pytest

from repro.simcore import Distribution
from repro.simcore.rng import StreamRNG

SEEDS = (0, 3, 17, 2**31 - 1)
SIZES = (0, 1, 100_000)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def _next(gen):
    """The stream position after a draw, as its next raw words."""
    return gen.bit_generator.random_raw(4).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("mean", [1e-4, 0.0237, 1.0, 3.7e5, 0.0])
def test_exponential_batch_is_generator_exponential(seed, n, mean):
    ref = np.random.default_rng(seed)
    want = ref.exponential(mean, size=n)
    got_rng = StreamRNG(np.random.default_rng(seed))
    got = got_rng.exponential_batch(mean, n)
    assert _same_bits(got, want)
    assert _next(got_rng.gen) == _next(ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_draw_batch_exponential_is_generator_exponential(seed, n):
    ref = np.random.default_rng(seed)
    want = ref.exponential(0.3, size=n)
    got_rng = StreamRNG(np.random.default_rng(seed))
    got = got_rng.draw_batch(Distribution.exponential(0.3), n)
    assert _same_bits(got, want)
    assert _next(got_rng.gen) == _next(ref)


@pytest.mark.parametrize("mean", [-1.0, -1e-300, -0.0])
def test_exponential_batch_rejects_what_numpy_rejects(mean):
    with pytest.raises(ValueError):
        np.random.default_rng(0).exponential(mean, size=3)
    rng = StreamRNG(np.random.default_rng(0))
    with pytest.raises(ValueError):
        rng.exponential_batch(mean, 3)
    # A rejected call draws nothing.
    assert _next(rng.gen) == _next(np.random.default_rng(0))


def test_exponential_batch_passes_nan_like_numpy():
    want = np.random.default_rng(1).exponential(math.nan, size=4)
    got = StreamRNG(np.random.default_rng(1)).exponential_batch(math.nan, 4)
    assert np.isnan(want).all() and np.isnan(got).all()


# -- empirical ---------------------------------------------------------------

EMPIRICAL = {
    "streaming-ladder": (
        [0.35, 0.75, 1.25, 2.5, 4.0], [0.15, 0.25, 0.3, 0.2, 0.1]
    ),
    "zero-weights": ([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.5, 0.0, 0.5, 0.0]),
    "leading-zero": ([7.0, 8.0], [0.0, 1.0]),
    "trailing-zero": ([7.0, 8.0, 9.0], [1.0, 0.0, 0.0]),
    "one-point": ([42.0], None),
    "unnormalized": ([1.0, 2.0, 3.0], [3.0, 1.0, 6.0]),
    "uniform": ([float(v) for v in range(10)], None),
    "wide": (
        [float(v) for v in range(40)],
        [float((v * 7) % 5) for v in range(40)],
    ),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", sorted(EMPIRICAL))
def test_empirical_is_generator_choice(seed, n, case):
    values, weights = EMPIRICAL[case]
    dist = Distribution.empirical(values, weights)
    p = dist.params
    ref = np.random.default_rng(seed)
    want = np.asarray(p["values"])[
        ref.choice(len(p["values"]), size=n, p=np.asarray(p["weights"]))
    ]
    gen = np.random.default_rng(seed)
    got = dist.sample_n(gen, n)
    assert _same_bits(got, want)
    assert _next(gen) == _next(ref)


def test_empirical_scalar_sample_is_choice():
    dist = Distribution.empirical(*EMPIRICAL["streaming-ladder"])
    p = dist.params
    ref = np.random.default_rng(5)
    gen = np.random.default_rng(5)
    for _ in range(200):
        want = p["values"][
            int(ref.choice(len(p["values"]), size=1, p=p["weights"])[0])
        ]
        assert dist.sample(gen) == want
    assert _next(gen) == _next(ref)


@pytest.mark.parametrize(
    "weights",
    [[0.5, -0.1, 0.6], [-1.0, 2.0], [math.nan, 1.0], [math.inf, 1.0]],
    ids=["negative", "negative-first", "nan", "inf"],
)
def test_empirical_rejects_negative_and_non_finite_weights(weights):
    with pytest.raises(ValueError, match="finite and >= 0"):
        Distribution.empirical([1.0] * len(weights), weights)


class _FixedUniforms:
    """A generator stand-in whose ``random(n)`` returns given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("case", ["zero-weights", "uniform"])
def test_empirical_ties_break_like_searchsorted_right(case):
    """A uniform equal to a CDF entry maps past it, as ``choice``'s
    ``searchsorted(side="right")`` does (measure zero for real draws)."""
    values, weights = EMPIRICAL[case]
    dist = Distribution.empirical(values, weights)
    cdf = np.cumsum(dist.params["weights"])
    cdf /= cdf[-1]
    u = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0.0)])
    u = u[u < 1.0]  # ``random`` draws from [0, 1)
    want = np.asarray(values)[np.searchsorted(cdf, u, side="right")]
    assert _same_bits(dist.sample_n(_FixedUniforms(u), u.size), want)
