"""Batch-first stream draws (:class:`repro.simcore.StreamRNG`).

The batched drivers' RNG contract: batched views share the underlying
generator with scalar consumers of the same name, and batch draws are
deterministic per seed.
"""

import numpy as np

from repro.simcore import Distribution, RandomStreams


def test_batched_view_shares_the_named_generator():
    streams = RandomStreams(7)
    rng = streams.batched("x")
    assert rng.gen is streams.stream("x")


def test_batched_view_is_cached():
    streams = RandomStreams(7)
    assert streams.batched("x") is streams.batched("x")
    assert streams.batched("x") is not streams.batched("y")


def test_draw_batch_matches_direct_sample_n():
    """draw_batch is exactly Distribution.sample_n on the same stream —
    no extra draws, no reordering."""
    dist = Distribution.exponential(0.3)
    a = dist.sample_n(RandomStreams(5).stream("s"), 64)
    b = RandomStreams(5).batched("s").draw_batch(dist, 64)
    assert np.array_equal(a, b)


def test_exponential_and_uniform_batches_deterministic():
    a = RandomStreams(9).batched("s")
    b = RandomStreams(9).batched("s")
    assert np.array_equal(
        a.exponential_batch(0.1, 32), b.exponential_batch(0.1, 32)
    )
    assert np.array_equal(
        a.uniform_batch(1.0, 2.0, 32), b.uniform_batch(1.0, 2.0, 32)
    )


def test_batch_statistics_match_family():
    rng = RandomStreams(11).batched("stats")
    exp = rng.exponential_batch(0.25, 20_000)
    uni = rng.uniform_batch(3.0, 5.0, 20_000)
    assert abs(exp.mean() - 0.25) < 0.01
    assert 3.0 <= uni.min() and uni.max() <= 5.0
    assert abs(uni.mean() - 4.0) < 0.02
