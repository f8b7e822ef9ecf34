"""Latency histogram construction and sampling."""

import random

import pytest

from repro.net.latency import (
    LatencyHistogram,
    constant_histogram,
    default_histogram,
)


def test_from_samples_roundtrip():
    samples = [0.05, 0.10, 0.10, 0.20, 0.30]
    hist = LatencyHistogram.from_samples(samples, n_bins=5)
    assert sum(hist.counts) == len(samples)


def test_sampling_within_range():
    hist = LatencyHistogram.from_samples([0.1, 0.2, 0.3], n_bins=4)
    rng = random.Random(0)
    for _ in range(200):
        value = hist.sample(rng)
        assert 0.1 <= value <= 0.3


def test_sampling_follows_mass():
    # 90% of mass in the low bin → most samples low.
    hist = LatencyHistogram([0.0, 1.0, 2.0], [90, 10])
    rng = random.Random(1)
    low = sum(1 for _ in range(2000) if hist.sample(rng) < 1.0)
    assert 1650 <= low <= 1950


def test_quantiles_ordered():
    hist = default_histogram()
    assert hist.quantile(0.25) <= hist.quantile(0.5) <= hist.quantile(0.9)


def test_default_histogram_realistic():
    hist = default_histogram()
    median = hist.quantile(0.5)
    assert 0.05 <= median <= 0.2  # around 110 ms
    assert hist.quantile(0.99) <= 0.45  # clipped tail
    assert hist.mean() > 0


def test_default_histogram_deterministic():
    a = default_histogram(seed=5)
    b = default_histogram(seed=5)
    assert a.counts == b.counts
    assert a.bin_edges == b.bin_edges


def test_constant_histogram():
    hist = constant_histogram(0.1)
    rng = random.Random(0)
    assert hist.sample(rng) == pytest.approx(0.1, rel=1e-6)


def test_validation_errors():
    with pytest.raises(ValueError):
        LatencyHistogram([0.0, 1.0], [1, 2])  # edge/count mismatch
    with pytest.raises(ValueError):
        LatencyHistogram([0.0, 1.0], [0])  # empty mass
    with pytest.raises(ValueError):
        LatencyHistogram([1.0, 0.5], [1])  # non-increasing edges
    with pytest.raises(ValueError):
        LatencyHistogram.from_samples([])
    with pytest.raises(ValueError):
        constant_histogram(0.0)
    with pytest.raises(ValueError):
        default_histogram().quantile(1.5)


# -- default_histogram: derived bins memoised, objects never shared -------


def _shape(hist):
    return hist.bin_edges, hist.counts


def test_default_histogram_calls_return_equal_but_separate_objects():
    a = default_histogram(seed=11)
    b = default_histogram(seed=11)
    assert a is not b and _shape(a) == _shape(b)
    assert a.counts is not b.counts and a.bin_edges is not b.bin_edges
    assert isinstance(a.counts, list) and isinstance(a.bin_edges, list)
    # Nothing a caller does to its histogram reaches the next caller.
    pristine = list(a.counts), list(a.bin_edges)
    a.counts[0] += 1000
    a.bin_edges.clear()
    fresh = default_histogram(seed=11)
    assert (fresh.counts, fresh.bin_edges) == pristine == (b.counts, b.bin_edges)


def test_default_histogram_differs_with_every_argument():
    base = _shape(default_histogram(seed=11))
    assert _shape(default_histogram(seed=12)) != base
    for changed in (
        {"n_samples": 4000},
        {"median_ms": 90.0},
        {"sigma": 0.4},
        {"floor_ms": 20.0},
        {"ceiling_ms": 300.0},
    ):
        assert _shape(default_histogram(seed=11, **changed)) != base, changed
    assert _shape(default_histogram(seed=11)) == base
    assert _shape(default_histogram()) == _shape(default_histogram(seed=2015))


def test_default_histogram_draws_are_pinned():
    # Literals taken from the commit before the bins were memoised: the
    # sample stream, and with it every link latency drawn, is unchanged.
    hist = default_histogram(seed=11)
    assert hist.counts[:8] == [15, 48, 80, 164, 187, 267, 286, 292]
    assert (hist.bin_edges[0], hist.bin_edges[-1]) == (0.016898962271851586, 0.4)
    assert (len(hist.counts), sum(hist.counts)) == (50, 5000)
    for _ in range(2):  # the same from a cold and from a warm memo
        assert default_histogram(seed=11).sample_batch(random.Random(3), 5) == [
            0.09805999677470971,
            0.07336771171814155,
            0.39597018728123506,
            0.27024773065194785,
            0.0391863892253262,
        ]
    default = default_histogram()
    assert default.sample_batch(random.Random(3), 3) == [
        0.09761574193645983,
        0.07288712626126993,
        0.38829096392505247,
    ]
    assert default.mean() == 0.12589305162775105
    assert default.quantile(0.5) == 0.11608811635976476
