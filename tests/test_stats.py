"""Shared statistics helpers."""

import pytest

from repro.stats import (
    LinearFit,
    linear_fit,
    percentile,
    summarize,
)


def test_percentile_empirical():
    samples = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(samples, 0.0) == 10.0
    assert percentile(samples, 0.5) == 30.0
    assert percentile(samples, 0.9) == 50.0
    assert percentile(samples, 1.0) == 50.0


def test_percentile_interpolated():
    samples = [0.0, 10.0]
    assert percentile(samples, 0.5, interpolate=True) == pytest.approx(5.0)
    assert percentile(samples, 0.25, interpolate=True) == pytest.approx(2.5)


def test_percentile_unsorted_input():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_linear_fit_exact():
    fit = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_linear_fit_noisy_r_squared_below_one():
    fit = linear_fit([0, 1, 2, 3], [0, 1.2, 1.8, 3.1])
    assert 0.9 < fit.r_squared < 1.0


def test_linear_fit_validation():
    with pytest.raises(ValueError):
        linear_fit([1], [1])
    with pytest.raises(ValueError):
        linear_fit([1, 2], [1])
    with pytest.raises(ValueError):
        linear_fit([1, 1], [1, 2])


def test_summarize():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.n == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.minimum == 1.0
    assert summary.maximum == 4.0
    assert summary.stdev == pytest.approx(1.118, abs=1e-3)


def test_summarize_empty():
    with pytest.raises(ValueError):
        summarize([])
