"""Mining power distributions and the exponential fit."""

import math

import pytest

from repro.mining.power import (
    PAPER_EXPONENT,
    exponential_shares,
    fit_exponential,
)


def test_exponential_shares_normalized():
    shares = exponential_shares(20)
    assert len(shares) == 20
    assert sum(shares) == pytest.approx(1.0)
    assert exponential_shares(1) == [1.0]


def test_exponential_shares_descending():
    shares = exponential_shares(20)
    assert shares == sorted(shares, reverse=True)


def test_paper_exponent_largest_miner_near_quarter():
    # With the paper's fit, the top pool holds a bit under 1/4 — the
    # boundary of the threat model.
    shares = exponential_shares(20, PAPER_EXPONENT)
    assert 0.20 <= shares[0] <= 0.25


def test_consecutive_ratio_matches_exponent():
    shares = exponential_shares(10, -0.3)
    for a, b in zip(shares, shares[1:]):
        assert b / a == pytest.approx(math.exp(-0.3))


def test_fit_recovers_exponent_exactly():
    shares = exponential_shares(20, -0.27)
    exponent, r_squared = fit_exponential(shares)
    assert exponent == pytest.approx(-0.27, abs=1e-9)
    assert r_squared == pytest.approx(1.0)


def test_fit_on_noisy_data():
    shares = [s * (1 + 0.01 * ((-1) ** i)) for i, s in enumerate(exponential_shares(20, -0.27))]
    exponent, r_squared = fit_exponential(shares)
    assert exponent == pytest.approx(-0.27, abs=0.01)
    assert r_squared > 0.99


def test_validation():
    with pytest.raises(ValueError):
        exponential_shares(0)
    with pytest.raises(ValueError):
        fit_exponential([0.5])
    with pytest.raises(ValueError, match="positive"):
        fit_exponential([0.5, 0.0])


def test_fit_matches_a_hand_worked_regression():
    # log-shares (0, -2, -1) at ranks (1, 2, 3): deviations (1, -1, 0)
    # against (-1, 0, 1), so sxy = -1, sxx = syy = 2: slope -1/2, r = -1/2.
    exponent, r_squared = fit_exponential([1.0, math.exp(-2), math.exp(-1)])
    assert exponent == pytest.approx(-0.5)
    assert r_squared == pytest.approx(0.25)


def test_fit_edge_inputs():
    # Two ranks always fit exactly; equal shares fit a flat line.
    assert fit_exponential([0.6, 0.4])[1] == pytest.approx(1.0)
    assert fit_exponential([0.25] * 4) == (0.0, 1.0)
