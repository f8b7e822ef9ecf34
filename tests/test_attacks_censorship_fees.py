"""Censorship resistance numbers and fee-strategy Monte Carlos."""

import pytest

from repro.attacks.censorship import (
    expected_censorship_wait_blocks,
    expected_censorship_wait_time,
    power_drop_comparison,
)
from repro.attacks.fee_strategies import (
    fork_fee_competition,
    profitable_window,
    simulate_extension_strategy,
    simulate_inclusion_strategy,
)
from repro.core.incentives import incentive_window


def test_paper_censorship_number():
    # "the user will have to wait for 4/3 blocks on average, or 13.33
    # minutes."
    assert expected_censorship_wait_blocks(0.25) == pytest.approx(4 / 3)
    assert expected_censorship_wait_time(0.25, 600) == pytest.approx(800.0)


def test_honest_network_waits_one_block():
    assert expected_censorship_wait_blocks(0.0) == pytest.approx(1.0)


def test_power_drop_comparison():
    outcome = power_drop_comparison(0.5)
    assert outcome.stretched_key_interval == pytest.approx(2.0)
    assert outcome.bitcoin_tx_rate_factor == pytest.approx(0.5)
    # "transaction processing continues at the same rate, in microblocks"
    assert outcome.ng_tx_rate_factor == 1.0


def test_censorship_validation():
    with pytest.raises(ValueError):
        expected_censorship_wait_blocks(1.0)
    with pytest.raises(ValueError):
        expected_censorship_wait_time(0.25, 0)
    with pytest.raises(ValueError):
        power_drop_comparison(0.0)


# -- fee strategies -------------------------------------------------------


def test_inclusion_strategy_matches_closed_form():
    outcome = simulate_inclusion_strategy(0.25, 0.40, n_trials=300_000)
    expected = 0.25 + 0.75 * 0.25 * 0.60
    assert outcome.deviation_revenue == pytest.approx(expected, abs=0.005)
    assert not outcome.deviation_profitable


def test_extension_strategy_matches_closed_form():
    outcome = simulate_extension_strategy(0.25, 0.40, n_trials=300_000)
    expected = 0.40 + 0.25 * 0.60
    assert outcome.deviation_revenue == pytest.approx(expected, abs=0.005)
    assert not outcome.deviation_profitable


def test_deviations_profitable_outside_window():
    # Too small a leader share: withholding wins.
    inclusion = simulate_inclusion_strategy(0.25, 0.20, n_trials=100_000)
    assert inclusion.deviation_profitable
    # Too large a share: mining around wins.
    extension = simulate_extension_strategy(0.25, 0.60, n_trials=100_000)
    assert extension.deviation_profitable


def test_empirical_window_brackets_paper_choice():
    low, high = profitable_window(0.25, n_trials=40_000)
    assert low < 0.40 < high
    window = incentive_window(0.25)
    assert low == pytest.approx(window.lower, abs=0.04)
    assert high == pytest.approx(window.upper, abs=0.04)


def test_fee_strategy_validation():
    with pytest.raises(ValueError):
        simulate_inclusion_strategy(1.5, 0.4)
    with pytest.raises(ValueError):
        simulate_extension_strategy(0.25, 1.5)


def test_fork_fee_competition_appendix_b():
    outcome = fork_fee_competition((100, 200, 300), attacker_bribe=10_000)
    assert outcome.advantage_eliminated
    with pytest.raises(ValueError):
        fork_fee_competition((100,), attacker_bribe=-1)

