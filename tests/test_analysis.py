"""Analytical fork models, cross-validated against the simulator."""

import pytest

from repro.analysis import (
    bitcoin_fork_probability,
    expected_mining_power_utilization,
    ng_microblock_prune_probability,
)


def test_fork_probability_limits():
    # No propagation delay limit: forks vanish.
    assert bitcoin_fork_probability(600, 1e-9) == pytest.approx(0.0, abs=1e-8)
    # Delay >> interval: forks certain.
    assert bitcoin_fork_probability(1, 100) == pytest.approx(1.0, abs=1e-8)


def test_fork_probability_bitcoin_operational():
    # ~10 s propagation, 600 s blocks → the famous ~1.6% stale rate
    # ("accidental bifurcation ... once about every 60 blocks").
    p = bitcoin_fork_probability(600, 10)
    assert p == pytest.approx(1 / 60, rel=0.1)


def test_fork_probability_monotone():
    assert bitcoin_fork_probability(600, 20) > bitcoin_fork_probability(600, 10)
    assert bitcoin_fork_probability(60, 10) > bitcoin_fork_probability(600, 10)


def test_ng_prune_probability_independent_of_micro_rate():
    # The scalability core: the per-microblock prune risk depends only
    # on the key interval and the propagation time.
    import math

    p = ng_microblock_prune_probability(100, 2)
    assert p == pytest.approx(1 - math.exp(-0.02))
    assert p < 0.03


def test_validation():
    with pytest.raises(ValueError):
        bitcoin_fork_probability(0, 1)
    with pytest.raises(ValueError):
        ng_microblock_prune_probability(100, 0)


# -- cross-validation against the simulator ---------------------------------


@pytest.mark.parametrize("interval,expected_tol", [(20.0, 0.08), (5.0, 0.15)])
def test_analytic_utilization_matches_simulation(interval, expected_tol):
    from repro.experiments import ExperimentConfig, Protocol, run_experiment
    from repro.experiments.propagation import propagation_samples
    from repro.stats import percentile

    config = ExperimentConfig(
        protocol=Protocol.BITCOIN,
        n_nodes=40,
        block_rate=1.0 / interval,
        block_size_bytes=5_000,
        target_blocks=150,
        cooldown=30.0,
        seed=11,
    )
    result, log = run_experiment(config)
    samples = propagation_samples(log)
    # Use the median *miner-to-miner* propagation as the model's delay.
    delay = percentile(samples, 0.5)
    predicted = expected_mining_power_utilization(interval, delay)
    assert result.mining_power_utilization == pytest.approx(
        predicted, abs=expected_tol
    )


def test_simulated_growth_within_bounds():
    from repro.experiments import ExperimentConfig, Protocol, run_experiment
    from repro.experiments.propagation import propagation_samples
    from repro.stats import percentile

    config = ExperimentConfig(
        protocol=Protocol.BITCOIN,
        n_nodes=40,
        block_rate=0.2,
        block_size_bytes=5_000,
        target_blocks=200,
        cooldown=30.0,
        seed=12,
    )
    result, log = run_experiment(config)
    samples = propagation_samples(log)
    delay = percentile(samples, 0.9)
    # Sompolinsky & Zohar: with block rate λ and delay D the main chain
    # grows at least λ/(1 + λD) and at most λ blocks per second.
    lower, upper = 0.2 / (1.0 + 0.2 * delay), 0.2
    growth = result.main_chain_length / result.duration
    assert lower * 0.9 <= growth <= upper * 1.05
