"""Sweep machinery and reporting on miniature configurations."""

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.propagation import (
    linear_fit,
    propagation_samples,
    propagation_study,
)
from repro.experiments.reporting import (
    format_propagation_table,
    format_series,
    format_sweep_table,
)
from repro.experiments.runner import run_experiment
from repro.experiments.sweeps import frequency_sweep, size_sweep

TINY = ExperimentConfig(
    n_nodes=15,
    target_blocks=15,
    target_key_blocks=5,
    cooldown=15.0,
)


@pytest.fixture(scope="module")
def tiny_frequency_sweep():
    return frequency_sweep(TINY, frequencies=(0.02, 0.2))


def test_frequency_sweep_structure(tiny_frequency_sweep):
    sweep = tiny_frequency_sweep
    assert len(sweep.points) == 4  # 2 frequencies × 2 protocols
    assert len(sweep.series(Protocol.BITCOIN)) == 2
    assert len(sweep.series(Protocol.BITCOIN_NG)) == 2


def test_sweep_point_statistics(tiny_frequency_sweep):
    point = tiny_frequency_sweep.points[0]
    values = [r.mining_power_utilization for r in point.results]
    assert min(values) <= point.mean("mining_power_utilization") <= max(values)


def test_size_sweep_structure():
    sweep = size_sweep(
        TINY, sizes=(2000, 20_000), protocols=(Protocol.BITCOIN,)
    )
    assert [p.x for p in sweep.points] == [2000.0, 20_000.0]


@pytest.mark.parametrize("sweep", [frequency_sweep, size_sweep])
def test_repeated_seed_is_rejected_before_any_run(sweep, monkeypatch):
    # A twin cell would count twice in its mean and overwrite its
    # sibling's trace files.
    def never(*args, **kwargs):
        raise AssertionError("a cell was run")

    monkeypatch.setattr("repro.experiments.sweeps.run_many", never)
    with pytest.raises(ValueError, match=r"seeds must be distinct, got \[0, 2, 0\]"):
        sweep(TINY, seeds=(0, 2, 0))


def test_sweep_table_formatting(tiny_frequency_sweep):
    table = format_sweep_table(tiny_frequency_sweep)
    assert "bitcoin-ng" in table
    assert "Fairness" in table
    assert len(table.splitlines()) == 5


def test_series_formatting(tiny_frequency_sweep):
    series = format_series(tiny_frequency_sweep, "consensus_delay")
    lines = series.splitlines()
    assert len(lines) == 3  # header + 2 x values


def test_propagation_study_linear():
    points = propagation_study(TINY, sizes=(5_000, 20_000, 60_000))
    assert [p.block_size for p in points] == [5_000, 20_000, 60_000]
    # Larger blocks take longer — the Figure 7 monotone trend.
    assert points[0].p50 < points[-1].p50
    for point in points:
        assert point.p25 <= point.p50 <= point.p75
    slope, intercept, r_squared = linear_fit(points)
    assert slope > 0
    assert r_squared > 0.9
    table = format_propagation_table(points)
    assert "p50" in table and len(table.splitlines()) == 4


def test_propagation_samples_positive():
    result, log = run_experiment(TINY.with_(protocol=Protocol.BITCOIN))
    samples = propagation_samples(log)
    assert samples
    assert all(s >= 0 for s in samples)
