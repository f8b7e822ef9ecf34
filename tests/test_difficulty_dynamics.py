"""The retargeting control loop under power variation (Section 5.2)."""

import pytest

from repro.experiments.difficulty_dynamics import (
    PowerEvent,
    run_power_drop,
    simulate_difficulty_dynamics,
)


def test_steady_state_hits_target_interval():
    trace = simulate_difficulty_dynamics(
        target_interval=10.0,
        window=20,
        duration=20_000.0,
        power_schedule=[],
        seed=1,
    )
    mean = trace.mean_interval(2_000.0, 20_000.0)
    assert mean == pytest.approx(10.0, rel=0.15)


def test_power_drop_stalls_blocks():
    trace = simulate_difficulty_dynamics(
        target_interval=10.0,
        window=100,
        duration=40_000.0,
        power_schedule=[PowerEvent(10_000.0, 0.25)],
        seed=2,
    )
    before = trace.mean_interval(2_000.0, 10_000.0)
    # Right after the drop — before the first post-drop retarget (a
    # 100-block window at 4x-slow blocks takes ~4000 s) — intervals
    # stretch by roughly the reciprocal of the remaining power.
    just_after = trace.mean_interval(10_000.0, 11_500.0)
    assert just_after > before * 2.5


def test_retargeting_eventually_recovers():
    report = run_power_drop(
        target_interval=10.0, window=20, drop_to=0.25, seed=3
    )
    assert report.stall_factor > 2.0  # the painful period
    assert report.interval_after_recovery == pytest.approx(10.0, rel=0.35)
    assert report.blocks_to_recover > 0


def test_deeper_drop_longer_stall():
    mild = run_power_drop(drop_to=0.5, seed=4)
    severe = run_power_drop(drop_to=0.1, seed=4)
    assert severe.stall_factor > mild.stall_factor


def test_power_surge_speeds_blocks_until_adjustment():
    trace = simulate_difficulty_dynamics(
        target_interval=10.0,
        window=100,
        duration=30_000.0,
        power_schedule=[PowerEvent(10_000.0, 4.0)],
        seed=5,
    )
    before = trace.mean_interval(2_000.0, 10_000.0)
    # A 4x surge quarters the interval until the next retarget window
    # (which the fast blocks reach quickly, ~250 s).
    just_after = trace.mean_interval(10_000.0, 10_240.0)
    assert just_after < before / 2.0
    # After adaptation the interval returns near target.
    late = trace.mean_interval(25_000.0, 30_000.0)
    assert late == pytest.approx(10.0, rel=0.4)


def test_difficulty_trace_structure():
    trace = simulate_difficulty_dynamics(
        target_interval=5.0,
        window=10,
        duration=2_000.0,
        power_schedule=[],
        seed=6,
    )
    assert len(trace.block_times) == len(trace.difficulties)
    assert len(trace.block_times) == len(trace.powers)
    times = trace.block_times
    assert all(a < b for a, b in zip(times, times[1:]))


def test_validation():
    with pytest.raises(ValueError):
        simulate_difficulty_dynamics(0, 10, 100, [])
    with pytest.raises(ValueError):
        simulate_difficulty_dynamics(10, 0, 100, [])
    with pytest.raises(ValueError):
        simulate_difficulty_dynamics(
            10, 10, 100, [PowerEvent(5.0, 0.0)]
        )
