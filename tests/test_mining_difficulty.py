"""Power-drop dynamics under difficulty retargeting (Section 5.2)."""

import pytest

from repro.mining.difficulty import expected_block_interval, recovery_blocks


def test_power_drop_stretches_interval():
    # Half the miners leave → blocks take twice as long until retarget.
    assert expected_block_interval(1 / 600, 0.5) == pytest.approx(1200)
    # A 90% drop: 10x stall, the alt-coin death spiral.
    assert expected_block_interval(1 / 600, 0.1) == pytest.approx(6000)


def test_recovery_blocks():
    # Drop to 1/4 power: one clamped epoch suffices (4x easing).
    assert recovery_blocks(2016, 4.0, 0.25) == 2016
    # Drop to 1/16: two epochs.
    assert recovery_blocks(2016, 4.0, 1 / 16) == 2 * 2016
    # No drop, no recovery needed.
    assert recovery_blocks(2016, 4.0, 1.0) == 0


def test_validation():
    with pytest.raises(ValueError):
        expected_block_interval(0, 0.5)
    with pytest.raises(ValueError):
        expected_block_interval(1, 0)
    with pytest.raises(ValueError):
        recovery_blocks(2016, 1.0, 0.5)
    # Full power is the top of the legal range; more than all of it is not.
    assert expected_block_interval(2.0, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        expected_block_interval(1, 1.5)
    with pytest.raises(ValueError):
        recovery_blocks(2016, 4.0, 1.5)
    # Any clamp above 1 is legal, however close to 1.
    assert recovery_blocks(10, 2.0, 0.25) == 20
    assert recovery_blocks(10, 1.5, 0.5) == 20
