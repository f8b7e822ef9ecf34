"""Mining-power-variation dynamics under difficulty retargeting.

Section 5.2 ("Resilience to Mining Power Variation") compares adjustment
schedules — Bitcoin every 2016 blocks, Litecoin every 2016 (faster
blocks), Ethereum every block — and argues all are sensitive to sudden
mining power drops, while Bitcoin-NG keeps serializing transactions in
microblocks regardless.  This module holds a small analytical model of
the stall and the recovery time after a power drop, used by the
resilience benchmarks.
"""

from __future__ import annotations


def expected_block_interval(
    difficulty_rate: float, power_fraction_remaining: float
) -> float:
    """Expected interval after a power drop, before retargeting reacts.

    With block rate tuned to ``difficulty_rate`` under full power, losing
    power stretches the interval by its reciprocal: half the miners leave
    → blocks take twice as long.  The paper's point is that this stall
    can last "potentially orders of magnitude longer" for alt-coins.
    """
    if difficulty_rate <= 0:
        raise ValueError("rate must be positive")
    if not 0 < power_fraction_remaining <= 1:
        raise ValueError("remaining power fraction must be in (0, 1]")
    return (1.0 / difficulty_rate) / power_fraction_remaining


def recovery_blocks(window: int, clamp: float, power_fraction_remaining: float) -> int:
    """Blocks needed until retargeting restores the intended interval.

    Each epoch the difficulty can fall by at most ``clamp``x, so after a
    drop to fraction f the retargeter needs ceil(log_clamp(1/f)) epochs;
    each of those epochs is ``window`` blocks mined at depressed speed.
    """
    import math

    if not 0 < power_fraction_remaining <= 1:
        raise ValueError("remaining power fraction must be in (0, 1]")
    if clamp <= 1:
        raise ValueError("clamp must exceed 1")
    epochs = math.ceil(
        math.log(1.0 / power_fraction_remaining) / math.log(clamp)
    )
    return epochs * window
