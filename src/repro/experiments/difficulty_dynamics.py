"""Difficulty dynamics under mining power variation (Section 5.2).

"Whichever adjustment rate is chosen, these protocols are all sensitive
to sudden mining power drops ...  since the difficulty is high, the
remaining miners will need a longer time to generate the next block,
potentially orders of magnitude longer."

This module simulates the full control loop: blocks arrive with
exponential intervals at a rate set by (current power / difficulty),
and every ``window`` blocks Bitcoin's epoch rule rescales the
difficulty to the observed window, clamped to :data:`RETARGET_CLAMP`.
Power drops/surges are injected on a schedule, producing the
stall-and-recover block-interval time series the paper describes — and
against which Bitcoin-NG's constant-rate microblock serialization is
contrasted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Bitcoin's retarget clamp: one adjustment moves difficulty at most 4×.
RETARGET_CLAMP = 4.0


@dataclass(frozen=True)
class PowerEvent:
    """At ``time``, total mining power becomes ``power`` (relative)."""

    time: float
    power: float


@dataclass
class DifficultyTrace:
    """The simulated time series."""

    block_times: list[float] = field(default_factory=list)
    difficulties: list[float] = field(default_factory=list)  # per block
    powers: list[float] = field(default_factory=list)  # per block

    def mean_interval(self, start: float, end: float) -> float:
        """Mean inter-block time among blocks in [start, end)."""
        times = [t for t in self.block_times if start <= t < end]
        if len(times) < 2:
            return float("inf")
        return (times[-1] - times[0]) / (len(times) - 1)


def simulate_difficulty_dynamics(
    target_interval: float,
    window: int,
    duration: float,
    power_schedule: list[PowerEvent],
    seed: int = 0,
) -> DifficultyTrace:
    """Run the block-production / retargeting control loop.

    Difficulty is expressed as the expected time (seconds) one unit of
    power needs per block; the instantaneous block rate is
    ``power / difficulty``.  Retargeting multiplies difficulty by
    (target window duration / observed window duration), clamped.
    """
    if target_interval <= 0 or duration <= 0 or window < 1:
        raise ValueError("target interval, duration, window must be positive")
    if any(event.power <= 0 for event in power_schedule):
        raise ValueError("power must stay positive")
    rng = random.Random(seed)
    schedule = sorted(power_schedule, key=lambda e: e.time)
    power = 1.0
    difficulty = target_interval  # calibrated for power 1.0
    trace = DifficultyTrace()
    now = 0.0
    window_start_time = 0.0
    blocks_in_window = 0
    pending = list(schedule)
    while now < duration:
        # Apply any power change that occurs before the next block.
        rate = power / difficulty
        interval = rng.expovariate(rate)
        next_block = now + interval
        if pending and pending[0].time <= next_block:
            event = pending.pop(0)
            now = event.time
            power = event.power
            continue
        now = next_block
        if now >= duration:
            break
        trace.block_times.append(now)
        trace.difficulties.append(difficulty)
        trace.powers.append(power)
        blocks_in_window += 1
        if blocks_in_window == window:
            observed = now - window_start_time
            expected = target_interval * window
            # ``difficulty`` is seconds-per-block: blocks arriving too
            # fast (observed < expected) must *raise* it.
            factor = expected / observed
            factor = min(max(factor, 1.0 / RETARGET_CLAMP), RETARGET_CLAMP)
            difficulty *= factor
            window_start_time = now
            blocks_in_window = 0
    return trace


@dataclass(frozen=True)
class PowerDropReport:
    """Summary of a drop experiment for tests and benchmarks."""

    interval_before: float
    interval_during_stall: float
    interval_after_recovery: float
    blocks_to_recover: int

    @property
    def stall_factor(self) -> float:
        return self.interval_during_stall / self.interval_before


def run_power_drop(
    target_interval: float = 10.0,
    window: int = 20,
    drop_to: float = 0.25,
    seed: int = 0,
) -> PowerDropReport:
    """The canonical Section 5.2 scenario, summarized.

    Mines steadily, drops power to ``drop_to`` after ten retarget
    windows, and keeps going while difficulty adapts.
    """
    drop_time = target_interval * window * 10
    duration = drop_time + target_interval * window * 30 / drop_to
    trace = simulate_difficulty_dynamics(
        target_interval=target_interval,
        window=window,
        duration=duration,
        power_schedule=[PowerEvent(drop_time, drop_to)],
        seed=seed,
    )
    before = trace.mean_interval(0.0, drop_time)
    # The stall: from the drop until difficulty first falls below the
    # pre-drop level times drop_to (fully adapted).
    adapted_difficulty = target_interval * drop_to * 1.10  # 10% slack
    recovery_index = None
    for index, time in enumerate(trace.block_times):
        if time <= drop_time:
            continue
        if trace.difficulties[index] <= adapted_difficulty:
            recovery_index = index
            break
    if recovery_index is None:
        recovery_index = len(trace.block_times) - 1
    recovery_time = trace.block_times[recovery_index]
    during = trace.mean_interval(drop_time, recovery_time)
    after = trace.mean_interval(recovery_time, trace.block_times[-1] + 1)
    drop_block = sum(1 for t in trace.block_times if t <= drop_time)
    return PowerDropReport(
        interval_before=before,
        interval_during_stall=during,
        interval_after_recovery=after,
        blocks_to_recover=recovery_index - drop_block,
    )
