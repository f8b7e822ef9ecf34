"""Consensus delay: the (ε, δ) metric of Section 6.

"Given a time t and a ratio 0 < ε ≤ 1, the ε point consensus delay is
the smallest time difference Δ such that at least ε·|N| of the nodes at
time t report the same state machine transition prefix up to time
t − Δ."  The (ε, δ) consensus delay is then the δ-percentile of point
delays over the execution.  The paper's evaluation takes (90%, 90%).

A node's reported prefix up to τ is fully determined by the *last* block
in its main chain generated at or before τ (hash chains share all
ancestors), so agreement on the prefix is agreement on that head block.
"""

from __future__ import annotations

import bisect
import math

from ..stats import percentile
from .collector import ObservationLog


def _chain_schedule(
    log: ObservationLog, tip: bytes
) -> tuple[list[float], list[bytes]]:
    """(generation times, hashes) along a chain, in chain order.

    Generation times are non-decreasing along any chain because every
    block is generated after its parent.
    """
    chain = log.index.chain(tip)
    times = [log.index.info(h).gen_time for h in chain]
    return times, list(chain)


def point_consensus_delay(
    log: ObservationLog, t: float, epsilon: float = 0.9
) -> float:
    """The ε point-consensus delay at time ``t`` (Figure 4's Δ)."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    threshold = math.ceil(epsilon * log.n_nodes)
    # Nodes holding the same tip report the same prefix at every τ, so
    # one schedule per distinct tip, weighted by its holders, suffices.
    holders: dict[bytes | None, int] = {}
    for history in log.tip_histories:
        tip = history.tip_at(t)
        holders[tip] = holders.get(tip, 0) + 1
    schedules = []
    candidate_times: set[float] = set()
    for tip, count in holders.items():
        if tip is None:
            schedules.append(([], [], count))
            continue
        times, hashes = _chain_schedule(log, tip)
        schedules.append((times, hashes, count))
        for gen_time in times:
            if gen_time <= t:
                candidate_times.add(gen_time)
    # Heads only change at block generation times, so scanning those
    # (descending) plus t itself is exhaustive.
    for tau in sorted(candidate_times | {t}, reverse=True):
        if tau > t:
            continue
        heads: dict[bytes | None, int] = {}
        for times, hashes, count in schedules:
            index = bisect.bisect_right(times, tau) - 1
            head = hashes[index] if index >= 0 else None
            heads[head] = heads.get(head, 0) + count
        if heads and max(heads.values()) >= threshold:
            return t - tau
    # All nodes trivially agree on the empty prefix before genesis.
    return t


def consensus_delay(
    log: ObservationLog,
    epsilon: float = 0.9,
    delta: float = 0.9,
    n_samples: int = 40,
    warmup_fraction: float = 0.1,
) -> float:
    """The (ε, δ) consensus delay over the execution.

    Samples point-consensus delays at evenly spaced times (skipping an
    initial warm-up where the chain is still trivially short) and takes
    the δ-percentile.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    start = warmup_fraction * log.duration
    end = log.end_time
    if end <= start:
        raise ValueError("empty observation window")
    step = (end - start) / n_samples
    samples = [
        point_consensus_delay(log, start + (i + 1) * step, epsilon)
        for i in range(n_samples)
    ]
    return percentile(samples, delta)
