"""Fairness: representation of the largest miner (Section 6).

"We calculate two ratios: (1) the ratio of transitions not coming from
the largest miner with respect to all transitions, and (2) the ratio of
mining power not owned by the largest miner with respect to all mining
power.  We call the ratio of these ratios the fairness."

The evaluation section substitutes generated blocks for mining power in
the denominator ("the ratio of blocks not generated by the largest
miner with respect to all generated blocks"), which is an unbiased
estimator of the same quantity; both variants are provided.

Fairness below 1.0 means the largest miner is over-represented in the
main chain — the centralization pressure the paper warns about.
"""

from __future__ import annotations

from typing import Iterable

from .collector import BlockInfo, ObservationLog

# Block kinds that represent mining contributions.  Microblocks carry no
# proof of work, so fairness (like weight) is over key blocks in NG.
WEIGHT_KINDS = frozenset({"block", "key"})


def mined(infos: Iterable[BlockInfo]) -> list[BlockInfo]:
    """The blocks that are mining contributions (genesis has no miner)."""
    return [
        info for info in infos
        if info.kind in WEIGHT_KINDS and info.miner >= 0
    ]


def _largest_miner_by_blocks(log: ObservationLog) -> int:
    counts: dict[int, int] = {}
    for info in mined(log.index.all_blocks()):
        counts[info.miner] = counts.get(info.miner, 0) + 1
    if not counts:
        raise ValueError("no mined blocks recorded")
    return max(counts, key=lambda miner: (counts[miner], -miner))


def fairness(
    log: ObservationLog,
    power_shares: list[float] | None = None,
    largest_miner: int | None = None,
) -> float:
    """The fairness ratio for this execution.

    ``power_shares`` (per node) selects the Section 6 definition with
    the true power in the denominator; without it the Section 8
    generated-blocks estimator is used.  ``largest_miner`` overrides
    automatic largest-miner detection.
    """
    if largest_miner is None:
        if power_shares is not None:
            largest_miner = max(
                range(len(power_shares)), key=lambda i: power_shares[i]
            )
        else:
            largest_miner = _largest_miner_by_blocks(log)
    main = mined(log.index.info(h) for h in log.main_chain())
    if not main:
        raise ValueError("empty main chain")
    main_not_largest = sum(1 for info in main if info.miner != largest_miner)
    main_ratio = main_not_largest / len(main)
    if power_shares is not None:
        power_ratio = 1.0 - power_shares[largest_miner] / sum(power_shares)
    else:
        generated = mined(log.index.all_blocks())
        generated_not_largest = sum(
            1 for info in generated if info.miner != largest_miner
        )
        power_ratio = generated_not_largest / len(generated)
    if power_ratio == 0:
        raise ValueError("largest miner generated every block")
    return main_ratio / power_ratio
