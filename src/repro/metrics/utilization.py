"""Mining power utilization (Section 6).

"The mining power utilization is the ratio between the mining power
that secures the system and the total mining power.  Mining power
wasted on work that does not appear on the blockchain accounts for the
difference."  Operationally (Section 8): "the proportion between the
aggregate work of the main chain blocks and all blocks.  In Bitcoin-NG,
difficulty is only accrued in key blocks, so microblock forks do not
reduce mining power utilization."
"""

from __future__ import annotations

from .collector import ObservationLog


def mining_power_utilization(log: ObservationLog) -> float:
    """Main-chain work over total generated work."""
    total_work = 0
    for info in log.index.all_blocks():
        total_work += info.work
    if total_work == 0:
        raise ValueError("no proof-of-work blocks recorded")
    main_work = sum(log.index.info(h).work for h in log.main_chain())
    return main_work / total_work
