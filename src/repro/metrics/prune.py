"""Subjective time to prune and time to win (Section 6, Figure 5).

**Time to prune** — "the δ-percentile of the difference between the
time a node learns about such a transition and the time it learns that
this transition has not occurred."  Operationally (Section 8): "For
each node and for each branch, we measure the time it took for the node
to prune this branch.  This is the time between the receipt of the
first branch block and the receipt of the main chain block that is
longer than this branch."

**Time to win** — "the δ percentile of the difference between the
first time a node believes a never-to-be-pruned-transition has occurred
and the last time a (different) node disagrees."  Operationally: "the
90th percentile of the time from the generation of each main-chain
block to the last time another miner generates a block that is not its
descendant."
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from ..stats import percentile
from .collector import ObservationLog


def _branches(log: ObservationLog) -> dict[bytes, list[bytes]]:
    """Group pruned blocks into branches keyed by their branch root.

    A branch root is the first block off the final main chain; every
    pruned block belongs to the branch of its lowest off-chain ancestor.
    """
    main = set(log.main_chain())
    roots: dict[bytes, bytes] = {}

    def root_of(block_hash: bytes) -> bytes:
        cached = roots.get(block_hash)
        if cached is not None:
            return cached
        info = log.index.get(block_hash)
        if info is None or info.parent in main or info.parent not in log.index:
            roots[block_hash] = block_hash
            return block_hash
        root = root_of(info.parent)
        roots[block_hash] = root
        return root

    branches: dict[bytes, list[bytes]] = defaultdict(list)
    for info in log.index.all_blocks():
        if info.hash in main:
            continue
        branches[root_of(info.hash)].append(info.hash)
    return dict(branches)


def prune_samples(log: ObservationLog) -> list[float]:
    """All (node, branch) prune delays observed in the execution."""
    main_chain = log.main_chain()
    branches = _branches(log)
    if not branches:
        return []
    samples: list[float] = []
    main_work = [log.index.cumulative_work(h) for h in main_chain]
    for node in range(log.n_nodes):
        arrivals = log.arrivals[node]
        # Suffix-minimum arrival time of main-chain blocks at or beyond
        # each chain position, so "first main block heavier than W" is a
        # binary search plus lookup.
        suffix_min: list[float] = [float("inf")] * (len(main_chain) + 1)
        for i in range(len(main_chain) - 1, -1, -1):
            arrival = arrivals.get(main_chain[i], float("inf"))
            suffix_min[i] = min(arrival, suffix_min[i + 1])
        for branch_blocks in branches.values():
            received = [h for h in branch_blocks if h in arrivals]
            if not received:
                continue
            first_receipt = min(arrivals[h] for h in received)
            branch_weight = max(
                log.index.cumulative_work(h) for h in received
            )
            # First main-chain position strictly heavier than the branch.
            position = bisect.bisect_right(main_work, branch_weight)
            prune_time = suffix_min[position]
            if prune_time == float("inf"):
                continue  # censored: run ended before this node pruned
            if prune_time < first_receipt:
                # The node already held a heavier main block when the
                # branch arrived; it never adopted it — prune delay 0.
                samples.append(0.0)
            else:
                samples.append(prune_time - first_receipt)
    return samples


def time_to_prune(log: ObservationLog, delta: float = 0.9) -> float:
    """δ-percentile prune delay; 0.0 when the execution had no forks."""
    samples = prune_samples(log)
    if not samples:
        return 0.0
    return percentile(samples, delta)


def win_samples(log: ObservationLog) -> list[float]:
    """Time-to-win for every main-chain block."""
    main_chain = log.main_chain()
    main_set = set(main_chain)
    heights = {h: i for i, h in enumerate(main_chain)}
    # For each pruned block, the height of its last main-chain ancestor:
    # it competes with (is not a descendant of) every main block above.
    competitors: list[tuple[int, float]] = []
    for info in log.index.all_blocks():
        if info.hash in main_set:
            continue
        cursor = info.hash
        while cursor not in main_set:
            parent = log.index.get(cursor)
            if parent is None:
                break
            cursor = parent.parent
        fork_height = heights.get(cursor, -1)
        competitors.append((fork_height, info.gen_time))
    samples = []
    for block_hash in main_chain:
        info = log.index.info(block_hash)
        height = heights[block_hash]
        last_disagreement = 0.0
        for fork_height, gen_time in competitors:
            if fork_height < height and gen_time > info.gen_time:
                last_disagreement = max(
                    last_disagreement, gen_time - info.gen_time
                )
        samples.append(last_disagreement)
    return samples


def time_to_win(log: ObservationLog, delta: float = 0.9) -> float:
    """δ-percentile time to win; 0.0 with no competing blocks."""
    samples = win_samples(log)
    if not samples:
        return 0.0
    return percentile(samples, delta)
