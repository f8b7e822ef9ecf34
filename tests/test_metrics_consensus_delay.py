"""The (ε, δ) consensus delay metric on hand-built executions."""

import pytest

from repro.metrics.collector import BlockInfo, ObservationLog
from repro.metrics.consensus_delay import consensus_delay, point_consensus_delay


def _info(h, parent, t, miner=0):
    return BlockInfo(h, parent, miner, t, 1, "block", 0, 100)


def _agreed_log():
    """Three nodes in perfect agreement on a / b."""
    log = ObservationLog(3)
    log.index.add(_info(b"a", b"g", 1.0))
    log.index.add(_info(b"b", b"a", 2.0))
    for node in range(3):
        log.record_tip(node, b"a", 1.1)
        log.record_tip(node, b"b", 2.1)
    log.finalize(10.0)
    return log


def test_full_agreement_zero_delay():
    log = _agreed_log()
    assert point_consensus_delay(log, 5.0, epsilon=1.0) == 0.0


def test_disagreement_reaches_back_to_fork():
    log = ObservationLog(2)
    log.index.add(_info(b"a", b"g", 1.0))
    log.index.add(_info(b"b1", b"a", 3.0))
    log.index.add(_info(b"b2", b"a", 3.5))
    log.record_tip(0, b"a", 1.0)
    log.record_tip(1, b"a", 1.0)
    log.record_tip(0, b"b1", 3.0)
    log.record_tip(1, b"b2", 3.5)
    log.finalize(10.0)
    # Both nodes only agree on the prefix ending at a (gen 1.0).
    assert point_consensus_delay(log, 5.0, epsilon=1.0) == pytest.approx(4.0)


def test_epsilon_majority_ignores_straggler():
    log = ObservationLog(3)
    log.index.add(_info(b"a", b"g", 1.0))
    log.index.add(_info(b"b", b"a", 2.0))
    log.index.add(_info(b"x", b"a", 2.5))
    for node in (0, 1):
        log.record_tip(node, b"a", 1.0)
        log.record_tip(node, b"b", 2.0)
    log.record_tip(2, b"a", 1.0)
    log.record_tip(2, b"x", 2.5)  # the straggler on a fork
    log.finalize(10.0)
    # 2/3 of nodes agree up to now; all three only up to a.
    assert point_consensus_delay(log, 5.0, epsilon=0.6) == 0.0
    assert point_consensus_delay(log, 5.0, epsilon=1.0) == pytest.approx(4.0)


def test_before_any_blocks_trivial_agreement():
    log = ObservationLog(2)
    log.record_tip(0, b"g", 0.0)
    log.record_tip(1, b"g", 0.0)
    log.finalize(10.0)
    # Genesis-only chains agree on the empty prefix at any τ.
    assert point_consensus_delay(log, 5.0, epsilon=1.0) == 0.0


def test_consensus_delay_percentile():
    log = _agreed_log()
    assert consensus_delay(log, epsilon=1.0, delta=0.9, n_samples=10) == 0.0


def test_consensus_delay_validation():
    log = _agreed_log()
    with pytest.raises(ValueError):
        point_consensus_delay(log, 5.0, epsilon=0.0)
    with pytest.raises(ValueError):
        consensus_delay(log, delta=0.0)
    with pytest.raises(ValueError):
        consensus_delay(log, n_samples=0)


def _reference_point_consensus_delay(log, t, epsilon=0.9):
    """The per-node loop ``point_consensus_delay`` replaced, kept as the
    reference: one chain schedule per node, each counted once."""
    import bisect
    import math

    threshold = math.ceil(epsilon * log.n_nodes)
    schedules = []
    candidate_times = set()
    for history in log.tip_histories:
        tip = history.tip_at(t)
        if tip is None:
            schedules.append(([], []))
            continue
        chain = log.index.chain(tip)
        times = [log.index.info(h).gen_time for h in chain]
        schedules.append((times, list(chain)))
        candidate_times.update(g for g in times if g <= t)
    for tau in sorted(candidate_times | {t}, reverse=True):
        heads = {}
        for times, hashes in schedules:
            index = bisect.bisect_right(times, tau) - 1
            head = hashes[index] if index >= 0 else None
            heads[head] = heads.get(head, 0) + 1
        if heads and max(heads.values()) >= threshold:
            return t - tau
    return t


def _generated_log(seed, n_nodes, n_blocks):
    """A random block tree, with every node hopping between its blocks
    (so tips fork and reorg); one node is silent throughout, the others
    until their first report."""
    import random

    rng = random.Random(seed)
    log = ObservationLog(n_nodes)
    hashes = [b"g"]
    gen_time = {b"g": 0.0}
    for i in range(n_blocks):
        parent = rng.choice(hashes)
        block_hash = b"b%d" % i
        gen_time[block_hash] = gen_time[parent] + rng.choice([0.0, 0.5, 1.0, 2.5])
        log.index.add(_info(block_hash, parent, gen_time[block_hash]))
        hashes.append(block_hash)
    for node in range(1, n_nodes):  # node 0 never reports a tip
        at = rng.uniform(0.0, 6.0)  # and the rest have none at first
        for _ in range(rng.randrange(1, 6)):
            log.record_tip(node, rng.choice(hashes), at)
            at += rng.uniform(0.0, 4.0)
    log.finalize(20.0)
    return log


@pytest.mark.parametrize("seed", range(25))
def test_weighted_tips_equal_the_per_node_reference(seed):
    log = _generated_log(seed, n_nodes=3 + seed % 9, n_blocks=2 + seed % 13)
    for epsilon in (0.3, 0.5, 0.9, 1.0):
        for step in range(41):
            t = step * 0.5
            assert point_consensus_delay(
                log, t, epsilon
            ) == _reference_point_consensus_delay(log, t, epsilon)
    # consensus_delay samples at start + (i + 1) * step, from 10% in.
    samples = sorted(
        _reference_point_consensus_delay(log, 2.0 + (i + 1) * 0.45, 0.5)
        for i in range(40)
    )
    assert consensus_delay(log, epsilon=0.5, n_samples=40) == samples[36]
