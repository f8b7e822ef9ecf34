"""Fairness and mining power utilization on hand-built executions."""

import pytest

from repro.metrics.collector import BlockInfo, ObservationLog
from repro.metrics.fairness import fairness
from repro.metrics.throughput import (
    block_rate,
    transaction_frequency,
)
from repro.metrics.utilization import mining_power_utilization


def _info(h, parent, miner, kind="block", work=1, n_tx=0, size=100, t=0.0):
    return BlockInfo(h, parent, miner, t, work, kind, n_tx, size)


def _log_with_chain(main, pruned=(), n_nodes=2):
    """main/pruned: lists of BlockInfo; all nodes adopt the main tip."""
    log = ObservationLog(n_nodes)
    for info in list(main) + list(pruned):
        log.index.add(info)
    for node in range(n_nodes):
        log.record_tip(node, main[-1].hash, 1.0)
    log.finalize(10.0)
    return log


def test_fairness_perfect():
    # Miner 0 has half the power and half the main chain blocks.
    main = [
        _info(b"a", b"g", 0),
        _info(b"b", b"a", 1),
        _info(b"c", b"b", 0),
        _info(b"d", b"c", 1),
    ]
    log = _log_with_chain(main)
    assert fairness(log, power_shares=[0.5, 0.5]) == pytest.approx(1.0)


def test_fairness_below_one_when_largest_overrepresented():
    # Largest (miner 0, 50% power) takes 3 of 4 main blocks.
    main = [
        _info(b"a", b"g", 0),
        _info(b"b", b"a", 0),
        _info(b"c", b"b", 0),
        _info(b"d", b"c", 1),
    ]
    log = _log_with_chain(main)
    # others' main share 0.25 / others' power share 0.5 = 0.5.
    assert fairness(log, power_shares=[0.5, 0.5]) == pytest.approx(0.5)


def test_fairness_generated_blocks_denominator():
    # Without power shares: denominator is generated-block share.
    main = [_info(b"a", b"g", 0), _info(b"b", b"a", 0)]
    pruned = [_info(b"x", b"g", 1), _info(b"y", b"g", 1), _info(b"z", b"g", 1)]
    log = _log_with_chain(main, pruned)
    # Largest by generated blocks is miner 1 (3 of 5) but holds 0 of 2
    # main blocks: main_others = 1.0, generated_others = 2/5.
    assert fairness(log) == pytest.approx(1.0 / (2 / 5))


def test_fairness_excludes_microblocks():
    main = [
        _info(b"k1", b"g", 0, kind="key"),
        _info(b"m1", b"k1", 0, kind="micro", work=0),
        _info(b"k2", b"m1", 1, kind="key"),
    ]
    log = _log_with_chain(main)
    # Only the two key blocks count: one each.
    assert fairness(log, power_shares=[0.5, 0.5]) == pytest.approx(1.0)


def test_fairness_explicit_largest():
    main = [_info(b"a", b"g", 0), _info(b"b", b"a", 1)]
    log = _log_with_chain(main)
    value = fairness(log, power_shares=[0.75, 0.25], largest_miner=0)
    # others main 0.5 / others power 0.25 = 2.0 (largest under-represented)
    assert value == pytest.approx(2.0)


def test_utilization_counts_main_work_only():
    main = [_info(b"a", b"g", 0, work=2), _info(b"b", b"a", 1, work=2)]
    pruned = [_info(b"x", b"g", 2, work=2)]
    log = _log_with_chain(main, pruned)
    assert mining_power_utilization(log) == pytest.approx(4 / 6)


def test_utilization_ignores_microblock_forks():
    # Pruned microblocks carry no work: utilization stays 1.0, exactly
    # the paper's point about Bitcoin-NG.
    main = [
        _info(b"k1", b"g", 0, kind="key", work=2),
        _info(b"k2", b"k1", 1, kind="key", work=2),
    ]
    pruned = [_info(b"m", b"k1", 0, kind="micro", work=0)]
    log = _log_with_chain(main, pruned)
    assert mining_power_utilization(log) == pytest.approx(1.0)


def test_transaction_frequency():
    main = [
        _info(b"a", b"g", 0, n_tx=30),
        _info(b"b", b"a", 1, n_tx=20),
    ]
    log = _log_with_chain(main)  # duration 10 s
    assert transaction_frequency(log) == pytest.approx(5.0)


def test_transaction_frequency_excludes_pruned():
    main = [_info(b"a", b"g", 0, n_tx=10)]
    pruned = [_info(b"x", b"g", 1, n_tx=1000)]
    log = _log_with_chain(main, pruned)
    assert transaction_frequency(log) == pytest.approx(1.0)


def test_block_rate():
    main = [_info(b"a", b"g", 0, size=500), _info(b"b", b"a", 0, size=500)]
    pruned = [_info(b"m", b"a", 0, kind="micro", size=100)]
    log = _log_with_chain(main, pruned)
    assert block_rate(log) == pytest.approx(0.3)
    assert block_rate(log, kind="micro") == pytest.approx(0.1)


def test_fairness_errors():
    log = ObservationLog(1)
    log.record_tip(0, b"g", 0.0)
    log.finalize(10.0)
    with pytest.raises(ValueError):
        fairness(log)
