"""Time-to-prune and time-to-win on hand-built executions."""

import pytest

from repro.metrics.collector import BlockInfo, ObservationLog
from repro.metrics.prune import (
    prune_samples,
    time_to_prune,
    time_to_win,
    win_samples,
)


def _info(h, parent, t, miner=0, work=1, kind="block"):
    return BlockInfo(h, parent, miner, t, work, kind, 0, 100)


def _forked_log():
    """Figure 5's shape: a branch x is pruned when block b arrives.

    main:   g → a(t=1) → b(t=4)
    branch: g → x(t=2)           (pruned by b, which outweighs it)
    """
    log = ObservationLog(2)
    log.index.add(_info(b"a", b"g", 1.0))
    log.index.add(_info(b"x", b"g", 2.0, miner=1))
    log.index.add(_info(b"b", b"a", 4.0))
    for node in range(2):
        log.record_tip(node, b"a", 1.0)
        log.record_tip(node, b"b", 4.5)
    # Node 0 heard the branch early, node 1 late.
    log.record_arrival(0, b"a", 1.1, "block")
    log.record_arrival(0, b"x", 2.1, "block")
    log.record_arrival(0, b"b", 4.2, "block")
    log.record_arrival(1, b"a", 1.3, "block")
    log.record_arrival(1, b"x", 3.9, "block")
    log.record_arrival(1, b"b", 4.4, "block")
    log.finalize(10.0)
    return log


def test_prune_samples_per_node():
    samples = sorted(prune_samples(_forked_log()))
    # Node 0: b at 4.2 − x at 2.1 = 2.1; node 1: 4.4 − 3.9 = 0.5.
    assert samples == [pytest.approx(0.5), pytest.approx(2.1)]


def test_time_to_prune_percentile():
    assert time_to_prune(_forked_log(), delta=0.9) == pytest.approx(2.1)
    assert time_to_prune(_forked_log(), delta=0.1) == pytest.approx(0.5)


def test_prune_zero_when_branch_arrives_after_winner():
    log = ObservationLog(1)
    log.index.add(_info(b"a", b"g", 1.0))
    log.index.add(_info(b"b", b"a", 2.0))
    log.index.add(_info(b"x", b"g", 1.5, miner=1))
    log.record_tip(0, b"b", 2.0)
    log.record_arrival(0, b"a", 1.0, "block")
    log.record_arrival(0, b"b", 2.0, "block")
    log.record_arrival(0, b"x", 5.0, "block")  # already outweighed on arrival
    log.finalize(10.0)
    assert prune_samples(log) == [0.0]


def test_no_forks_no_prune_samples():
    log = ObservationLog(1)
    log.index.add(_info(b"a", b"g", 1.0))
    log.record_tip(0, b"a", 1.0)
    log.record_arrival(0, b"a", 1.0, "block")
    log.finalize(10.0)
    assert prune_samples(log) == []
    assert time_to_prune(log) == 0.0


def test_branch_pruned_by_heavier_sibling():
    # The node held branch a from t=1 until the heavier x arrived at
    # t=2 — a prune delay of exactly 1 second.
    log = ObservationLog(1)
    log.index.add(_info(b"a", b"g", 1.0))
    log.index.add(_info(b"x", b"g", 2.0, work=5, miner=1))
    log.record_tip(0, b"x", 2.0)
    log.record_arrival(0, b"a", 1.0, "block")
    log.record_arrival(0, b"x", 2.0, "block")
    log.finalize(10.0)
    assert prune_samples(log) == [pytest.approx(1.0)]


def test_time_to_win():
    log = _forked_log()
    samples = win_samples(log)
    # Block a (gen 1.0): competitor x generated at 2.0 → 1.0.
    # Block b (gen 4.0): x is earlier → 0.
    assert sorted(samples) == [pytest.approx(0.0), pytest.approx(1.0)]
    assert time_to_win(log, delta=0.9) == pytest.approx(1.0)


def test_time_to_win_zero_without_competition():
    log = ObservationLog(1)
    log.index.add(_info(b"a", b"g", 1.0))
    log.index.add(_info(b"b", b"a", 2.0))
    log.record_tip(0, b"b", 2.0)
    log.finalize(10.0)
    assert time_to_win(log) == 0.0


def test_deep_branch_competes_with_all_above_fork():
    # branch of 2 blocks forking at genesis: both main blocks compete.
    log = ObservationLog(1)
    log.index.add(_info(b"a", b"g", 1.0))
    log.index.add(_info(b"b", b"a", 2.0))
    log.index.add(_info(b"x", b"g", 3.0, miner=1))
    log.index.add(_info(b"y", b"x", 6.0, miner=1))
    log.record_tip(0, b"b", 2.0)
    log.finalize(10.0)
    samples = win_samples(log)
    # a: last competitor y at 6.0 → 5.0; b: y at 6.0 → 4.0.
    assert sorted(samples) == [pytest.approx(4.0), pytest.approx(5.0)]
