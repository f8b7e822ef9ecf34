"""Observation log and block index plumbing."""

import random

import pytest

from repro.metrics.collector import BlockIndex, BlockInfo, ObservationLog, TipHistory
from repro.obs.trace import MemorySink, Tracer


def _info(h, parent, miner=0, t=0.0, work=1, kind="block", n_tx=0, size=100):
    return BlockInfo(h, parent, miner, t, work, kind, n_tx, size)


def test_index_cumulative_work():
    index = BlockIndex()
    index.add(_info(b"a", b"genesis", work=2))
    index.add(_info(b"b", b"a", work=2))
    assert index.cumulative_work(b"a") == 2  # the recorded root
    assert index.cumulative_work(b"b") == 4
    assert index.cumulative_work(b"missing") == 0


def test_index_rejects_duplicates():
    index = BlockIndex()
    index.add(_info(b"a", b"g"))
    with pytest.raises(ValueError):
        index.add(_info(b"a", b"g"))


def test_chain_reconstruction():
    index = BlockIndex()
    index.add(_info(b"a", b"g"))
    index.add(_info(b"b", b"a"))
    index.add(_info(b"c", b"b"))
    assert index.chain(b"c") == (b"a", b"b", b"c")
    assert index.chain(b"a") == (b"a",)
    assert index.chain(b"unknown") == ()


def test_chain_memoization_shares_prefixes():
    index = BlockIndex()
    index.add(_info(b"a", b"g"))
    index.add(_info(b"b", b"a"))
    index.add(_info(b"c", b"b"))
    index.add(_info(b"d", b"b"))  # sibling of c
    assert index.chain(b"c")[:2] == index.chain(b"d")[:2]


def test_chain_is_the_parent_walk_on_a_random_tree():
    rng = random.Random(19)
    index = BlockIndex()
    parents = {}
    hashes = [b"root"]
    index.add(_info(b"root", b"genesis"))
    for i in range(200):
        h = b"h%d" % i
        parents[h] = rng.choice(hashes)
        index.add(_info(h, parents[h]))
        hashes.append(h)

    def walk(tip):
        path = [tip]
        while path[-1] in parents:
            path.append(parents[path[-1]])
        return tuple(reversed(path))

    for tip in rng.sample(hashes, 50):
        assert index.chain(tip) == walk(tip)
    # A block added after chain() was asked about its parent shows up.
    tip = hashes[-1]
    before = index.chain(tip)
    index.add(_info(b"late", tip))
    assert index.chain(b"late") == before + (b"late",)
    assert index.chain(tip) == before


def test_tip_history_queries():
    log = ObservationLog(1)
    log.record_tip(0, b"g", 0.0)
    log.record_tip(0, b"a", 5.0)
    log.record_tip(0, b"b", 9.0)
    history = log.tip_histories[0]
    assert isinstance(history, TipHistory)
    assert history.tip_at(-1.0) is None
    assert history.tip_at(0.0) == b"g"
    assert history.tip_at(7.0) == b"a"
    assert history.tip_at(100.0) == b"b"


def test_tip_history_requires_order():
    log = ObservationLog(1)
    log.record_tip(0, b"a", 5.0)
    with pytest.raises(ValueError):
        log.record_tip(0, b"b", 4.0)
    assert log.tip_histories[0].tips == [b"a"]


def test_arrival_records_first_only():
    log = ObservationLog(2)
    log.record_arrival(0, b"a", 1.0, "block")
    log.record_arrival(0, b"a", 5.0, "block")
    assert log.arrival_time(0, b"a") == 1.0
    assert log.arrival_time(1, b"a") is None


def test_each_report_is_one_trace_row_and_the_genesis_seed_none():
    sink = MemorySink()
    tracer = Tracer(sink)
    log = ObservationLog(2, tracer=tracer)
    log.record_tip(0, b"\x00" * 32, 0.0)  # the genesis seed
    log.record_generation(_info(b"\xaa" * 32, b"\x00" * 32, miner=1, t=2.0, n_tx=3))
    log.record_arrival(0, b"\xaa" * 32, 2.5, "block")
    log.record_tip(0, b"\xaa" * 32, 2.5, 1)
    tracer.flush()
    assert log.arrival_time(1, b"\xaa" * 32) == 2.0  # the miner has it at once
    assert [(r["ev"], r["t"]) for r in sink.records] == [
        ("block_gen", 2.0), ("block_arrival", 2.5), ("tip_change", 2.5),
    ]
    assert sink.records[0]["hash"] == "aa" * 6
    assert sink.records[2]["height"] == 1


def test_final_consensus_tip_majority():
    log = ObservationLog(3)
    log.index.add(_info(b"a", b"g"))
    log.index.add(_info(b"b", b"g"))
    log.record_tip(0, b"a", 1.0)
    log.record_tip(1, b"a", 1.0)
    log.record_tip(2, b"b", 1.0)
    log.finalize(10.0)
    assert log.final_consensus_tip() == b"a"
    assert log.main_chain() == (b"a",)


def test_final_consensus_tip_work_tiebreak():
    log = ObservationLog(2)
    log.index.add(_info(b"light", b"g", work=1))
    log.index.add(_info(b"heavy", b"g", work=5))
    log.record_tip(0, b"light", 1.0)
    log.record_tip(1, b"heavy", 1.0)
    log.finalize(10.0)
    assert log.final_consensus_tip() == b"heavy"


def test_duration():
    log = ObservationLog(1)
    log.finalize(42.0)
    assert log.duration == 42.0
