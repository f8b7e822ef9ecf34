"""GHOST heaviest-subtree fork choice."""

import random

from repro.bitcoin.blocks import SyntheticPayload, build_block, make_genesis
from repro.bitcoin.chain import TieBreak
from repro.ghost.chain import GhostTree

GENESIS = make_genesis()


def _block(prev, salt):
    return build_block(
        prev_hash=prev,
        payload=SyntheticPayload(n_tx=0, salt=salt.encode()),
        timestamp=0.0,
        bits=0x207FFFFF,
        miner_id=0,
        reward=0,
    )


def _grow(tree, start, labels):
    blocks = []
    prev = start
    for label in labels:
        block = _block(prev, label)
        tree.add_block(block, 0.0)
        blocks.append(block)
        prev = block.hash
    return blocks


def test_simple_extension():
    tree = GhostTree(GENESIS)
    blocks = _grow(tree, GENESIS.hash, ["a", "b"])
    assert tree.tip == blocks[-1].hash


def test_subtree_work_propagates_to_ancestors():
    tree = GhostTree(GENESIS)
    blocks = _grow(tree, GENESIS.hash, ["a", "b", "c"])
    unit = blocks[0].header.work
    assert tree.subtree_work(blocks[0].hash) == 3 * unit
    assert tree.subtree_work(blocks[2].hash) == unit
    # Chain work along the path is kept too, for protocol-agnostic tools.
    assert tree.record(blocks[2].hash).cumulative_work == 3 * unit


def test_ghost_prefers_heavy_subtree_over_long_chain():
    # The defining difference from Bitcoin: a bushy short side wins.
    tree = GhostTree(GENESIS)
    long_chain = _grow(tree, GENESIS.hash, ["a", "b", "c"])
    fork_root = _grow(tree, GENESIS.hash, ["x"])[0]
    # Three siblings under x: subtree(x) = 4 > subtree(a) = 3.
    for salt in ("x1", "x2", "x3"):
        tree.add_block(_block(fork_root.hash, salt), 0.0)
    assert tree.main_chain()[1] == fork_root.hash
    # Bitcoin would have chosen the longer chain.
    from repro.bitcoin.chain import BlockTree

    bitcoin = BlockTree(GENESIS)
    prev = GENESIS.hash
    for label in ["a", "b", "c"]:
        block = _block(prev, label)
        bitcoin.add_block(block, 0.0)
        prev = block.hash
    x = _block(GENESIS.hash, "x")
    bitcoin.add_block(x, 0.0)
    for salt in ("x1", "x2", "x3"):
        bitcoin.add_block(_block(x.hash, salt), 0.0)
    assert bitcoin.main_chain()[1] == _block(GENESIS.hash, "a").hash


def test_equal_subtrees_first_seen():
    tree = GhostTree(GENESIS, tie_break=TieBreak.FIRST_SEEN)
    first = _block(GENESIS.hash, "first")
    second = _block(GENESIS.hash, "second")
    tree.add_block(first, 0.0)
    tree.add_block(second, 1.0)
    assert tree.tip == first.hash


def test_equal_subtrees_random_tie_break_goes_both_ways():
    second_won = set()
    for seed in range(20):
        tree = GhostTree(
            GENESIS, tie_break=TieBreak.RANDOM, rng=random.Random(seed)
        )
        tree.add_block(_block(GENESIS.hash, "first"), 0.0)
        second = _block(GENESIS.hash, "second")
        tree.add_block(second, 1.0)
        second_won.add(tree.tip == second.hash)
    assert second_won == {True, False}


def test_random_tie_break_draws_only_at_ties():
    rng = random.Random(5)
    tree = GhostTree(GENESIS, tie_break=TieBreak.RANDOM, rng=rng)
    before = rng.getstate()
    heavy = _grow(tree, GENESIS.hash, ["a", "b", "c"])
    _grow(tree, heavy[0].hash, ["lighter"])
    assert tree.tip == heavy[-1].hash
    assert rng.getstate() == before


def test_reorg_reported():
    tree = GhostTree(GENESIS)
    a = _block(GENESIS.hash, "a")
    tree.add_block(a, 0.0)
    x = _block(GENESIS.hash, "x")
    tree.add_block(x, 0.0)
    x1 = _block(x.hash, "x1")
    reorgs = tree.add_block(x1, 0.0)
    assert len(reorgs) == 1
    assert reorgs[0].disconnected == (a.hash,)
    assert reorgs[0].connected == (x.hash, x1.hash)


def test_orphans_buffered():
    tree = GhostTree(GENESIS)
    parent = _block(GENESIS.hash, "p")
    child = _block(parent.hash, "c")
    tree.add_block(child, 0.0)
    assert child.hash not in tree
    tree.add_block(parent, 0.0)
    assert tree.tip == child.hash


def test_duplicate_ignored():
    tree = GhostTree(GENESIS)
    block = _block(GENESIS.hash, "a")
    tree.add_block(block, 0.0)
    assert tree.add_block(block, 0.0) == []


def test_consistency_invariant():
    tree = GhostTree(GENESIS)
    _grow(tree, GENESIS.hash, ["a", "b"])
    x = _grow(tree, GENESIS.hash, ["x"])[0]
    _grow(tree, x.hash, ["x1"])
    tree.assert_consistent()
