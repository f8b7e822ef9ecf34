"""The Bitcoin block tree: heaviest chain, reorgs, orphans, ties."""

import random

import pytest

from repro.bitcoin.blocks import SyntheticPayload, build_block, make_genesis
from repro.bitcoin.chain import BlockTree, Reorg

from .conftest import StubRng

GENESIS = make_genesis()


def _block(prev_hash, salt, bits=0x207FFFFF):
    return build_block(
        prev_hash=prev_hash,
        payload=SyntheticPayload(n_tx=0, salt=salt.encode()),
        timestamp=0.0,
        bits=bits,
        miner_id=0,
        reward=0,
    )


def _chain(tree, start, labels, bits=0x207FFFFF):
    blocks = []
    prev = start
    for label in labels:
        block = _block(prev, label, bits)
        tree.add_block(block)
        blocks.append(block)
        prev = block.hash
    return blocks


def test_extension_advances_tip():
    tree = BlockTree(GENESIS)
    blocks = _chain(tree, GENESIS.hash, ["a", "b", "c"])
    assert tree.tip == blocks[-1].hash
    assert tree.tip_block.height == 3


def test_main_chain_order():
    tree = BlockTree(GENESIS)
    blocks = _chain(tree, GENESIS.hash, ["a", "b"])
    assert tree.main_chain() == [GENESIS.hash] + [b.hash for b in blocks]


def test_shorter_branch_ignored():
    tree = BlockTree(GENESIS)
    main = _chain(tree, GENESIS.hash, ["a", "b"])
    _chain(tree, GENESIS.hash, ["x"])
    assert tree.tip == main[-1].hash


def test_heavier_branch_triggers_reorg():
    tree = BlockTree(GENESIS)
    _chain(tree, GENESIS.hash, ["a"])
    branch = _chain(tree, GENESIS.hash, ["x", "y"])
    assert tree.tip == branch[-1].hash


def test_reorg_paths_correct():
    tree = BlockTree(GENESIS, StubRng(0.0))  # "y" ties "b" and loses
    old = _chain(tree, GENESIS.hash, ["a", "b"])
    new_blocks = []
    prev = GENESIS.hash
    reorgs = []
    for label in ["x", "y", "z"]:
        block = _block(prev, label)
        reorgs.extend(tree.add_block(block))
        new_blocks.append(block)
        prev = block.hash
    final = reorgs[-1]
    # The blocks themselves, as the tree holds them.
    assert final.old_tip is old[1] and final.new_tip is new_blocks[-1]
    assert final.disconnected == (old[1], old[0])  # tip first
    assert final.connected == tuple(new_blocks)
    assert final.disconnected


def test_extension_reorg_flag():
    tree = BlockTree(GENESIS)
    block = _block(GENESIS.hash, "a")
    (reorg,) = tree.add_block(block)
    assert not reorg.disconnected
    assert reorg.connected == (block,)


def test_first_seen_tie_break_keeps_current():
    # One draw at the tie: a low one keeps the first seen, a high one
    # hands the tip to the newcomer.
    first = _block(GENESIS.hash, "first")
    second = _block(GENESIS.hash, "second")
    for draw, winner in ((0.0, first), (0.4999, first), (0.5, second)):
        rng = StubRng(draw)
        tree = BlockTree(GENESIS, rng)
        tree.add_block(first)
        tree.add_block(second)
        assert tree.tip == winner.hash
        assert rng.calls == 1


def test_random_tie_break_switches_sometimes():
    outcomes = set()
    for seed in range(30):
        tree = BlockTree(GENESIS, random.Random(seed))
        first = _block(GENESIS.hash, "first")
        second = _block(GENESIS.hash, "second")
        tree.add_block(first)
        tree.add_block(second)
        outcomes.add(tree.tip)
    assert len(outcomes) == 2  # both branches win somewhere


def test_orphan_buffered_until_parent():
    tree = BlockTree(GENESIS)
    parent = _block(GENESIS.hash, "p")
    child = _block(parent.hash, "c")
    assert tree.add_block(child) == []
    assert child.hash not in tree
    assert tree.orphan_count() == 1
    # One tip move per connected block, the adopted orphan's included.
    assert tree.add_block(parent) == [
        Reorg(GENESIS, parent, (), (parent,)),
        Reorg(parent, child, (), (child,)),
    ]
    assert child.hash in tree
    assert tree.tip == child.hash
    assert tree.orphan_count() == 0


def test_orphan_chain_unwinds_recursively():
    tree = BlockTree(GENESIS)
    a = _block(GENESIS.hash, "a")
    b = _block(a.hash, "b")
    c = _block(b.hash, "c")
    tree.add_block(c)
    tree.add_block(b)
    tree.add_block(a)
    assert tree.tip == c.hash


def test_duplicate_block_ignored():
    tree = BlockTree(GENESIS)
    block = _block(GENESIS.hash, "a")
    assert tree.add_block(block)
    assert tree.add_block(block) == []


def test_is_in_main_chain():
    tree = BlockTree(GENESIS)
    main = _chain(tree, GENESIS.hash, ["a", "b"])
    side = _chain(tree, GENESIS.hash, ["x"])
    assert tree.is_in_main_chain(GENESIS.hash)
    assert tree.is_in_main_chain(main[0].hash)
    assert not tree.is_in_main_chain(side[0].hash)


def test_find_fork_point():
    tree = BlockTree(GENESIS)
    main = _chain(tree, GENESIS.hash, ["a", "b"])
    side = _chain(tree, main[0].hash, ["x", "y"])
    assert tree.find_fork_point(main[1].hash, side[1].hash) == main[0].hash
    # A block is its own fork point, the genesis included.
    assert tree.find_fork_point(side[1].hash, side[1].hash) == side[1].hash
    assert tree.find_fork_point(GENESIS.hash, GENESIS.hash) == GENESIS.hash


def test_pruned_blocks():
    tree = BlockTree(GENESIS)
    _chain(tree, GENESIS.hash, ["a", "b"])
    side = _chain(tree, GENESIS.hash, ["x"])
    assert tree.pruned_blocks() == [side[0].hash]


def test_leaves():
    tree = BlockTree(GENESIS)
    main = _chain(tree, GENESIS.hash, ["a", "b"])
    side = _chain(tree, GENESIS.hash, ["x"])
    assert set(tree.leaves()) == {main[-1].hash, side[0].hash}


def test_cumulative_work_accrues():
    tree = BlockTree(GENESIS)
    blocks = _chain(tree, GENESIS.hash, ["a", "b"])
    work = tree.get(blocks[1].hash).cumulative_work
    assert work == 2 * blocks[0].header.work


def test_consistency_invariant():
    tree = BlockTree(GENESIS)
    _chain(tree, GENESIS.hash, ["a", "b", "c"])
    _chain(tree, GENESIS.hash, ["x", "y"])
    tree.assert_consistent()


def test_forget_drops_the_block_and_everything_built_on_it():
    from repro.bitcoin.blocks import InvalidBlock

    tree = BlockTree(GENESIS, StubRng(0.0))  # every tie keeps the tip
    kept = _chain(tree, GENESIS.hash, ["a"])
    side = _chain(tree, GENESIS.hash, ["x", "y", "z"])
    fork = _chain(tree, side[1].hash, ["y2"])
    assert tree.tip == side[2].hash
    forgotten = tree.forget(side[1].hash, kept[0].hash)
    assert forgotten == {side[1].hash, side[2].hash, fork[0].hash}
    assert tree.tip == kept[0].hash  # holds the tip it was handed
    assert len(tree) == 3 and side[0].hash in tree
    assert tree.record(side[0].hash).children == []
    tree.assert_consistent()
    # Remembered: a second copy is refused, not re-adopted ...
    for again in (side[1], side[2]):
        with pytest.raises(InvalidBlock, match="did not connect"):
            tree.add_block(again)
    # ... and so is a block nobody has seen that builds on one of them,
    # and then one that builds on that, instead of waiting as orphans.
    child = _block(fork[0].hash, "child")
    for unseen in (child, _block(child.hash, "grandchild")):
        with pytest.raises(InvalidBlock, match="did not connect"):
            tree.add_block(unseen)
    assert len(tree) == 3 and tree.orphan_count() == 0
    # What was never dropped is untouched by the memory.
    assert tree.add_block(side[0]) == []
    regrown = _chain(tree, side[0].hash, ["y-again", "z-again"])
    assert tree.tip == regrown[1].hash
