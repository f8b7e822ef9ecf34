"""GHOST heaviest-subtree fork choice.

The rule is one mix-in (``HeaviestSubtree``) under both ``GhostTree``
and GHOST-NG's ``GhostNGChain``; this file is the companion of
``ghost/chain.py``, so the cases that matter for the shared lines run
here over both trees.
"""

import random

import pytest

from repro.bitcoin.blocks import SyntheticPayload, build_block, make_genesis
from repro.core.blocks import build_key_block, build_microblock
from repro.core.genesis import make_ng_genesis
from repro.core.ghost_ng import GhostNGChain
from repro.core.params import NGParams
from repro.core.remuneration import build_ng_coinbase
from repro.crypto.keys import PrivateKey
from repro.ghost.chain import GhostTree

from .conftest import StubRng

GENESIS = make_genesis()
NG_GENESIS = make_ng_genesis()
NG_PARAMS = NGParams(key_block_interval=10.0, min_microblock_interval=1.0)
LEADER = PrivateKey.from_seed("ghost-chain-leader")


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
        tree.add_block(block)
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
    assert tree.get(blocks[2].hash).cumulative_work == 3 * unit


def test_ghost_prefers_heavy_subtree_over_long_chain():
    # The defining difference from Bitcoin: a bushy short side wins.
    tree = GhostTree(GENESIS)
    long_chain = _grow(tree, GENESIS.hash, ["a", "b", "c"])
    fork_root = _grow(tree, GENESIS.hash, ["x"])[0]
    # Three siblings under x: subtree(x) = 4 > subtree(a) = 3.
    for salt in ("x1", "x2", "x3"):
        tree.add_block(_block(fork_root.hash, salt))
    assert tree.main_chain()[1] == fork_root.hash
    # Bitcoin would have chosen the longer chain.
    from repro.bitcoin.chain import BlockTree

    bitcoin = BlockTree(GENESIS)
    prev = GENESIS.hash
    for label in ["a", "b", "c"]:
        block = _block(prev, label)
        bitcoin.add_block(block)
        prev = block.hash
    x = _block(GENESIS.hash, "x")
    bitcoin.add_block(x)
    for salt in ("x1", "x2", "x3"):
        bitcoin.add_block(_block(x.hash, salt))
    assert bitcoin.main_chain()[1] == _block(GENESIS.hash, "a").hash


def test_equal_subtrees_first_seen():
    # One draw when the tie forms: a low one keeps the first seen, a
    # high one takes the newcomer, as in Bitcoin's tree.
    first = _block(GENESIS.hash, "first")
    second = _block(GENESIS.hash, "second")
    for draw, winner in ((0.0, first), (0.4999, first), (0.5, second)):
        rng = StubRng(draw)
        tree = GhostTree(GENESIS, rng)
        tree.add_block(first)
        tree.add_block(second)
        assert tree.tip == winner.hash
        assert rng.calls == 1


def test_equal_subtrees_random_tie_break_goes_both_ways():
    second_won = set()
    for seed in range(20):
        tree = GhostTree(GENESIS, random.Random(seed))
        tree.add_block(_block(GENESIS.hash, "first"))
        second = _block(GENESIS.hash, "second")
        tree.add_block(second)
        second_won.add(tree.tip == second.hash)
    assert second_won == {True, False}


def test_random_tie_break_draws_only_at_ties():
    for kit in KITS:
        rng = random.Random(5)
        tree = kit.tree(rng)
        before = rng.getstate()
        heavy = kit.grow(tree, kit.genesis.hash, ["a", "b", "c"])
        kit.grow(tree, heavy[0].hash, ["lighter"])
        assert tree.tip == heavy[-1].hash
        assert rng.getstate() == before


def test_reorg_reported():
    tree = GhostTree(GENESIS, StubRng(0.0))  # "x" ties "a" and loses
    a = _block(GENESIS.hash, "a")
    tree.add_block(a)
    x = _block(GENESIS.hash, "x")
    tree.add_block(x)
    x1 = _block(x.hash, "x1")
    reorgs = tree.add_block(x1)
    assert len(reorgs) == 1
    assert reorgs[0].disconnected == (a,)
    assert reorgs[0].connected == (x, x1)


def test_orphans_buffered():
    tree = GhostTree(GENESIS)
    parent = _block(GENESIS.hash, "p")
    child = _block(parent.hash, "c")
    tree.add_block(child)
    assert child.hash not in tree
    tree.add_block(parent)
    assert tree.tip == child.hash


def test_duplicate_ignored():
    tree = GhostTree(GENESIS)
    block = _block(GENESIS.hash, "a")
    tree.add_block(block)
    assert tree.add_block(block) == []


def test_consistency_invariant():
    tree = GhostTree(GENESIS)
    _grow(tree, GENESIS.hash, ["a", "b"])
    x = _grow(tree, GENESIS.hash, ["x"])[0]
    _grow(tree, x.hash, ["x1"])
    tree.assert_consistent()


# -- the same rule over Bitcoin's tree and over Bitcoin-NG's ------------------


class _GhostKit:
    """Weighted blocks for a ``GhostTree``."""

    genesis = GENESIS

    def tree(self, rng=None):
        return GhostTree(GENESIS, rng)

    def block(self, prev, label, t=0.0):
        return _block(prev, label)

    def add(self, tree, block):
        return tree.add_block(block)

    def grow(self, tree, start, labels):
        return _grow(tree, start, labels)


class _GhostNGKit:
    """Key blocks — the blocks that weigh — for a ``GhostNGChain``."""

    genesis = NG_GENESIS

    def tree(self, rng=None):
        return GhostNGChain(NG_GENESIS, NG_PARAMS, rng)

    def block(self, prev, label, t=10.0):
        return build_key_block(
            prev_hash=prev,
            timestamp=t,
            bits=0x207FFFFF,
            leader_pubkey=LEADER.public_key().to_bytes(),
            coinbase=build_ng_coinbase(
                miner_id=sum(label.encode()),  # tells siblings apart
                timestamp=t,
                self_pubkey_hash=bytes(20),
                prev_leader_pubkey_hash=None,
                prev_epoch_fees=0,
                params=NG_PARAMS,
            ),
        )

    def add(self, tree, block):
        return tree.add_block(block, 10.0)

    def grow(self, tree, start, labels):
        blocks = []
        for label in labels:
            block = self.block(start, label)
            self.add(tree, block)
            blocks.append(block)
            start = block.hash
        return blocks


KITS = (_GhostKit(), _GhostNGKit())


@pytest.fixture(params=KITS, ids=["ghost", "ghost-ng"])
def kit(request):
    return request.param


def _micro(prev, t, salt):
    return build_microblock(
        prev_hash=prev,
        timestamp=t,
        payload=SyntheticPayload(n_tx=1, salt=salt),
        leader_key=LEADER,
    )


def test_three_way_tie_is_broken_uniformly(kit):
    # One draw among *all* tied children.  (GHOST-NG used to flip a coin
    # per extra sibling, which hands the last of three probability 1/2.)
    root = kit.block(kit.genesis.hash, "root")
    children = [kit.block(root.hash, label) for label in ("c1", "c2", "c3")]
    wins = {child.hash: 0 for child in children}
    for seed in range(600):
        tree = kit.tree(random.Random(seed))
        for block in (root, *children):
            kit.add(tree, block)
        wins[tree.tip] += 1
    assert all(150 <= count <= 250 for count in wins.values()), wins
    # Low draws keep the first seen; high ones hand the tip on each time.
    for draw, winner in ((0.0, children[0]), (0.99, children[2])):
        tree = kit.tree(StubRng(draw))
        for block in (root, *children):
            kit.add(tree, block)
        assert tree.tip == winner.hash


def test_forgetting_a_subtree_takes_its_weight_back(kit):
    tree = kit.tree()
    kept = kit.grow(tree, kit.genesis.hash, ["a"])
    side = kit.grow(tree, kit.genesis.hash, ["x", "y", "z"])
    unit = kept[0].header.work
    assert tree.tip == side[2].hash
    assert tree.subtree_work(kit.genesis.hash) == 4 * unit
    tree.forget(side[1].hash, kept[0].hash)
    assert tree.subtree_work(kit.genesis.hash) == 2 * unit
    assert tree.subtree_work(side[0].hash) == unit
    assert tree.subtree_work(kept[0].hash) == unit
    for gone in side[1:]:
        with pytest.raises(KeyError):
            tree.subtree_work(gone.hash)
    assert tree.tip == kept[0].hash
    tree.assert_consistent()
    # The descent runs on the weights that are left.
    grown = kit.grow(tree, side[0].hash, ["y-again"])
    assert tree.tip == grown[0].hash
    tree.assert_consistent()


def test_consistency_check_catches_a_stale_weight_or_tip(kit):
    tree = kit.tree()
    main = kit.grow(tree, kit.genesis.hash, ["a", "b"])
    side = kit.grow(tree, kit.genesis.hash, ["x"])
    tree.assert_consistent()
    tree._subtree[main[0].hash] -= 1
    with pytest.raises(tree.invalid, match="subtree work out of sync"):
        tree.assert_consistent()
    tree._subtree[main[0].hash] += 1
    tree._tip = side[0].hash
    with pytest.raises(tree.invalid, match="tip diverges"):
        tree.assert_consistent()
    tree._tip = main[0].hash
    with pytest.raises(tree.invalid, match="tip is not a leaf"):
        tree.assert_consistent()


def test_ng_microblocks_credit_nothing_and_the_descent_follows_them():
    ng = _GhostNGKit()
    tree = ng.tree()
    key = ng.grow(tree, NG_GENESIS.hash, ["k1"])[0]
    m1 = _micro(key.hash, 11.0, b"1")
    m2 = _micro(m1.hash, 12.0, b"2")
    tree.add_block(m1, 11.0)
    tree.add_block(m2, 12.0)
    unit = key.header.work
    assert tree.tip == m2.hash  # within a branch, out to its last microblock
    assert tree.subtree_work(m1.hash) == tree.subtree_work(m2.hash) == 0
    assert tree.subtree_work(key.hash) == tree.subtree_work(NG_GENESIS.hash) == unit
    # A key block mined on m1 (its miner had not seen m2) outweighs the
    # weightless microblock beside it, and is credited through m1.
    k2 = ng.block(m1.hash, "k2", t=13.0)
    tree.add_block(k2, 13.0)
    assert tree.tip == k2.hash
    assert tree.subtree_work(m1.hash) == unit
    assert tree.subtree_work(m2.hash) == 0
    assert tree.subtree_work(key.hash) == 2 * unit
    tree.assert_consistent()


def test_ng_weight_counts_key_blocks_only():
    # A long run of microblocks under one key block never outweighs a
    # single competing key block's subtree: ties stay ties, and a
    # weightless newcomer on the tied rival side neither moves the tip
    # nor draws.  The one draw is the key blocks' own tie.
    ng = _GhostNGKit()
    first, second = (ng.block(NG_GENESIS.hash, label) for label in ("first", "second"))
    micros = []
    prev = second.hash
    for i in range(3):
        micros.append(_micro(prev, 11.0 + i, bytes([i])))
        prev = micros[-1].hash
    for draw, tip in ((0.0, first), (0.5, micros[-1])):
        rng = StubRng(draw)
        tree = ng.tree(rng)
        tree.add_block(first, 10.0)
        tree.add_block(second, 10.5)
        for i, micro in enumerate(micros):
            tree.add_block(micro, 11.0 + i)
        assert tree.subtree_work(first.hash) == tree.subtree_work(second.hash)
        assert tree.tip == tip.hash
        assert rng.calls == 1
        tree.assert_consistent()


# -- the rule, case by case --------------------------------------------------


def test_a_lighter_rival_keeps_the_tip(kit):
    rng = StubRng(0.99)  # would take any tie it were asked about
    tree = kit.tree(rng)
    held = kit.grow(tree, kit.genesis.hash, ["a", "b", "c"])
    kit.grow(tree, kit.genesis.hash, ["x", "x1"])
    kit.grow(tree, held[0].hash, ["b2"])
    assert tree.tip == held[2].hash
    assert rng.calls == 0
    tree.assert_consistent()


def test_a_heavier_rival_takes_the_tip_and_the_descent_draws_only_at_ties(kit):
    rng = StubRng(0.0)  # every tie keeps what it holds
    tree = kit.tree(rng)
    a = kit.grow(tree, kit.genesis.hash, ["a"])[0]
    x = kit.grow(tree, kit.genesis.hash, ["x"])[0]  # ties a: one draw
    assert (tree.tip, rng.calls) == (a.hash, 1)
    x1 = kit.grow(tree, x.hash, ["x1"])[0]  # x outweighs a: no draw
    assert (tree.tip, rng.calls) == (x1.hash, 1)
    a1 = kit.grow(tree, a.hash, ["a1"])[0]  # a draws level: one draw
    assert (tree.tip, rng.calls) == (x1.hash, 2)
    # a outweighs x, and its two children tie: the descent's one draw.
    kit.grow(tree, a.hash, ["a2"])
    assert (tree.tip, rng.calls) == (a1.hash, 3)
    tree.assert_consistent()


def test_a_k_way_tie_is_won_with_probability_one_in_k(kit):
    root = kit.block(kit.genesis.hash, "root")
    children = [kit.block(root.hash, label) for label in ("c1", "c2", "c3")]
    # The third sibling makes a 3-way tie: it wins on the top third of
    # the draw, and the held child keeps the rest.
    for draw, winner in ((0.66, children[0]), (0.67, children[2])):
        rng = StubRng(0.0, draw)
        tree = kit.tree(rng)
        for block in (root, *children):
            kit.add(tree, block)
        assert tree.tip == winner.hash
        assert rng.calls == 2

