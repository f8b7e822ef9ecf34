"""Property-based tests: fork-choice invariants under random block DAGs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitcoin.blocks import SyntheticPayload, build_block, make_genesis
from repro.bitcoin.chain import BlockTree
from repro.core.blocks import build_key_block, build_microblock
from repro.core.chain import NGChain
from repro.core.genesis import make_ng_genesis
from repro.core.ghost_ng import GhostNGChain
from repro.core.params import NGParams
from repro.core.remuneration import build_ng_coinbase
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ghost.chain import GhostTree

GENESIS = make_genesis()
NG_GENESIS = make_ng_genesis()
NG_PARAMS = NGParams(key_block_interval=100.0, min_microblock_interval=10.0)
LEADERS = [PrivateKey.from_seed(f"prop-{i}") for i in range(3)]


def _block(prev, salt):
    return build_block(
        prev_hash=prev,
        payload=SyntheticPayload(n_tx=0, salt=salt),
        timestamp=0.0,
        bits=0x207FFFFF,
        miner_id=0,
        reward=0,
    )


def _random_dag(seed, n_blocks):
    """Blocks whose parents are chosen randomly among earlier blocks."""
    rng = random.Random(seed)
    blocks = [GENESIS]
    out = []
    for i in range(n_blocks):
        parent = rng.choice(blocks)
        block = _block(parent.hash, bytes([i, seed % 256]))
        blocks.append(block)
        out.append(block)
    return out


def _random_ng_dag(seed, n_blocks):
    """Key blocks and validly signed microblocks on random earlier parents.

    A microblock is signed by the leader of its parent's epoch and
    stamped one minimum interval after it; nothing extends the genesis
    epoch with microblocks, since its key belongs to nobody.
    """
    rng = random.Random(seed)
    made = [(NG_GENESIS, None, 0.0)]  # block, its epoch's leader key, timestamp
    for i in range(n_blocks):
        parent, leader, t = rng.choice(made)
        t += NG_PARAMS.min_microblock_interval
        if leader is None or rng.random() < 0.5:
            leader = rng.choice(LEADERS)
            block = build_key_block(
                prev_hash=parent.hash,
                timestamp=t,
                bits=0x207FFFFF,
                leader_pubkey=leader.public_key().to_bytes(),
                coinbase=build_ng_coinbase(
                    miner_id=i,  # tells apart siblings by one leader
                    timestamp=t,
                    self_pubkey_hash=bytes(20),
                    prev_leader_pubkey_hash=None,
                    prev_epoch_fees=0,
                    params=NG_PARAMS,
                ),
            )
        else:
            payload = SyntheticPayload(n_tx=1, salt=bytes([i, seed % 256]))
            block = build_microblock(parent.hash, t, payload, leader)
        made.append((block, leader, t))
    return [block for block, _, _ in made[1:]]


@pytest.mark.parametrize("tree_type", [BlockTree, GhostTree, NGChain, GhostNGChain])
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20), st.integers(0, 100))
def test_tree_invariants_any_arrival_order(tree_type, seed, n_blocks, shuffle_seed):
    """Whatever the arrival order (orphans included), every tree built on
    the shared plumbing adopts every block, drains its orphan buffer and
    ends consistent under its own fork-choice rule."""
    if issubclass(tree_type, NGChain):
        blocks = _random_ng_dag(seed, n_blocks)
        tree = tree_type(NG_GENESIS, NG_PARAMS)
    else:
        blocks = _random_dag(seed, n_blocks)
        tree = tree_type(GENESIS)
    arrival = list(blocks)
    random.Random(shuffle_seed).shuffle(arrival)
    for t, block in enumerate(arrival):
        if issubclass(tree_type, NGChain):
            # Local times past every timestamp: no future-drift refusals.
            tree.add_block(block, 1_000.0 + t)
        else:
            tree.add_block(block)
    assert len(tree) == n_blocks + 1  # all adopted
    assert tree.orphan_count() == 0
    tree.assert_consistent()
    if tree_type is BlockTree:
        # Tip height equals the DAG's maximal depth.
        max_height = max(b.height for b in blocks)
        assert tree.tip_block.height == max_height
    elif tree_type is GhostTree:
        # Genesis subtree holds all the work.
        unit = blocks[0].header.work
        assert tree.subtree_work(GENESIS.hash) == n_blocks * unit


def test_trees_inherit_the_plumbing_rather_than_copy_it():
    """One orphan loop, LCA walk and reorg construction for all protocols:
    a subclass that re-defines any of these has started to drift."""
    shared = (
        "add_block",
        "_connect",
        "_branches",
        "find_fork_point",
        "main_chain",
        "is_in_main_chain",
        "pruned_blocks",
        "orphan_count",
    )
    for tree_type in (GhostTree, NGChain, GhostNGChain):
        for name in shared:
            assert getattr(tree_type, name) is getattr(BlockTree, name), (
                tree_type.__name__,
                name,
            )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 10))
def test_bitcoin_main_chain_is_heaviest_path(seed, n_blocks):
    blocks = _random_dag(seed, n_blocks)
    tree = BlockTree(GENESIS)
    for block in blocks:
        tree.add_block(block)
    tip_work = tree.tip_block.cumulative_work
    for block in blocks:
        assert block.cumulative_work <= tip_work


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5_000), st.integers(1, 12), st.integers(0, 50))
def test_ng_chain_invariants_random_epochs(seed, n_epochs, shuffle_seed):
    """Random leader sequence with microblocks; any arrival order."""
    rng = random.Random(seed)
    blocks = []
    prev = NG_GENESIS
    t = 0.0
    for epoch in range(n_epochs):
        leader = rng.choice(range(3))
        t += 100.0
        coinbase = build_ng_coinbase(
            miner_id=leader,
            timestamp=t,
            self_pubkey_hash=hash160(LEADERS[leader].public_key().to_bytes()),
            prev_leader_pubkey_hash=None,
            prev_epoch_fees=0,
            params=NG_PARAMS,
        )
        key_block = build_key_block(
            prev_hash=prev.hash,
            timestamp=t,
            bits=0x207FFFFF,
            leader_pubkey=LEADERS[leader].public_key().to_bytes(),
            coinbase=coinbase,
        )
        blocks.append(key_block)
        prev = key_block
        for m in range(rng.randrange(3)):
            t += 10.0
            micro = build_microblock(
                prev.hash,
                t,
                SyntheticPayload(n_tx=1, salt=bytes([epoch, m])),
                LEADERS[leader],
            )
            blocks.append(micro)
            prev = micro
    arrival = list(blocks)
    random.Random(shuffle_seed).shuffle(arrival)
    chain = NGChain(NG_GENESIS, NG_PARAMS)
    for block in arrival:
        chain.add_block(block, t + 100.0)
    assert len(chain) == len(blocks) + 1
    chain.assert_consistent()
    # The tip is the end of the built chain (single line, no forks).
    assert chain.tip == blocks[-1].hash
