"""GHOST-augmented Bitcoin-NG (the Section 9 future-work variant)."""

import pytest

from repro.bitcoin.blocks import SyntheticPayload
from repro.core.blocks import build_key_block, build_microblock
from repro.core.ghost_ng import GhostNGChain
from repro.core.chain import NGChain
from repro.core.genesis import make_ng_genesis
from repro.core.params import NGParams
from repro.core.remuneration import build_ng_coinbase
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.metrics.collector import ObservationLog

from .conftest import StubRng

PARAMS = NGParams(key_block_interval=10.0, min_microblock_interval=1.0)
GENESIS = make_ng_genesis()
KEYS = [PrivateKey.from_seed(f"gng-{i}") for i in range(4)]


def _key(prev, who, t, miner=0):
    key = KEYS[who]
    return build_key_block(
        prev_hash=prev,
        timestamp=t,
        bits=0x207FFFFF,
        leader_pubkey=key.public_key().to_bytes(),
        coinbase=build_ng_coinbase(
            miner_id=miner,
            timestamp=t,
            self_pubkey_hash=hash160(key.public_key().to_bytes()),
            prev_leader_pubkey_hash=None,
            prev_epoch_fees=0,
            params=PARAMS,
        ),
    )


def _micro(prev, who, t, salt=b"m"):
    return build_microblock(
        prev_hash=prev,
        timestamp=t,
        payload=SyntheticPayload(n_tx=1, salt=salt),
        leader_key=KEYS[who],
    )


def test_simple_extension_matches_plain_ng():
    ghost = GhostNGChain(GENESIS, PARAMS)
    plain = NGChain(GENESIS, PARAMS)
    k1 = _key(GENESIS.hash, 0, 10.0)
    m1 = _micro(k1.hash, 0, 11.0)
    for chain in (ghost, plain):
        chain.add_block(k1, 10.0)
        chain.add_block(m1, 11.0)
    assert ghost.tip == plain.tip == m1.hash


def test_subtree_work_accumulates():
    chain = GhostNGChain(GENESIS, PARAMS)
    k1 = _key(GENESIS.hash, 0, 10.0)
    k2 = _key(k1.hash, 1, 20.0)
    chain.add_block(k1, 10.0)
    chain.add_block(k2, 20.0)
    unit = k1.header.work
    assert chain.subtree_work(GENESIS.hash) == 2 * unit
    assert chain.subtree_work(k1.hash) == 2 * unit
    assert chain.subtree_work(k2.hash) == unit


def test_microblocks_carry_no_subtree_weight():
    chain = GhostNGChain(GENESIS, PARAMS)
    k1 = _key(GENESIS.hash, 0, 10.0)
    m1 = _micro(k1.hash, 0, 11.0)
    chain.add_block(k1, 10.0)
    chain.add_block(m1, 11.0)
    assert chain.subtree_work(m1.hash) == 0
    assert chain.subtree_work(k1.hash) == k1.header.work


def test_bushy_key_subtree_beats_longer_key_chain():
    # The defining GHOST-NG behaviour: two sibling key blocks under k_a
    # outweigh the two-deep chain under k_b.
    k_b = _key(GENESIS.hash, 1, 10.0)
    kb2 = _key(k_b.hash, 1, 20.0, miner=1)
    k_a = _key(GENESIS.hash, 0, 10.5)
    # Two competing children under k_a arrive (siblings: a fork of key
    # blocks mined on k_a by different miners).
    ka2 = _key(k_a.hash, 2, 21.0, miner=2)
    ka3 = _key(k_a.hash, 3, 22.0, miner=3)
    for draw, tied_winner in ((0.0, kb2), (0.5, ka2)):
        chain = GhostNGChain(GENESIS, PARAMS, StubRng(draw))
        chain.add_block(k_b, 10.0)
        chain.add_block(kb2, 20.0)
        chain.add_block(k_a, 10.5)
        assert chain.tip == kb2.hash  # chain b leads 2 vs 1
        chain.add_block(ka2, 21.0)
        # Tied 2-2: the draw keeps the held side or hands it to k_a's.
        assert chain.tip == tied_winner.hash
        chain.add_block(ka3, 22.0)
        # subtree(k_a) = 3 key blocks > subtree(k_b) = 2: GHOST switches.
        assert chain.tip in (ka2.hash, ka3.hash)
        chain.assert_consistent()
    # Plain NG would NOT have switched (chains are equal length 2 < 2).
    plain = NGChain(GENESIS, PARAMS, StubRng(0.0))
    for block, t in ((k_b, 10.0), (kb2, 20.0), (k_a, 10.5), (ka2, 21.0), (ka3, 22.0)):
        plain.add_block(block, t)
    assert plain.tip == kb2.hash


def test_descent_follows_microblocks_to_tip():
    chain = GhostNGChain(GENESIS, PARAMS)
    k1 = _key(GENESIS.hash, 0, 10.0)
    m1 = _micro(k1.hash, 0, 11.0, salt=b"1")
    m2 = _micro(m1.hash, 0, 12.0, salt=b"2")
    for block, t in ((k1, 10.0), (m1, 11.0), (m2, 12.0)):
        chain.add_block(block, t)
    assert chain.tip == m2.hash


def test_new_key_block_still_prunes_unseen_microblocks():
    # Figure 2's dynamic must survive the fork-choice change.
    chain = GhostNGChain(GENESIS, PARAMS)
    k1 = _key(GENESIS.hash, 0, 10.0)
    m1 = _micro(k1.hash, 0, 11.0, salt=b"1")
    m2 = _micro(m1.hash, 0, 12.0, salt=b"2")
    for block, t in ((k1, 10.0), (m1, 11.0), (m2, 12.0)):
        chain.add_block(block, t)
    k2 = _key(m1.hash, 1, 13.0, miner=1)  # mined without seeing m2
    chain.add_block(k2, 13.0)
    assert chain.tip == k2.hash
    assert m2.hash in chain.pruned_blocks()


def test_node_integration_with_ghost_fork_choice():
    from repro.core.node import MicroblockPolicy, NGNode
    from repro.net.latency import constant_histogram
    from repro.net.network import Network
    from repro.net.simulator import Simulator
    from repro.net.topology import complete_topology

    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(3), constant_histogram(0.05), 1e6)
    params = NGParams(key_block_interval=50.0, min_microblock_interval=10.0)
    log = ObservationLog(3)
    nodes = [
        NGNode(
            i, sim, net, GENESIS, params,
            log=log,
            policy=MicroblockPolicy(target_bytes=2000),
            ghost_fork_choice=True,
        )
        for i in range(3)
    ]
    nodes[0].generate_key_block()
    sim.run(until=25.0)
    nodes[1].generate_key_block()
    sim.run(until=60.0)
    assert len({node.tip for node in nodes}) == 1
    assert isinstance(nodes[0].chain, GhostNGChain)


def test_experiment_runner_supports_ghost_ng():
    from repro.experiments import ExperimentConfig, Protocol, run_experiment

    config = ExperimentConfig(
        protocol=Protocol.BITCOIN_NG,
        n_nodes=15,
        target_blocks=15,
        target_key_blocks=5,
        block_rate=0.1,
        block_size_bytes=5000,
        cooldown=20.0,
        ng_ghost_fork_choice=True,
    )
    result, _ = run_experiment(config)
    assert result.mining_power_utilization > 0.5


def test_unequal_subtrees_never_consult_the_rng():
    # A tie may only be broken at an *exact* subtree-weight tie.  With
    # a rigged always-adopt rng, drawing past a strictly lighter sibling
    # would flip the tip — so the heavy branch winning, with no draw,
    # proves the tie branch stayed cold.
    rng = StubRng(0.99)
    chain = GhostNGChain(GENESIS, PARAMS, rng)
    a = _key(GENESIS.hash, 0, 10.0)
    chain.add_block(a, 10.0)
    c = _key(a.hash, 1, 20.0)
    chain.add_block(c, 20.0)
    b = _key(GENESIS.hash, 2, 21.0)
    chain.add_block(b, 21.0)
    assert chain.subtree_work(a.hash) > chain.subtree_work(b.hash)
    assert chain.tip == c.hash
    assert rng.calls == 0
