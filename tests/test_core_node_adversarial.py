"""NG node rejection paths: malformed and malicious inputs."""

import pytest

from repro.bitcoin.blocks import SyntheticPayload
from repro.core.blocks import (
    Microblock,
    build_key_block,
    build_microblock,
)
from repro.core.genesis import make_ng_genesis
from repro.core.node import KIND_KEY, KIND_MICRO, MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.core.remuneration import build_ng_coinbase
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.metrics.collector import ObservationLog
from repro.net.gossip import StoredObject
from repro.net.latency import constant_histogram
from repro.net.network import Message, Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

PARAMS = NGParams(
    key_block_interval=100.0,
    min_microblock_interval=10.0,
    max_microblock_bytes=10_000,
)
GENESIS = make_ng_genesis()
EVIL = PrivateKey.from_seed("evil")


def _cluster(n=3):
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(n), constant_histogram(0.05), 1e6)
    log = ObservationLog(n)
    nodes = [
        NGNode(
            i, sim, net, GENESIS, PARAMS,
            log=log,
            policy=MicroblockPolicy(target_bytes=2000),
        )
        for i in range(n)
    ]
    return sim, net, nodes


def _inject(node, sender, kind, block):
    stored = StoredObject(block.hash, kind, block, block.size)
    node.on_message(sender, Message("object", stored, stored.size))


def test_oversized_microblock_rejected_by_node():
    sim, net, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=1.0)
    huge = build_microblock(
        nodes[1].tip,
        timestamp=20.0,
        payload=SyntheticPayload(n_tx=100, tx_size=1000, salt=b"big"),
        leader_key=nodes[0].key,
    )
    assert huge.size > PARAMS.max_microblock_bytes
    _inject(nodes[1], 0, KIND_MICRO, huge)
    sim.run(until=2.0)
    assert nodes[1].blocks_rejected == 1
    assert huge.hash not in nodes[1].chain


def test_microblock_with_forged_root_rejected():
    sim, net, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=1.0)
    genuine = build_microblock(
        nodes[1].tip, 20.0, SyntheticPayload(n_tx=2, salt=b"ok"), nodes[0].key
    )
    forged = Microblock(
        genuine.header, genuine.signature, SyntheticPayload(n_tx=9, salt=b"no")
    )
    _inject(nodes[1], 0, KIND_MICRO, forged)
    assert nodes[1].blocks_rejected == 1


def test_microblock_from_non_leader_rejected_by_node():
    sim, net, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=1.0)
    forged = build_microblock(
        nodes[1].tip, 20.0, SyntheticPayload(n_tx=1, salt=b"f"), EVIL
    )
    _inject(nodes[1], 0, KIND_MICRO, forged)
    sim.run(until=2.0)
    assert nodes[1].blocks_rejected == 1
    assert forged.hash not in nodes[1].chain


def test_rate_violating_microblock_rejected_by_node():
    sim, net, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=15.0)  # one legit microblock at t=10
    tip = nodes[1].tip
    tip_ts = nodes[1].chain.tip_block.header.timestamp
    too_soon = build_microblock(
        tip, tip_ts + 1.0, SyntheticPayload(n_tx=1, salt=b"fast"), nodes[0].key
    )
    _inject(nodes[1], 0, KIND_MICRO, too_soon)
    assert nodes[1].blocks_rejected == 1


def test_key_block_with_garbled_pubkey_rejected():
    sim, net, nodes = _cluster()
    coinbase = build_ng_coinbase(
        miner_id=9,
        timestamp=5.0,
        self_pubkey_hash=hash160(EVIL.public_key().to_bytes()),
        prev_leader_pubkey_hash=None,
        prev_epoch_fees=0,
        params=PARAMS,
    )
    bad = build_key_block(
        prev_hash=GENESIS.hash,
        timestamp=5.0,
        bits=0x207FFFFF,
        leader_pubkey=b"\x09" + b"\x11" * 32,  # undecodable point
        coinbase=coinbase,
    )
    _inject(nodes[1], 0, KIND_KEY, bad)
    assert nodes[1].blocks_rejected == 1
    assert bad.hash not in nodes[1].chain


def test_rejected_blocks_not_relayed():
    sim, net, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=1.0)
    forged = build_microblock(
        nodes[1].tip, 20.0, SyntheticPayload(n_tx=1, salt=b"f"), EVIL
    )
    _inject(nodes[1], 0, KIND_MICRO, forged)
    sim.run(until=5.0)
    # Node 2 never received it via node 1 because node 1 refused it at
    # validation... note the gossip layer relays *accepted* objects;
    # rejection happens in deliver, after the store. The chain is the
    # arbiter: no honest chain adopted the forgery.
    assert forged.hash not in nodes[2].chain
    assert forged.hash not in nodes[1].chain


def test_malicious_flood_gets_peer_banned_honest_traffic_continues():
    sim, net, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=1.0)
    # Attacker node 2 floods node 1 with invalid microblocks.  Each
    # costs it 20 misbehavior points; at 100 it is banned and the rest
    # of the flood is dropped before validation.
    for i in range(30):
        junk = build_microblock(
            nodes[1].tip, 20.0 + i, SyntheticPayload(n_tx=1, salt=bytes([i])), EVIL
        )
        _inject(nodes[1], 2, KIND_MICRO, junk)
    assert nodes[1].blocks_rejected == 5
    assert nodes[1].is_banned(2)
    # Honest operation continues: the leader's microblocks still land.
    sim.run(until=35.0)
    assert nodes[1].chain.tip_block.height >= 3
