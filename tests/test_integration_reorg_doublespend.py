"""Bitcoin reorg double-spend race: state rolls forward and back.

A classic attack shape exercised against the full-validation Bitcoin
node: the same coin is spent differently on two competing branches, and
a reorganization must atomically swap which spend is "real".
"""

import pytest

from repro.bitcoin.blocks import make_genesis
from repro.bitcoin.node import BitcoinNode, BlockPolicy
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.transactions import (
    COIN,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.ledger.utxo import UtxoSet
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

OWNER = PrivateKey.from_seed("reorg-owner")
OWNER_PKH = hash160(OWNER.public_key().to_bytes())
MERCHANT_A = bytes(range(20))
MERCHANT_B = bytes(range(20, 40))
SEED_OUTPOINT = OutPoint(b"\xee" * 32, 0)


@pytest.fixture()
def nodes():
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.01), 1e6)
    genesis = make_genesis()
    log = ObservationLog(2)
    cluster = [
        BitcoinNode(
            i,
            sim,
            net,
            genesis,
            log=log,
            policy=BlockPolicy(max_block_bytes=100_000, synthetic=False),
        )
        for i in range(2)
    ]
    for node in cluster:
        node.utxo.credit(TxOutput(10 * COIN, OWNER_PKH), SEED_OUTPOINT, 0)
    return sim, cluster


def _spend(to, value=10 * COIN):
    return Transaction(
        inputs=(TxInput(SEED_OUTPOINT),),
        outputs=(TxOutput(value, to),),
    ).sign_input(0, OWNER)


def test_reorg_swaps_conflicting_spends(nodes):
    sim, (node0, node1) = nodes
    pay_a = _spend(MERCHANT_A)
    pay_b = _spend(MERCHANT_B)

    # Branch A: node 0 mines pay_a while node 1 is isolated.
    node0.network.set_offline(1)
    node0.submit_transaction(pay_a)
    block_a = node0.generate_block()
    sim.run()
    assert node0.utxo.balance(MERCHANT_A) == 10 * COIN

    # Branch B: node 1, never having seen branch A, mines pay_b twice —
    # the heavier branch.
    node0.network.set_offline(1, offline=False)
    node0.network.set_offline(0)
    node1.submit_transaction(pay_b)
    node1.generate_block()
    sim.run()
    block_b2 = node1.generate_block()
    sim.run()
    assert node1.utxo.balance(MERCHANT_B) == 10 * COIN

    # Reconnect: node 0 hears the heavier branch and must reorg.
    node0.network.set_offline(0, offline=False)
    stored1 = node1.get_object(node1.chain.main_chain()[1])
    stored2 = node1.get_object(block_b2.hash)
    from repro.net.network import Message

    node0.on_message(1, Message("object", stored1, stored1.size))
    node0.on_message(1, Message("object", stored2, stored2.size))
    sim.run()
    assert node0.tip == block_b2.hash
    # The A-spend was rolled back; the B-spend is now the real one.
    assert node0.utxo.balance(MERCHANT_A) == 0
    assert node0.utxo.balance(MERCHANT_B) == 10 * COIN
    # The conflicting A-spend cannot re-enter the mempool (its coin is
    # gone), so it is not resurrected.
    assert pay_a.txid not in node0.mempool


def test_utxo_identical_across_nodes_after_convergence(nodes):
    sim, (node0, node1) = nodes
    node0.submit_transaction(_spend(MERCHANT_A, 10 * COIN))
    node0.generate_block()
    sim.run()
    node1.generate_block()
    sim.run()
    assert node0.tip == node1.tip
    assert node0.utxo.snapshot().keys() == node1.utxo.snapshot().keys()
