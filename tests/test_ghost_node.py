"""GHOST nodes over the simulated network."""

from repro.bitcoin.blocks import make_genesis
from repro.bitcoin.node import BlockPolicy
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ghost.node import GhostNode
from repro.ledger.transactions import OutPoint, Transaction, TxInput, TxOutput
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

GENESIS = make_genesis()


def _cluster(n=3, log=None):
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(n), constant_histogram(0.05), 1e6)
    log = log or ObservationLog(n)
    nodes = [
        GhostNode(i, sim, net, GENESIS, log=log, policy=BlockPolicy(max_block_bytes=5000))
        for i in range(n)
    ]
    return sim, nodes


def test_block_propagates():
    sim, nodes = _cluster()
    block = nodes[0].generate_block()
    sim.run()
    assert all(node.tip == block.hash for node in nodes)


def test_one_miner_extends_its_own_block():
    sim, nodes = _cluster()
    first = nodes[0].generate_block()
    second = nodes[0].generate_block()
    sim.run()
    assert second.header.prev_hash == first.hash
    assert all(node.tip == second.hash for node in nodes)
    assert [node.blocks_mined for node in nodes] == [2, 0, 0]


def test_fork_resolution_by_subtree():
    sim, nodes = _cluster()
    a = nodes[0].generate_block()
    b = nodes[1].generate_block()
    sim.run()
    # Extend whichever branch node 2 follows; everyone converges.
    block3 = nodes[2].generate_block()
    sim.run()
    assert all(node.tip == block3.hash for node in nodes)


def test_pruned_blocks_still_relayed():
    # GHOST requires propagating all blocks: the losing fork block must
    # reach everyone, since it affects subtree weight.
    sim, nodes = _cluster()
    a = nodes[0].generate_block()
    b = nodes[1].generate_block()
    sim.run()
    for node in nodes:
        assert a.hash in node.chain
        assert b.hash in node.chain


def test_observation_log():
    log = ObservationLog(3)
    sim, nodes = _cluster(log=log)
    block = nodes[0].generate_block()
    sim.run()
    assert block.hash in log.index
    assert log.index.info(block.hash).kind == "block"


# -- library mode: a GHOST node keeps the ledger a Bitcoin node keeps ----------


def test_full_validation_payment_survives_losing_the_subtree_race():
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(3), constant_histogram(0.05), 1e6)
    policy = BlockPolicy(max_block_bytes=100_000, synthetic=False)
    log = ObservationLog(3)
    nodes = [
        GhostNode(i, sim, net, GENESIS, log=log, policy=policy) for i in range(3)
    ]
    owner = PrivateKey.from_seed("ghost-payer")
    coin = OutPoint(b"\xee" * 32, 0)
    for node in nodes:
        node.utxo.credit(
            TxOutput(100, hash160(owner.public_key().to_bytes())), coin, height=0
        )
    dest = bytes(range(20))
    pay = Transaction(
        inputs=(TxInput(coin),), outputs=(TxOutput(90, dest),)
    ).sign_input(0, owner)

    # Node 2, cut off, confirms the payment in a block of its own while
    # the other two build a heavier subtree that does not carry it.
    net.block_link(0, 2)
    net.block_link(1, 2)
    nodes[2].submit_transaction(pay)
    lonely = nodes[2].generate_block()
    nodes[0].generate_block()
    sim.run()
    majority_tip = nodes[1].generate_block()
    sim.run()
    assert lonely.n_tx == 1 and nodes[2].tip == lonely.hash
    assert [node.utxo.balance(dest) for node in nodes] == [0, 0, 90]

    net.unblock_link(0, 2)
    net.unblock_link(1, 2)
    nodes[2].request_tips()
    sim.run()
    assert {node.tip for node in nodes} == {majority_tip.hash}
    assert lonely.hash in nodes[2].chain  # pruned, still weighed
    assert [node.utxo.balance(dest) for node in nodes] == [0, 0, 0]
    assert pay.txid in nodes[2].mempool  # back in line, not lost

    confirmed = nodes[2].generate_block()
    sim.run()
    assert confirmed.n_tx == 1
    assert {node.tip for node in nodes} == {confirmed.hash}
    assert [node.utxo.balance(dest) for node in nodes] == [90, 90, 90]
    assert all(len(node.mempool) == 0 for node in nodes)
    for node in nodes:
        node.chain.assert_consistent()
