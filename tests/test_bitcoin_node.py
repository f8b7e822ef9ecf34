"""The Bitcoin full node over a simulated network."""

import pytest

import repro.bitcoin.node as node_mod
from repro.bitcoin.blocks import TxPayload, build_block, make_genesis
from repro.bitcoin.node import BitcoinNode, BlockPolicy
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.errors import MempoolError
from repro.ledger.transactions import (
    COIN,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.ghost.node import GhostNode
from repro.metrics.collector import ObservationLog
from repro.net.gossip import StoredObject
from repro.net.latency import constant_histogram
from repro.net.network import Message, Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.sanitizer.digests import utxo_root

from .conftest import StubRng

GENESIS = make_genesis()
OWNER = PrivateKey.from_seed("coin-owner")


def _cluster(n=3, policy=None, log=None):
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(n), constant_histogram(0.05), 1e6)
    log = log or ObservationLog(n)
    nodes = [
        BitcoinNode(i, sim, net, GENESIS, log=log, policy=policy)
        for i in range(n)
    ]
    return sim, net, nodes


def test_generated_block_propagates():
    sim, _, nodes = _cluster()
    block = nodes[0].generate_block()
    sim.run()
    for node in nodes:
        assert node.tip == block.hash
        assert node.height == 1


def test_chain_extends_across_miners():
    sim, _, nodes = _cluster()
    nodes[0].generate_block()
    sim.run()
    block2 = nodes[1].generate_block()
    sim.run()
    assert all(node.tip == block2.hash for node in nodes)
    assert nodes[2].height == 2
    assert [node.blocks_mined for node in nodes] == [1, 1, 0]


def test_concurrent_blocks_fork_then_resolve():
    sim, _, nodes = _cluster()
    a = nodes[0].generate_block()
    b = nodes[1].generate_block()  # same instant: a fork
    sim.run()
    tips = {node.tip for node in nodes}
    assert tips <= {a.hash, b.hash}
    # Whoever extends first wins everywhere.
    winner_node = nodes[2]
    block3 = winner_node.generate_block()
    sim.run()
    assert all(node.tip == block3.hash for node in nodes)


def test_observation_log_populated():
    log = ObservationLog(3)
    sim, _, nodes = _cluster(log=log)
    block = nodes[0].generate_block()
    sim.run()
    assert block.hash in log.index
    for node_id in range(3):
        assert log.arrival_time(node_id, block.hash) is not None
    assert log.tip_histories[1].tip_at(sim.now) == block.hash


def test_synthetic_policy_fills_block():
    policy = BlockPolicy(max_block_bytes=4760, synthetic_tx_size=476)
    sim, _, nodes = _cluster(policy=policy)
    block = nodes[0].generate_block()
    assert block.n_tx == 10


def test_invalid_block_rejected_not_relayed():
    from repro.bitcoin.blocks import Block, SyntheticPayload

    sim, net, nodes = _cluster()
    good = nodes[0].generate_block()
    sim.run()
    # Forge a block whose payload does not match its header commitment.
    forged = Block(good.header, good.coinbase, SyntheticPayload(7, salt=b"forged"))
    nodes[1].on_message(
        0,
        __import__("repro.net.network", fromlist=["Message"]).Message(
            "object",
            __import__("repro.net.gossip", fromlist=["StoredObject"]).StoredObject(
                b"\xff" * 32, "block", forged, forged.size
            ),
            forged.size,
        ),
    )
    sim.run()
    assert nodes[1].blocks_rejected == 1
    assert nodes[1].tip == good.hash


# -- full-validation (library) mode -----------------------------------------


def _funded_node():
    """A single node with real-transaction policy and a mined coinbase."""
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.01), 1e6)
    policy = BlockPolicy(max_block_bytes=100_000, synthetic=False)
    owner = PrivateKey.from_seed("rich")
    log = ObservationLog(2)
    nodes = [
        BitcoinNode(i, sim, net, GENESIS, log=log, policy=policy, key=owner)
        for i in range(2)
    ]
    # Mine one block: its coinbase pays node 0's key.
    block = nodes[0].generate_block()
    sim.run()
    return sim, nodes, owner, block


def test_full_mode_coinbase_credited():
    sim, nodes, owner, block = _funded_node()
    pkh = hash160(owner.public_key().to_bytes())
    for node in nodes:
        assert node.utxo.balance(pkh) == block.coinbase.outputs[0].value


def test_full_mode_spend_flows_into_block():
    sim, nodes, owner, block = _funded_node()
    pkh = hash160(owner.public_key().to_bytes())
    dest = bytes(range(20))
    # Coinbase maturity: advance the chain 100 blocks first.
    for _ in range(100):
        nodes[0].generate_block()
        sim.run()
    spend = Transaction(
        inputs=(TxInput(OutPoint(block.coinbase.txid, 0)),),
        outputs=(TxOutput(10 * COIN, dest), TxOutput(14 * COIN, pkh)),
    ).sign_input(0, owner)
    nodes[0].submit_transaction(spend)
    mined = nodes[0].generate_block()
    sim.run()
    assert mined.n_tx == 1
    for node in nodes:
        assert node.utxo.balance(dest) == 10 * COIN


def test_full_mode_double_spend_rejected_in_mempool():
    sim, nodes, owner, block = _funded_node()
    pkh = hash160(owner.public_key().to_bytes())
    for _ in range(100):
        nodes[0].generate_block()
        sim.run()
    spend_a = Transaction(
        inputs=(TxInput(OutPoint(block.coinbase.txid, 0)),),
        outputs=(TxOutput(1 * COIN, pkh),),
    ).sign_input(0, owner)
    spend_b = Transaction(
        inputs=(TxInput(OutPoint(block.coinbase.txid, 0)),),
        outputs=(TxOutput(2 * COIN, pkh),),
    ).sign_input(0, owner)
    nodes[0].submit_transaction(spend_a)
    with pytest.raises(MempoolError):
        nodes[0].submit_transaction(spend_b)


def test_full_mode_fees_accrue_to_miner():
    sim, nodes, owner, block = _funded_node()
    pkh = hash160(owner.public_key().to_bytes())
    for _ in range(100):
        nodes[0].generate_block()
        sim.run()
    total = block.coinbase.outputs[0].value
    fee = 5 * COIN
    spend = Transaction(
        inputs=(TxInput(OutPoint(block.coinbase.txid, 0)),),
        outputs=(TxOutput(total - fee, pkh),),
    ).sign_input(0, owner)
    nodes[0].submit_transaction(spend)
    mined = nodes[0].generate_block()
    sim.run()
    # The miner's coinbase includes subsidy + the fee.
    assert mined.coinbase.outputs[0].value == nodes[0].policy.reward + fee


def _spend(outpoint, value):
    return Transaction(
        inputs=(TxInput(outpoint),), outputs=(TxOutput(value, bytes(20)),)
    ).sign_input(0, OWNER)


def _node_with_a_spendable_coin(node_type=BitcoinNode, n=2):
    """Full-mode nodes that all hold one mature coin of ``OWNER``."""
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(n), constant_histogram(0.01), 1e6)
    policy = BlockPolicy(max_block_bytes=100_000, synthetic=False)
    log = ObservationLog(n)
    nodes = [
        node_type(i, sim, net, GENESIS, log=log, policy=policy) for i in range(n)
    ]
    outpoint = OutPoint(b"\xee" * 32, 0)
    for node in nodes:
        node.utxo.credit(
            TxOutput(100, hash160(OWNER.public_key().to_bytes())),
            outpoint,
            height=0,
        )
    return sim, nodes, outpoint, _spend(outpoint, 90)


def test_submitted_transaction_is_gossiped_into_peer_mempools():
    sim, nodes, _, spend = _node_with_a_spendable_coin()
    nodes[0].submit_transaction(spend)
    sim.run()
    assert spend.txid in nodes[0].mempool
    assert spend.txid in nodes[1].mempool


def test_tx_admission_validates_at_the_next_height(monkeypatch):
    sim, _, nodes = _cluster()
    heights = []

    def fake_validate(tx, utxo, height, check_signatures=True):
        heights.append(height)
        return 0

    monkeypatch.setattr(node_mod, "validate_spend", fake_validate)
    nodes[0].submit_transaction(
        Transaction(inputs=(), outputs=(TxOutput(1, bytes(20)),))
    )
    nodes[0]._accept_relayed_transaction(
        Transaction(inputs=(), outputs=(TxOutput(2, bytes(20)),))
    )
    # A transaction admitted now can first appear in the *next* block.
    assert heights == [1, 1]


def test_disconnecting_a_block_restores_coins_and_returns_its_transactions():
    sim, nodes, outpoint, spend = _node_with_a_spendable_coin()
    node = nodes[0]
    node.submit_transaction(spend)
    mined = node.generate_block()
    assert mined.n_tx == 1
    assert outpoint not in node.utxo and spend.txid not in node.mempool
    node._disconnect_block(mined)
    assert outpoint in node.utxo
    assert spend.txid in node.mempool


def test_connecting_a_block_reports_the_fees_its_transactions_paid():
    # Bitcoin's node has no use for the figure; Bitcoin-NG's records it
    # per microblock for the 40/60 split.
    sim, nodes, _, spend = _node_with_a_spendable_coin()
    node = nodes[0]
    node.submit_transaction(spend)
    mined = node.generate_block()
    node._disconnect_block(mined)
    assert node._connect_block(mined) == 10
    # A synthetic block carries no ledger entries: the receive path
    # applies nothing, so nothing is paid and nothing is kept to undo.
    _, _, (miner, *_rest) = _cluster()
    synthetic = miner.generate_block()
    assert synthetic.ledger_entries is None
    assert synthetic.hash not in miner._undo


def test_payout_identity_is_derived_once_per_mining_node(count_calls):
    from repro.crypto import ecdsa

    expected = hash160(
        PrivateKey.from_seed("bitcoin-node-0").public_key().to_bytes()
    )
    derivations = count_calls(ecdsa, "point_mul")
    sim, _, nodes = _cluster()
    assert derivations == []  # nothing at construction
    blocks = [nodes[0].generate_block() for _ in range(3)]
    assert len(derivations) == 1  # not one per mined block
    assert {b.coinbase.outputs[0].pubkey_hash for b in blocks} == {expected}


# -- one ledger under every protocol's node ----------------------------------


def test_nodes_inherit_the_ledger_rather_than_copy_it():
    """One connect/disconnect replay, one transaction path, one mining
    routine: a node class that re-defines any of these has started to
    drift (the tree's half of the seam is pinned in
    test_properties_chains)."""
    from repro.core.ghost_ng import GhostNGChain
    from repro.core.node import NGNode
    from repro.ghost.chain import GhostTree

    shared = (
        "deliver",  # the "tx" branch, and the dispatch on KINDS
        "_receive",  # the reorg replay, and the refusal when it fails
        "_disconnect_block",
        "submit_transaction",
        "_accept_relayed_transaction",
    )
    for node_type in (BitcoinNode, GhostNode, NGNode):
        for name in shared:
            assert getattr(node_type, name) is getattr(node_mod.ChainNode, name), (
                node_type.__name__,
                name,
            )
    assert GhostNode._connect_block is node_mod.ChainNode._connect_block
    assert GhostNode.generate_block is BitcoinNode.generate_block
    assert GhostNode.__init__ is BitcoinNode.__init__
    assert GhostTree._choose_tip is GhostNGChain._choose_tip


# -- a block whose spends do not connect --------------------------------------


def _object_message(block):
    stored = StoredObject(block.hash, "block", block, block.size)
    return Message("object", stored, block.size)


def _tx_block(prev_hash, transactions, timestamp):
    return build_block(
        prev_hash=prev_hash,
        payload=TxPayload(tuple(transactions)),
        timestamp=timestamp,
        bits=0x207FFFFF,
        miner_id=9,
        reward=25 * COIN,
    )


@pytest.fixture(params=[BitcoinNode, GhostNode], ids=["bitcoin", "ghost"])
def node_type(request):
    return request.param


def test_block_spending_an_unknown_coin_is_refused_not_a_crash(node_type):
    sim, nodes, _, _ = _node_with_a_spendable_coin(node_type, n=3)
    good = nodes[0].generate_block()
    sim.run()
    node = nodes[1]
    root_before = utxo_root(node.utxo)
    phantom = _spend(OutPoint(b"\xdd" * 32, 0), 1)
    bad = _tx_block(good.hash, [phantom], timestamp=1.0)
    node.on_message(0, _object_message(bad))  # used to raise InvalidBlock
    sim.run()
    assert node.blocks_rejected == 1
    assert bad.hash not in node.chain
    assert node.tip == good.hash
    assert utxo_root(node.utxo) == root_before
    assert node.misbehavior == {0: node.invalid_object_penalty}
    # Dropped, remembered as rejected, never relayed.
    assert not node.knows(bad.hash)
    assert not nodes[2].knows(bad.hash)
    node.chain.assert_consistent()
    # A second copy is refused by the tree itself, and so is a child.
    assert node._receive(bad, "block", sender=2) is False
    child = _tx_block(bad.hash, [], timestamp=2.0)
    assert node._receive(child, "block", sender=2) is False
    assert node.blocks_rejected == 3
    assert node.chain.orphan_count() == 0


def test_side_branch_with_a_double_spend_leaves_the_node_where_it_was(node_type):
    sim, nodes, outpoint, pay = _node_with_a_spendable_coin(node_type)
    node = nodes[0]
    node.submit_transaction(pay)
    kept = node.generate_block()
    assert node.tip == kept.hash and pay.txid not in node.mempool
    root_before = utxo_root(node.utxo)
    # A two-block branch off the genesis: the first block is fine (it
    # carries the same payment), the second spends the same coin again.
    first = _tx_block(GENESIS.hash, [pay], timestamp=1.0)
    second = _tx_block(first.hash, [_spend(outpoint, 80)], timestamp=2.0)
    node.chain.rng = StubRng(0.0)  # the tie keeps the held branch
    assert node._receive(first, "block", sender=1) is None  # a tie: not adopted
    assert node.tip == kept.hash
    assert node._receive(second, "block", sender=1) is False
    assert node.blocks_rejected == 1
    assert node.tip == kept.hash
    assert utxo_root(node.utxo) == root_before
    assert node.mempool.txids() == []
    assert kept.hash in node._undo and first.hash not in node._undo
    tree = node.chain
    assert first.hash in tree and second.hash not in tree
    assert tree.record(first.hash).children == []
    tree.assert_consistent()
    if hasattr(tree, "subtree_work"):
        unit = first.header.work
        assert tree.subtree_work(first.hash) == unit
        assert tree.subtree_work(GENESIS.hash) == 2 * unit
    # Life goes on: the next block on the old tip is adopted normally.
    later = node.generate_block()
    assert later.header.prev_hash == kept.hash
    assert node.tip == later.hash
    tree.assert_consistent()


def test_refused_orphan_does_not_take_the_delivered_block_with_it(node_type):
    """The block that fails to connect need not be the one delivered:
    a valid parent that unlocks a bad orphan is kept and relayed."""
    sim, nodes, _, _ = _node_with_a_spendable_coin(node_type)
    node = nodes[0]
    parent = _tx_block(GENESIS.hash, [], timestamp=1.0)
    phantom = _spend(OutPoint(b"\xdd" * 32, 0), 1)
    orphan = _tx_block(parent.hash, [phantom], timestamp=2.0)
    node._receive(orphan, "block", sender=1)
    assert node.chain.orphan_count() == 1
    assert node._receive(parent, "block", sender=1) is None
    assert node.tip == parent.hash
    assert node.blocks_rejected == 1
    assert orphan.hash not in node.chain
    assert node.utxo.balance(bytes(20)) == 25 * COIN  # parent's coinbase connected
    node.chain.assert_consistent()
