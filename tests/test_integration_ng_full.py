"""Full-validation Bitcoin-NG: real transactions end to end.

Exercises the library mode the paper's testbed skipped: microblocks
carrying real UTXO transactions with ECDSA signatures, state tracked
through leader switches and microblock pruning.
"""

import pytest

from repro.core.genesis import make_ng_genesis, seed_genesis_coins
from repro.core.node import MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.transactions import (
    COIN,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

PARAMS = NGParams(
    key_block_interval=100.0, min_microblock_interval=10.0, coinbase_maturity=2
)
USER = PrivateKey.from_seed("ng-user")
USER_PKH = hash160(USER.public_key().to_bytes())
MERCHANT = bytes(range(40, 60))


@pytest.fixture()
def cluster():
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(3), constant_histogram(0.02), 1e6)
    genesis = make_ng_genesis()
    policy = MicroblockPolicy(target_bytes=50_000, synthetic=False)
    log = ObservationLog(3)
    nodes = [
        NGNode(
            i, sim, net, genesis, PARAMS, log=log, policy=policy,
            check_signatures=True,
        )
        for i in range(3)
    ]
    # Give the user genesis coins on every node's state, identically.
    outpoints = None
    for node in nodes:
        outpoints = seed_genesis_coins(node.utxo, [(USER_PKH, 10 * COIN)])
    return sim, nodes, outpoints[0]


def test_transaction_serialized_in_microblock(cluster):
    sim, nodes, outpoint = cluster
    nodes[0].generate_key_block()
    spend = Transaction(
        inputs=(TxInput(outpoint),),
        outputs=(TxOutput(4 * COIN, MERCHANT), TxOutput(6 * COIN, USER_PKH)),
    ).sign_input(0, USER)
    nodes[0].submit_transaction(spend)
    sim.run(until=15.0)  # the first microblock carries it
    for node in nodes:
        assert node.utxo.balance(MERCHANT) == 4 * COIN
        assert node.utxo.balance(USER_PKH) == 6 * COIN


def test_invalid_signature_never_enters_chain(cluster):
    sim, nodes, outpoint = cluster
    nodes[0].generate_key_block()
    thief = PrivateKey.from_seed("ng-thief")
    steal = Transaction(
        inputs=(TxInput(outpoint),),
        outputs=(TxOutput(10 * COIN, MERCHANT),),
    ).sign_input(0, thief)
    from repro.ledger.errors import BadSignature

    with pytest.raises(BadSignature):
        nodes[0].submit_transaction(steal)


def test_fee_split_pays_both_leaders_through_coinbase(cluster):
    sim, nodes, outpoint = cluster
    nodes[0].generate_key_block()
    fee = 1 * COIN
    spend = Transaction(
        inputs=(TxInput(outpoint),),
        outputs=(TxOutput(9 * COIN, MERCHANT),),  # 1 coin fee
    ).sign_input(0, USER)
    nodes[0].submit_transaction(spend)
    sim.run(until=15.0)
    key2 = nodes[1].generate_key_block()
    sim.run(until=16.0)
    values = {out.pubkey_hash: out.value for out in key2.coinbase.outputs}
    assert values[nodes[0].pubkey_hash] == int(fee * 0.4)
    assert values[nodes[1].pubkey_hash] == PARAMS.key_block_reward + fee - int(fee * 0.4)


def test_state_survives_microblock_pruning(cluster):
    # Figure 2 with real state: a key block prunes a microblock the new
    # leader had not seen; nodes that applied it must roll it back.
    sim, nodes, outpoint = cluster
    nodes[0].generate_key_block()
    sim.run(until=11.0)  # first (empty) microblock everywhere
    spend = Transaction(
        inputs=(TxInput(outpoint),),
        outputs=(TxOutput(10 * COIN, MERCHANT),),
    ).sign_input(0, USER)
    nodes[0].submit_transaction(spend)
    # The leader emits the spend's microblock at t=20 but node 2 mines a
    # key block at t=20.05 on the earlier tip, pruning it.
    sim.run(until=20.01)
    assert nodes[0].utxo.balance(MERCHANT) == 10 * COIN  # leader applied it
    nodes[2].generate_key_block()
    sim.run(until=25.0)
    # The new key block wins; the spend is rolled back everywhere and
    # sits in mempools for re-inclusion.
    for node in nodes:
        assert node.tip == nodes[2].tip
    assert nodes[0].utxo.balance(MERCHANT) == 0
    assert spend.txid in nodes[0].mempool
    # The new leader eventually re-serializes it.
    sim.run(until=45.0)
    assert nodes[2].utxo.balance(MERCHANT) == 10 * COIN


def test_coinbase_maturity_in_ng(cluster):
    sim, nodes, outpoint = cluster
    key1 = nodes[0].generate_key_block()
    sim.run(until=1.0)
    reward_outpoint = OutPoint(key1.coinbase.txid, 0)
    immature_spend = Transaction(
        inputs=(TxInput(reward_outpoint),),
        outputs=(TxOutput(PARAMS.key_block_reward, MERCHANT),),
    ).sign_input(0, nodes[0].key)
    from repro.ledger.errors import ImmatureSpend

    with pytest.raises(ImmatureSpend):
        nodes[0].submit_transaction(immature_spend)
