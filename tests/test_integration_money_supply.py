"""Economic invariant: total money equals coinbase minting.

Over a multi-epoch NG run with real transactions, the UTXO total at
every node must equal genesis allocations plus key-block coinbase
minting minus fees destroyed by... nothing — fees are *redistributed*
by the 40/60 split, not burned, so supply = genesis + minted subsidies
+ re-minted fee shares − the original fees.  Since coinbases mint
subsidy + fee shares while spends destroy the fee amount, the net per
closed epoch is exactly the subsidy.  The test pins this conservation
law across leader switches and microblock pruning.
"""

import pytest

from repro.core.blocks import KeyBlock
from repro.core.genesis import make_ng_genesis, seed_genesis_coins
from repro.core.node import MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.transactions import COIN, Transaction, TxInput, TxOutput
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

PARAMS = NGParams(
    key_block_interval=30.0, min_microblock_interval=5.0, coinbase_maturity=1
)
USER = PrivateKey.from_seed("supply-user")
USER_PKH = hash160(USER.public_key().to_bytes())
GENESIS_FUNDS = 100 * COIN


@pytest.fixture()
def network():
    sim = Simulator(seed=5)
    net = Network(sim, complete_topology(3), constant_histogram(0.02), 1e6)
    genesis = make_ng_genesis()
    log = ObservationLog(3)
    nodes = [
        NGNode(
            i,
            sim,
            net,
            genesis,
            PARAMS,
            log=log,
            policy=MicroblockPolicy(target_bytes=50_000, synthetic=False),
            check_signatures=True,
        )
        for i in range(3)
    ]
    outpoint = None
    for node in nodes:
        (outpoint,) = seed_genesis_coins(node.utxo, [(USER_PKH, GENESIS_FUNDS)])
    return sim, nodes, outpoint


def test_supply_equals_genesis_plus_minting(network):
    sim, nodes, outpoint = network
    # Three epochs with payments flowing.
    nodes[0].generate_key_block()
    fee = 1 * COIN
    spend = Transaction(
        inputs=(TxInput(outpoint),),
        outputs=(TxOutput(GENESIS_FUNDS - 10 * COIN - fee, USER_PKH),
                 TxOutput(10 * COIN, bytes(20))),
    ).sign_input(0, USER)
    nodes[1].submit_transaction(spend)
    sim.run(until=12.0)
    nodes[1].generate_key_block()
    sim.run(until=40.0)
    nodes[2].generate_key_block()
    sim.run(until=70.0)

    for node in nodes:
        # Count coinbases that are connected on this node's main chain.
        minted = 0
        for block_hash in node.chain.main_chain():
            block = node.chain.get(block_hash)
            if isinstance(block, KeyBlock) and block_hash != node.chain.genesis_hash:
                minted += sum(out.value for out in block.coinbase.outputs)
        expected = GENESIS_FUNDS - fee + minted
        assert node.utxo.total_value() == expected


def test_all_nodes_agree_on_supply(network):
    sim, nodes, outpoint = network
    nodes[0].generate_key_block()
    sim.run(until=35.0)
    nodes[2].generate_key_block()
    sim.run(until=70.0)
    totals = {node.utxo.total_value() for node in nodes}
    assert len(totals) == 1


def test_fee_shares_traceable_to_leaders(network):
    sim, nodes, outpoint = network
    nodes[0].generate_key_block()
    fee = 2 * COIN
    spend = Transaction(
        inputs=(TxInput(outpoint),),
        outputs=(TxOutput(GENESIS_FUNDS - fee, USER_PKH),),
    ).sign_input(0, USER)
    nodes[0].submit_transaction(spend)
    sim.run(until=12.0)
    nodes[1].generate_key_block()
    sim.run(until=40.0)
    # The closing coinbase paid 40% of the fee to leader 0 and
    # subsidy + 60% to leader 1 — visible as balances.
    leader0 = nodes[2].utxo.balance(nodes[0].pubkey_hash)
    leader1 = nodes[2].utxo.balance(nodes[1].pubkey_hash)
    assert leader0 == PARAMS.key_block_reward + int(fee * 0.4)
    assert leader1 == PARAMS.key_block_reward + (fee - int(fee * 0.4))
