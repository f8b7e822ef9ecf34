"""Wallet + node: the full user story, live.

A merchant runs a wallet against its own NG node, a customer pays, the
leader's next microblock serializes the payment and the merchant's node
credits it — all over the simulated network with full validation.
"""

import pytest

from repro.core.genesis import make_ng_genesis, seed_genesis_coins
from repro.core.node import KIND_MICRO, MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.ledger.transactions import COIN
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.wallet import Wallet

PARAMS = NGParams(
    key_block_interval=60.0, min_microblock_interval=10.0, coinbase_maturity=1
)


@pytest.fixture()
def world():
    sim = Simulator(seed=8)
    net = Network(sim, complete_topology(3), constant_histogram(0.03), 1e6)
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
    customer = Wallet("customer-w")
    merchant = Wallet("merchant-w")
    for node in nodes:
        seed_genesis_coins(node.utxo, [(customer.pubkey_hash(), 30 * COIN)])
    return sim, nodes, customer, merchant


def test_payment_lifecycle(world):
    sim, nodes, customer, merchant = world
    merchant_node = nodes[2]

    # Epoch starts; customer builds the payment with its wallet and
    # submits it anywhere.
    nodes[0].generate_key_block()
    payment = customer.build_payment(
        nodes[1].utxo,
        [(merchant.pubkey_hash(), 12 * COIN)],
        fee=int(0.1 * COIN),
        height=nodes[1].chain.tip_block.height + 1,
    )
    nodes[1].submit_transaction(payment)

    # The leader's next microblock serializes it; the merchant node
    # sees it arrive.
    sim.run(until=11.0)
    tip = merchant_node.chain.tip_block
    assert not tip.is_key
    assert payment.txid in [
        tx.txid for tx in tip.payload.transactions  # type: ignore[union-attr]
    ]
    # Funds are visible at the merchant's node.
    assert merchant_node.utxo.balance(merchant.pubkey_hash()) == 12 * COIN


def test_merchant_wallet_can_respend(world):
    sim, nodes, customer, merchant = world
    nodes[0].generate_key_block()
    payment = customer.build_payment(
        nodes[1].utxo,
        [(merchant.pubkey_hash(), 12 * COIN)],
        fee=0,
        height=1,
    )
    nodes[1].submit_transaction(payment)
    sim.run(until=25.0)
    # The merchant's wallet sees the coin through its node's UTXO set
    # and can spend it onward.
    height = nodes[2].chain.tip_block.height + 1
    coins = merchant.spendable_coins(nodes[2].utxo, height)
    assert sum(coin.value for coin in coins) == 12 * COIN
    onward = merchant.build_payment(
        nodes[2].utxo,
        [(customer.pubkey_hash(), 3 * COIN)],
        fee=0,
        height=height,
    )
    nodes[2].submit_transaction(onward)
    sim.run(until=45.0)
    assert nodes[0].utxo.balance(customer.pubkey_hash()) == (
        30 * COIN - 12 * COIN + 3 * COIN
    )
