#!/usr/bin/env python3
"""A Bitcoin-NG payment network with real transactions.

This example uses the library in full-validation mode — the mode the
paper's testbed deliberately skipped: microblocks carry real UTXO
transactions, ECDSA signatures are produced and checked, fee revenue is
split 40/60 between leaders through key-block coinbases, and the ledger
rolls back cleanly when a leader switch prunes a microblock.

Run:  python examples/payment_network.py
"""

from repro.core import MicroblockPolicy, NGNode, NGParams, make_ng_genesis
from repro.core.genesis import seed_genesis_coins
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.transactions import COIN, Transaction, TxInput, TxOutput
from repro.metrics import ObservationLog
from repro.net import Network, Simulator, complete_topology, constant_histogram

PARAMS = NGParams(key_block_interval=60.0, min_microblock_interval=5.0)


def main() -> None:
    sim = Simulator(seed=11)
    network = Network(
        sim, complete_topology(4), constant_histogram(0.05), bandwidth_bps=1e6
    )
    genesis = make_ng_genesis()
    log = ObservationLog(4)
    nodes = [
        NGNode(
            i,
            sim,
            network,
            genesis,
            PARAMS,
            log=log,
            policy=MicroblockPolicy(target_bytes=50_000, synthetic=False),
            check_signatures=True,
        )
        for i in range(4)
    ]

    # Wallets: Alice holds genesis coins; Bob runs a shop.
    alice = PrivateKey.from_seed("alice-wallet")
    alice_pkh = hash160(alice.public_key().to_bytes())
    bob = PrivateKey.from_seed("bob-wallet")
    bob_pkh = hash160(bob.public_key().to_bytes())
    for node in nodes:
        outpoints = seed_genesis_coins(node.utxo, [(alice_pkh, 50 * COIN)])
    print(f"alice starts with {nodes[0].balance_of(alice_pkh) / COIN:.0f} coins")

    # Node 0 wins the first key block and leads.
    nodes[0].generate_key_block()
    sim.run(until=1.0)
    print(f"node 0 elected leader (epoch key in every chain)")

    # Alice pays Bob 20 coins with a 1-coin fee.
    payment = Transaction(
        inputs=(TxInput(outpoints[0]),),
        outputs=(
            TxOutput(20 * COIN, bob_pkh),
            TxOutput(29 * COIN, alice_pkh),  # change; 1 coin fee
        ),
    ).sign_input(0, alice)
    nodes[1].submit_transaction(payment)  # submitted anywhere, gossiped
    sim.run(until=10.0)  # the leader's next microblock serializes it
    print(
        f"payment serialized: bob={nodes[3].balance_of(bob_pkh) / COIN:.0f}, "
        f"alice={nodes[3].balance_of(alice_pkh) / COIN:.0f} "
        f"(observed at node 3)"
    )

    # Node 2 wins the next key block; its coinbase splits Alice's fee
    # 40% to the previous leader, 60% to itself.
    key2 = nodes[2].generate_key_block()
    sim.run(until=12.0)
    payouts = {
        out.pubkey_hash: out.value / COIN for out in key2.coinbase.outputs
    }
    print("\nsecond key block coinbase (fee split, Section 4.4):")
    print(f"  previous leader (node 0): {payouts[nodes[0].pubkey_hash]:.2f} coins (40% of fees)")
    print(
        f"  new leader (node 2): {payouts[nodes[2].pubkey_hash]:.2f} coins "
        f"(subsidy + 60% of fees)"
    )

    # The new leader keeps serializing; leave a moment of quiet after
    # the last microblock so the final one propagates.
    sim.run(until=43.0)
    heights = {node.node_id: node.chain.tip_record.height for node in nodes}
    print(f"\nchain heights after 43 s: {heights} (all agree)")
    assert len({node.tip for node in nodes}) == 1


if __name__ == "__main__":
    main()
