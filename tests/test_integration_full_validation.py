"""Full validation end to end: one ECDSA verify per signed object.

A small Bitcoin-NG network with real signed payments and
``check_signatures=True`` on every node -- the mode the paper's testbed
skipped (Section 7).  Every node still checks every spend against its
own UTXO set, but whether a signature verifies is a property of the
transaction or microblock object, so the whole network pays for it once
(docs/simulation.md, "Per-object work").
"""

import random

import repro.core.node as node_mod
from repro.core.blocks import Microblock
from repro.core.genesis import make_ng_genesis, seed_genesis_coins
from repro.core.node import MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.crypto.keys import PublicKey
from repro.ledger.transactions import COIN, Transaction, TxInput, TxOutput
from repro.ledger.utxo import UtxoSet
from repro.metrics.collector import ObservationLog
from repro.net.latency import default_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import random_topology
from repro.wallet import Wallet

N_NODES = 5
PARAMS = NGParams(key_block_interval=60.0, min_microblock_interval=2.0)
# (due, submitting node, payer, recipient, amount): wallet 0 needs both
# of its 10-coin outputs, the others spend one each.
PAYMENTS = (
    (1.0, 1, 0, 1, 12 * COIN),
    (3.5, 4, 1, 2, 3 * COIN),
    (6.0, 2, 2, 3, 4 * COIN),
    (12.5, 0, 3, 0, 2 * COIN),
)


class World:
    def __init__(self):
        self.sim = Simulator(seed=18)
        network = Network(
            self.sim,
            random_topology(N_NODES, min_degree=2, rng=random.Random(4)),
            default_histogram(seed=18),
            latency_rng=random.Random(5),
        )
        genesis = make_ng_genesis()
        policy = MicroblockPolicy(target_bytes=50_000, synthetic=False)
        log = ObservationLog(N_NODES)
        self.nodes = [
            NGNode(
                node_id,
                self.sim,
                network,
                genesis,
                PARAMS,
                log=log,
                policy=policy,
                check_signatures=True,
            )
            for node_id in range(N_NODES)
        ]
        self.wallets = [Wallet(f"full-validation-{i}") for i in range(4)]
        allocations = [
            (wallet.pubkey_hash(), 10 * COIN)
            for wallet in self.wallets
            for _ in range(2)
        ]
        for node in self.nodes:
            seed_genesis_coins(node.utxo, allocations)
        payer_view = UtxoSet()
        self.coins = seed_genesis_coins(payer_view, allocations)
        self.payments = []
        for due, node, payer, recipient, amount in PAYMENTS:
            tx = self.wallets[payer].build_payment(
                payer_view,
                [(self.wallets[recipient].pubkey_hash(), amount)],
                fee=2_000,
                height=1,
            )
            payer_view.apply(tx, 1)
            self.payments.append(tx)
            self.sim.schedule_at(due, self.nodes[node].submit_transaction, tx)

    def forged_spend(self) -> Transaction:
        """A coin of wallet 3 paid to wallet 0: wallet 3's key named,
        wallet 0's signature."""
        unsigned = Transaction(
            (TxInput(self.coins[7]),),
            (TxOutput(9 * COIN, self.wallets[0].pubkey_hash()),),
        )
        return Transaction(
            (
                TxInput(
                    self.coins[7],
                    self.wallets[3].public_key().to_bytes(),
                    self.wallets[0].key().sign(unsigned.sighash(0)),
                ),
            ),
            unsigned.outputs,
        )

    def run(self, forged: Transaction) -> None:
        """Two epochs of payments; ``forged`` enters the gossip at node 0
        the way a dishonest node would inject it -- announced without
        asking its own validation."""
        sim, nodes = self.sim, self.nodes
        nodes[0].generate_key_block()
        sim.schedule_at(
            5.0, nodes[0].announce, forged.txid, "tx", forged, forged.size
        )
        sim.schedule_at(9.0, nodes[3].generate_key_block)
        sim.run(until=19.5)
        nodes[3].abdicate()
        sim.run(until=25.0)


def _committed(node: NGNode) -> set[bytes]:
    txids: set[bytes] = set()
    for block_hash in node.chain.main_chain():
        block = node.chain.record(block_hash).block
        if isinstance(block, Microblock):
            txids.update(tx.txid for tx in block.payload.transactions)
    return txids


def test_network_pays_one_verify_per_signed_input_and_microblock(count_calls):
    verifies = count_calls(PublicKey, "verify")
    spends = count_calls(node_mod, "validate_spend")
    tips, counts = [], []
    for _run in range(2):  # the second world in the process starts cold
        del verifies[:], spends[:]
        world = World()
        forged = world.forged_spend()
        world.run(forged)
        nodes = world.nodes

        # Every node validated, and every node agrees.
        assert len({node.chain.tip for node in nodes}) == 1
        ledger = nodes[0].utxo.snapshot()
        assert all(node.utxo.snapshot() == ledger for node in nodes)
        assert all(len(node.mempool) == 0 for node in nodes)
        committed = _committed(nodes[-1])
        assert committed == {tx.txid for tx in world.payments}
        # Each wallet paid once, 2,000 units of fee on top.
        assert [
            nodes[2].utxo.balance(wallet.pubkey_hash()) for wallet in world.wallets
        ] == [coins * COIN - 2_000 for coins in (10, 29, 19, 22)]

        # The forged spend reached every other node, was refused by each
        # of them against its own UTXO set, and cost one verification.
        assert sum(args[0] is forged for args in spends) == N_NODES - 1
        assert all(forged.txid not in node.mempool for node in nodes)
        assert forged.txid not in committed
        assert forged.signature_faults == {0: "input 0 signature invalid"}
        forged_signature = forged.inputs[0].signature
        assert sum(args[2] == forged_signature for args in verifies) == 1

        # Every payment was validated at its submit node, at each relay
        # that admitted it to its mempool and again in each node's
        # connect -- for one verification per signed input -- and every
        # microblock by every node for one more each.
        microblocks = sum(node.microblocks_generated for node in nodes)
        assert microblocks >= 8
        for tx in world.payments:
            assert sum(args[0] is tx for args in spends) >= 2 * N_NODES - 1
        signed_inputs = sum(len(tx.inputs) for tx in world.payments)
        assert signed_inputs == 5
        assert len(verifies) == signed_inputs + microblocks + 1
        tips.append(nodes[0].chain.tip)
        counts.append((len(verifies), len(spends)))
    assert tips[0] == tips[1] and counts[0] == counts[1]
