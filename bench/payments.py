"""The full-validation payments workload: plan, world, run, checks.

The plan is plain data drawn from the benchmark seed — who pays whom,
how much, at which node, when.  Everything that touches the simulator
(wallets, signing, nodes, the run) happens in :func:`build_world` and
:func:`run_world`, which the benchmark times.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from repro.bitcoin.blocks import TxPayload
from repro.core.genesis import make_ng_genesis, seed_genesis_coins
from repro.core.node import MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.ledger.errors import LedgerError
from repro.ledger.transactions import COIN, Transaction
from repro.ledger.utxo import UtxoSet
from repro.metrics import ObservationLog
from repro.mining.scheduler import MiningScheduler
from repro.net.latency import default_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import random_topology
from repro.wallet import Wallet

# Every wallet starts with this many coins of this value and pays this
# many times.  Payments are worth less than a starting coin, so greedy
# largest-first selection always spends a starting coin — confirmed at
# genesis on every node — and never an unconfirmed change output: no
# payment's validity depends on how fast an earlier one committed.
COINS_PER_WALLET = 5
COIN_VALUE = 10 * COIN
MAX_PAYMENT = 3 * COIN


@dataclass(frozen=True)
class Payment:
    due: float  # simulated seconds; open loop, never waits for a commit
    node: int  # where it is submitted
    payer: int
    recipient: int
    amount: int
    fee: int


@dataclass(frozen=True)
class PaymentPlan:
    """The generated input of one ``ng_payments_full_12`` run."""

    n_nodes: int
    n_wallets: int
    lottery_seed: int
    topology_seed: int
    latency_seed: int
    first_leader: int
    payments: tuple[Payment, ...]
    key_block_interval: float = 30.0
    microblock_interval: float = 2.0
    cooldown: float = 30.0

    @property
    def duration(self) -> float:
        return self.payments[-1].due

    @property
    def horizon(self) -> float:
        return self.duration + self.cooldown


def make_plan(
    seed: int,
    lottery_seed: int,
    n_nodes: int = 12,
    n_wallets: int = 20,
    rate: float = 5.0,
) -> PaymentPlan:
    """Draw the schedule: ``COINS_PER_WALLET`` payments per wallet at
    ``rate`` per simulated second, starting one second in so the first
    key block has reached every node."""
    rng = random.Random(seed * 1_000_003 + 17)
    order = list(range(n_wallets))
    rng.shuffle(order)
    payments = []
    for index in range(n_wallets * COINS_PER_WALLET):
        payer = order[index % n_wallets]
        recipient = rng.randrange(n_wallets - 1)
        if recipient >= payer:
            recipient += 1
        payments.append(
            Payment(
                due=1.0 + index / rate,
                node=rng.randrange(n_nodes),
                payer=payer,
                recipient=recipient,
                amount=rng.randrange(COIN // 100, MAX_PAYMENT),
                fee=rng.randrange(1_000, 5_000),
            )
        )
    return PaymentPlan(
        n_nodes=n_nodes,
        n_wallets=n_wallets,
        lottery_seed=lottery_seed,
        topology_seed=rng.randrange(2**31),
        latency_seed=seed,
        first_leader=rng.randrange(n_nodes),
        payments=tuple(payments),
    )


@dataclass
class World:
    """One built network with its signed payments queued on the clock."""

    plan: PaymentPlan
    sim: Simulator
    network: Network
    nodes: list[NGNode]
    log: ObservationLog
    scheduler: MiningScheduler
    transactions: list[Transaction]
    rejected: dict[int, str] = field(default_factory=dict)

    def _submit(self, index: int) -> None:
        payment = self.plan.payments[index]
        try:
            self.nodes[payment.node].submit_transaction(
                self.transactions[index]
            )
        except LedgerError as exc:
            self.rejected[index] = f"{type(exc).__name__}: {exc}"


def build_world(plan: PaymentPlan) -> World:
    """Topology, links, nodes, genesis coins, wallets and signed payments."""
    sim = Simulator(seed=plan.lottery_seed)
    topology = random_topology(
        plan.n_nodes, min_degree=3, rng=random.Random(plan.topology_seed)
    )
    network = Network(
        sim,
        topology,
        default_histogram(seed=plan.latency_seed),
        latency_rng=random.Random(plan.topology_seed + 1),
    )
    log = ObservationLog(plan.n_nodes)
    params = NGParams(
        key_block_interval=plan.key_block_interval,
        min_microblock_interval=plan.microblock_interval,
    )
    genesis = make_ng_genesis()
    policy = MicroblockPolicy(target_bytes=50_000, synthetic=False)
    nodes = [
        NGNode(
            node_id,
            sim,
            network,
            genesis,
            params,
            log=log,
            policy=policy,
            check_signatures=True,
        )
        for node_id in range(plan.n_nodes)
    ]
    wallets = [Wallet(f"bench-wallet-{i}") for i in range(plan.n_wallets)]
    allocations = [
        (wallet.pubkey_hash(), COIN_VALUE)
        for wallet in wallets
        for _ in range(COINS_PER_WALLET)
    ]
    for node in nodes:
        seed_genesis_coins(node.utxo, allocations)
    # The payers' own view of their coins: each built payment is applied
    # to it so the next one picks a different starting coin.
    payer_view = UtxoSet()
    seed_genesis_coins(payer_view, allocations)
    transactions = []
    for payment in plan.payments:
        tx = wallets[payment.payer].build_payment(
            payer_view,
            [(wallets[payment.recipient].pubkey_hash(), payment.amount)],
            fee=payment.fee,
            height=1,
        )
        payer_view.apply(tx, 1)
        transactions.append(tx)
    scheduler = MiningScheduler(
        sim,
        [1.0] * plan.n_nodes,
        block_rate=1.0 / plan.key_block_interval,
        on_block=lambda winner: nodes[winner].generate_key_block(),
    )
    world = World(plan, sim, network, nodes, log, scheduler, transactions)
    for index, payment in enumerate(plan.payments):
        sim.schedule_at(payment.due, world._submit, index)
    return world


def run_world(world: World) -> None:
    """Elect the first leader, mine and pay until the schedule ends,
    then let the network settle."""
    plan = world.plan
    world.nodes[plan.first_leader].generate_key_block()
    world.scheduler.start()
    world.sim.run(until=plan.duration)
    world.scheduler.stop()
    world.sim.run(until=plan.horizon)
    world.log.finalize(plan.horizon)


def committed_at(world: World) -> dict[bytes, float]:
    """Per payment on *every* node's main chain: when the last node got
    the microblock that carries it (simulated seconds)."""
    holders: dict[bytes, list[bytes]] = {}
    for node in world.nodes:
        for block_hash in node.chain.main_chain():
            payload = getattr(node.chain.record(block_hash).block, "payload", None)
            if isinstance(payload, TxPayload):
                for tx in payload.transactions:
                    holders.setdefault(tx.txid, []).append(block_hash)
    committed = {}
    for txid, blocks in holders.items():
        if len(blocks) == len(world.nodes) and len(set(blocks)) == 1:
            committed[txid] = max(
                world.log.arrival_time(node.node_id, blocks[0])
                for node in world.nodes
            )
    return committed


def payment_failures(world: World, committed: dict[bytes, float]) -> list[str]:
    """One line per payment that was rejected or is not on every main
    chain; ``committed`` is :func:`committed_at` of the finished world."""
    failures = [
        f"payment {index} rejected at submit: {reason}"
        for index, reason in sorted(world.rejected.items())
    ]
    for index, tx in enumerate(world.transactions):
        if index not in world.rejected and tx.txid not in committed:
            failures.append(f"payment {index} missing from a main chain")
    return failures


def commit_latency(world: World, committed: dict[bytes, float]) -> float:
    """Median simulated seconds from a payment's due time to its commit."""
    return statistics.median(
        committed[tx.txid] - payment.due
        for payment, tx in zip(world.plan.payments, world.transactions)
        if tx.txid in committed
    )
