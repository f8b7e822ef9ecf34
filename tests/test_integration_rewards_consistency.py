"""Reward accounting consistency: ledger analysis vs live coinbases.

Two independent implementations of Section 4.4 must agree: the
:class:`~repro.core.remuneration.RewardLedger` (post-hoc analysis over
a chain) and the coinbases actually minted by live NG nodes during a
simulation.  Any drift between them would mean the incentive analysis
is reasoning about a different protocol than the one running.
"""

import pytest

from repro.core.chain import NGChain
from repro.core.genesis import make_ng_genesis
from repro.core.node import MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.core.remuneration import RewardLedger
from repro.core.blocks import KeyBlock
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

FEE_PER_TX = 1_000
PARAMS = NGParams(key_block_interval=50.0, min_microblock_interval=10.0)


def _run_epochs(n_epochs=4):
    sim = Simulator(seed=3)
    net = Network(sim, complete_topology(3), constant_histogram(0.02), 1e6)
    genesis = make_ng_genesis()
    policy = MicroblockPolicy(
        target_bytes=4760, synthetic_fee_per_tx=FEE_PER_TX
    )
    log = ObservationLog(3)
    nodes = [
        NGNode(i, sim, net, genesis, PARAMS, log=log, policy=policy)
        for i in range(3)
    ]
    t = 0.0
    for epoch in range(n_epochs):
        nodes[epoch % 3].generate_key_block()
        t += 45.0  # a few microblocks per epoch, no pruning races
        sim.run(until=t)
    sim.run(until=t + 10.0)
    return nodes


def test_reward_ledger_matches_minted_coinbases():
    nodes = _run_epochs()
    observer = nodes[2]
    chain = observer.chain
    blocks = [chain.get(h) for h in chain.main_chain()]
    ledger = RewardLedger(PARAMS, fee_of=lambda m: m.n_tx * FEE_PER_TX)
    epochs, analyzed_revenue = ledger.compute(blocks)

    # Independently: sum what the coinbases actually minted per miner,
    # attributing each output to the wallet that can spend it.
    minted: dict[int, int] = {}
    pkh_to_miner = {node.pubkey_hash: node.node_id for node in nodes}
    for block in blocks:
        if not isinstance(block, KeyBlock) or block.hash == chain.genesis_hash:
            continue
        for out in block.coinbase.outputs:
            miner = pkh_to_miner.get(out.pubkey_hash)
            if miner is not None:
                minted[miner] = minted.get(miner, 0) + out.value

    # The ledger's final (open) epoch holds back the leader's own
    # placed-fee share — the coinbase that would pay it does not exist
    # yet — so everything minted so far must match exactly.
    for miner, minted_total in minted.items():
        analyzed = analyzed_revenue.get(miner, 0)
        assert minted_total == analyzed, (
            f"miner {miner}: minted {minted_total} vs analyzed {analyzed}"
        )


def test_epoch_breakdown_fee_conservation():
    nodes = _run_epochs()
    chain = nodes[0].chain
    blocks = [chain.get(h) for h in chain.main_chain()]
    ledger = RewardLedger(PARAMS, fee_of=lambda m: m.n_tx * FEE_PER_TX)
    epochs, _ = ledger.compute(blocks)
    # Every closed epoch's fees split exactly 40/60 across two epochs.
    total_fees_closed = 0
    cursor_fees = {}
    for block in blocks:
        if not block.is_key:
            cursor_fees.setdefault(block.key_height, 0)
            cursor_fees[block.key_height] += block.n_tx * FEE_PER_TX
    last_height = max(b.key_height for b in blocks)
    for height, fees in cursor_fees.items():
        if height < last_height:
            total_fees_closed += fees
    distributed = sum(e.placed_fee_share + e.next_fee_share for e in epochs)
    assert distributed == total_fees_closed
