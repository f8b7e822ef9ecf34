"""Microblock-fork double spending and the poison response (Section 4.5).

"Since microblocks do not require mining, they can cheaply and quickly
be generated by the leader, allowing it to split the brain of the
system, publishing different replicated-state-machine states to
different machines.  This allows for double spending attacks ...  To
demotivate such behavior, we use a dedicated ledger entry that
invalidates the revenue of fraudulent leaders."

:func:`run_doublespend_scenario` plays the whole story end to end on
real protocol objects: a leader equivocates, nodes detect the fork,
the next leader publishes a poison, and the reward ledger revokes the
cheater's revenue while granting the reporter the bounty.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bitcoin.blocks import SyntheticPayload
from ..crypto.hashing import hash160
from ..crypto.keys import PrivateKey
from ..core.blocks import Microblock, build_key_block, build_microblock
from ..core.chain import NGChain
from ..core.genesis import make_ng_genesis
from ..core.params import NGParams
from ..core.poison import PoisonEntry, PoisonRegistry
from ..core.remuneration import RewardLedger, build_ng_coinbase


@dataclass(frozen=True)
class DoubleSpendReport:
    """Everything the scenario proves, for tests and examples."""

    equivocation_detected: bool
    poison_accepted: bool
    duplicate_poison_rejected: bool
    offender_revenue: int
    offender_revenue_without_poison: int
    reporter_bounty: int
    retained_micro: bytes
    pruned_micro: bytes


def run_doublespend_scenario(
    params: NGParams | None = None,
    fee_per_tx: int = 1000,
    txs_per_micro: int = 10,
) -> DoubleSpendReport:
    """A cheating leader equivocates; the protocol punishes it.

    Timeline (times in seconds, intervals respect the protocol minimum):

    1. miner 1 mines a key block, becoming leader;
    2. as leader it signs *two* conflicting microblocks on the same
       parent — one per victim partition (the double spend);
    3. miner 2 mines the next key block on one branch;
    4. miner 2, now leader, finds the fraud proof in its chain and
       places a poison entry;
    5. the reward ledger voids miner 1's epoch revenue and pays
       miner 2 the 5% bounty.
    """
    params = params or NGParams(
        key_block_interval=100.0, min_microblock_interval=10.0
    )
    genesis = make_ng_genesis()
    chain = NGChain(genesis, params)
    cheater_key = PrivateKey.from_seed("cheating-leader")
    honest_key = PrivateKey.from_seed("honest-leader")

    def payload(salt: bytes) -> SyntheticPayload:
        return SyntheticPayload(n_tx=txs_per_micro, tx_size=476, salt=salt)

    # 1. The cheater wins the first epoch.
    key1 = build_key_block(
        prev_hash=genesis.hash,
        timestamp=10.0,
        bits=0x207FFFFF,
        leader_pubkey=cheater_key.public_key().to_bytes(),
        coinbase=build_ng_coinbase(
            miner_id=1,
            timestamp=10.0,
            self_pubkey_hash=hash160(cheater_key.public_key().to_bytes()),
            prev_leader_pubkey_hash=None,
            prev_epoch_fees=0,
            params=params,
        ),
    )
    chain.add_block(key1, local_time=10.0)

    # 2. Equivocation: two signed microblocks on the same parent.
    micro_a = build_microblock(key1.hash, 20.0, payload(b"branch-a"), cheater_key)
    micro_b = build_microblock(key1.hash, 20.0, payload(b"branch-b"), cheater_key)
    chain.add_block(micro_a, local_time=20.0)
    chain.add_block(micro_b, local_time=20.5)  # the fork arrives late
    proofs = chain.equivocations()
    equivocation_detected = len(proofs) > 0

    # 3. An honest miner closes the epoch on the retained branch.
    key2 = build_key_block(
        prev_hash=chain.tip,
        timestamp=110.0,
        bits=0x207FFFFF,
        leader_pubkey=honest_key.public_key().to_bytes(),
        coinbase=build_ng_coinbase(
            miner_id=2,
            timestamp=110.0,
            self_pubkey_hash=hash160(honest_key.public_key().to_bytes()),
            prev_leader_pubkey_hash=hash160(cheater_key.public_key().to_bytes()),
            prev_epoch_fees=txs_per_micro * fee_per_tx,
            params=params,
        ),
    )
    chain.add_block(key2, local_time=110.0)

    # 4. The new leader places the poison.
    registry = PoisonRegistry()
    poison = PoisonEntry(proof=proofs[0], reporter_miner=2)
    poison_accepted = registry.register(
        chain, poison, placement_key_height=chain.tip_block.key_height
    )
    duplicate_rejected = not registry.register(
        chain,
        PoisonEntry(proof=proofs[0], reporter_miner=2),
        placement_key_height=chain.tip_block.key_height,
    )

    # 5. Revenue with and without the poison.
    ledger = RewardLedger(params, fee_of=lambda m: m.n_tx * fee_per_tx)
    blocks = [chain.get(h) for h in chain.main_chain()]
    _, revenue_with = ledger.compute(blocks, registry.revocations())
    _, revenue_without = ledger.compute(blocks, {})
    bounty = revenue_with.get(2, 0) - revenue_without.get(2, 0)
    return DoubleSpendReport(
        equivocation_detected=equivocation_detected,
        poison_accepted=poison_accepted,
        duplicate_poison_rejected=duplicate_rejected,
        offender_revenue=revenue_with.get(1, 0),
        offender_revenue_without_poison=revenue_without.get(1, 0),
        reporter_bounty=bounty,
        retained_micro=proofs[0].retained_micro_hash if proofs else b"",
        pruned_micro=proofs[0].pruned_micro.hash if proofs else b"",
    )
