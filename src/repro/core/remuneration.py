"""Remuneration: the 40%/60% fee split and reward accounting (Section 4.4).

"Each key block entitles its generator a set amount.  Second, each
ledger entry carries a fee.  This fee is split by the leader that places
this entry in a microblock, and the subsequent leader that generates the
next key block.  Specifically, the current leader earns 40% of the fee,
and the subsequent leader earns 60%."

"In practice, the remuneration is implemented by having each key block
contain a single coinbase transaction that mints new coins and deposits
the funds to the current and previous leaders."

:class:`RewardLedger` computes realized per-miner revenue over a main
chain, applying poison-transaction revocations (Section 4.5), and is the
workhorse of the incentive experiments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Iterable

from ..ledger.transactions import Transaction, make_coinbase
from .blocks import KeyBlock, Microblock
from .params import NGParams


def split_fee(fee: int, leader_fraction: float) -> tuple[int, int]:
    """Split ``fee`` into (placing leader's cut, next leader's cut).

    Integer-exact: the two parts always sum to ``fee``; rounding dust
    goes to the next leader, mirroring how coinbase arithmetic must
    conserve value.
    """
    if fee < 0:
        raise ValueError("negative fee")
    current = int(fee * leader_fraction)
    return current, fee - current


def build_ng_coinbase(
    miner_id: int,
    timestamp: float,
    self_pubkey_hash: bytes,
    prev_leader_pubkey_hash: bytes | None,
    prev_epoch_fees: int,
    params: NGParams,
) -> Transaction:
    """Coinbase for a new key block.

    Pays the generator its subsidy plus 60% of the previous epoch's
    entry fees, and the previous leader its 40% share — one transaction,
    as the paper prescribes.
    """
    prev_cut, self_cut = split_fee(prev_epoch_fees, params.leader_fee_fraction)
    payouts = [(self_pubkey_hash, params.key_block_reward + self_cut)]
    if prev_leader_pubkey_hash is not None and prev_cut > 0:
        payouts.append((prev_leader_pubkey_hash, prev_cut))
    tag = struct.pack("<i", miner_id) + struct.pack("<d", timestamp)
    return make_coinbase(payouts, tag=tag)


# Maps a microblock to the total fees of its entries.  Synthetic-payload
# experiments supply ``lambda m: m.n_tx * fee_per_tx``.
FeeFunction = Callable[[Microblock], int]


@dataclass(frozen=True)
class EpochReward:
    """Revenue attribution for one completed epoch."""

    leader_miner: int
    leader_pubkey: bytes
    key_block_hash: bytes
    subsidy: int
    placed_fee_share: int  # 40% of fees this leader placed
    next_fee_share: int  # 60% of the *previous* epoch's fees
    revoked: bool = False

    @property
    def total(self) -> int:
        if self.revoked:
            return 0
        return self.subsidy + self.placed_fee_share + self.next_fee_share


class RewardLedger:
    """Computes per-miner realized revenue over a main chain.

    Walks the chain epoch by epoch: each key block closes the previous
    epoch, crediting 40% of its fees to the previous leader and 60% to
    the new one.  Poison revocations void the offending leader's epoch
    revenue and grant the reporter the bounty fraction.
    """

    def __init__(self, params: NGParams, fee_of: FeeFunction) -> None:
        self.params = params
        self.fee_of = fee_of

    def compute(
        self,
        chain: Iterable[KeyBlock | Microblock],
        revoked_leaders: dict[bytes, int] | None = None,
    ) -> tuple[list[EpochReward], dict[int, int]]:
        """Attribute revenue along ``chain`` (genesis-first blocks).

        ``revoked_leaders`` maps an offender's epoch pubkey to the
        reporter's miner id (from validated poison entries).  Returns the
        per-epoch breakdown and the aggregated miner → revenue map.
        """
        revoked_leaders = revoked_leaders or {}
        epochs: list[EpochReward] = []
        revenue: dict[int, int] = {}
        current_leader: tuple[int, bytes, bytes] | None = None  # miner, pubkey, hash
        epoch_fees = 0
        prev_fees = 0
        for block in chain:
            if isinstance(block, KeyBlock):
                if current_leader is not None:
                    miner, pubkey, key_hash = current_leader
                    placed_cut, _ = split_fee(
                        epoch_fees, self.params.leader_fee_fraction
                    )
                    _, next_cut = split_fee(
                        prev_fees, self.params.leader_fee_fraction
                    )
                    epochs.append(
                        EpochReward(
                            leader_miner=miner,
                            leader_pubkey=pubkey,
                            key_block_hash=key_hash,
                            subsidy=self.params.key_block_reward,
                            placed_fee_share=placed_cut,
                            next_fee_share=next_cut,
                            revoked=pubkey in revoked_leaders,
                        )
                    )
                prev_fees = epoch_fees
                epoch_fees = 0
                current_leader = (
                    block.miner_hint,
                    block.header.leader_pubkey,
                    block.hash,
                )
            else:
                epoch_fees += self.fee_of(block)
        # The final (open) epoch: subsidy plus 60% of the one before it;
        # its own placed fees are not yet payable (no subsequent leader).
        if current_leader is not None:
            miner, pubkey, key_hash = current_leader
            _, next_cut = split_fee(prev_fees, self.params.leader_fee_fraction)
            epochs.append(
                EpochReward(
                    leader_miner=miner,
                    leader_pubkey=pubkey,
                    key_block_hash=key_hash,
                    subsidy=self.params.key_block_reward,
                    placed_fee_share=0,
                    next_fee_share=next_cut,
                    revoked=pubkey in revoked_leaders,
                )
            )
        for epoch in epochs:
            revenue[epoch.leader_miner] = (
                revenue.get(epoch.leader_miner, 0) + epoch.total
            )
            if epoch.revoked:
                reporter = revoked_leaders[epoch.leader_pubkey]
                would_have_earned = (
                    epoch.subsidy + epoch.placed_fee_share + epoch.next_fee_share
                )
                bounty = int(
                    would_have_earned * self.params.poison_bounty_fraction
                )
                revenue[reporter] = revenue.get(reporter, 0) + bounty
        return epochs, revenue
