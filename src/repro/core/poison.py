"""Poison transactions: punishing equivocating leaders (Section 4.5).

"the entry is called a poison transaction, and it contains the header of
the first block in the pruned branch as a proof of fraud.  The poison
transaction has to be placed after the subsequent key block, and before
the revenue is spent by the malicious leader.  Besides invalidating the
compensation sent to the leader that generated the fork, a poison
transaction grants the current leader a fraction of that compensation,
e.g., 5%.  Only one poison transaction can be placed per cheater."
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import MICRO_HEADER_SIZE
from .chain import FraudProof, NGChain


class InvalidPoison(Exception):
    """Raised when a poison entry fails validation."""


@dataclass(frozen=True)
class PoisonEntry:
    """A ledger entry carrying a fraud proof against an epoch leader."""

    proof: FraudProof
    reporter_miner: int

    @property
    def offender_pubkey(self) -> bytes:
        return self.proof.offender_pubkey

    @property
    def size(self) -> int:
        """Wire size: a pruned microblock header plus bookkeeping."""
        return MICRO_HEADER_SIZE + 8


def validate_poison(
    chain: NGChain,
    poison: PoisonEntry,
    placement_key_height: int,
) -> None:
    """Check a poison entry against the chain's current main chain.

    Requirements enforced:

    1. the fraud proof's signature verifies under the offender key;
    2. the pruned microblock is *not* on the main chain while a
       conflicting sibling (same parent) *is* known — i.e. the leader
       really produced two successors;
    3. the offender key matches the epoch leader at the fraud's parent;
    4. placement happens after the offender's epoch ended (a subsequent
       key block exists) and before the offender's revenue matures.
    """
    proof = poison.proof
    if not proof.verify():
        raise InvalidPoison("fraud proof signature does not verify")
    pruned = proof.pruned_micro
    if chain.is_in_main_chain(pruned.hash):
        raise InvalidPoison("claimed pruned microblock is on the main chain")
    parent = chain.get(pruned.header.prev_hash)
    if parent is None:
        raise InvalidPoison("fraud parent unknown")
    if parent.leader_pubkey != proof.offender_pubkey:
        raise InvalidPoison("offender key does not match the epoch leader")
    sibling = chain.get(proof.retained_micro_hash)
    if sibling is None or sibling.header.prev_hash != pruned.header.prev_hash:
        raise InvalidPoison("no conflicting sibling microblock known")
    # Placement window: after the subsequent key block...
    offender_epoch = parent.key_height
    if placement_key_height <= offender_epoch:
        raise InvalidPoison("poison placed before the subsequent key block")
    # ...and before the offender's coinbase matures and can be spent.
    if placement_key_height > offender_epoch + chain.params.coinbase_maturity:
        raise InvalidPoison("offender revenue already spendable; too late")


class PoisonRegistry:
    """Tracks accepted poisons; enforces one poison per cheater.

    Maps offender epoch pubkey → reporter miner id, the exact structure
    :class:`~repro.core.remuneration.RewardLedger` consumes.
    """

    def __init__(self) -> None:
        self._by_offender: dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self._by_offender)

    def __contains__(self, offender_pubkey: bytes) -> bool:
        return offender_pubkey in self._by_offender

    def register(
        self, chain: NGChain, poison: PoisonEntry, placement_key_height: int
    ) -> bool:
        """Validate and record a poison; returns False for duplicates."""
        if poison.offender_pubkey in self._by_offender:
            return False
        validate_poison(chain, poison, placement_key_height)
        self._by_offender[poison.offender_pubkey] = poison.reporter_miner
        return True

    def revocations(self) -> dict[bytes, int]:
        return dict(self._by_offender)
