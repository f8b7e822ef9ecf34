"""The invariant catalog: what the paper promises, checked against state.

Each checker subclasses :class:`InvariantChecker`: a code (``INV1xx``),
a name, and two hooks.  :meth:`InvariantChecker.check_block` runs once
per block the sweeping node newly adopted onto its main chain (oldest
first); :meth:`InvariantChecker.check_state` runs against the node's
current chain state whenever its tip moved since the last sweep.  The
audit's replicas call both hooks unconditionally.  Checkers only *read*
node state — they never schedule events, draw randomness, or mutate
anything, which is what keeps checked runs bit-identical to unchecked
runs (``tests/test_determinism.py`` compares the final state
fingerprints of both).

INV104 (microblock-leader-sig) is the one checker whose work is
expensive enough to dominate checked runs: a pure-Python ECDSA verify
per main-chain microblock per node.  Signature validity is a pure
function of ``(leader_pubkey, header, signature)``, so a process-wide
:class:`SignatureCache` memoizes the verdict and each unique pair is
verified exactly once per process — a reorg that moves a microblock
under a different epoch leader produces a *different* cache key, so
entries can never be served stale (see the class docstring).

The catalog keeps five checkers.  Nothing else checks the fee rules or
microblock signatures on received blocks in a synthetic run, INV109 is
the one check of a node's tip across sweeps, and INV111 the one check
of a GHOST node's subtree weights and tip in a run.  Rules the node
already enforces before it connects a block (microblock rate and size,
chain weight, poison proofs, coinbase maturity, mempool bookkeeping)
are pinned by tier-1 tests instead (``docs/sanitizer.md`` → "Which
checkers stay"):

========  ==========================  ==============================
code      name                        paper anchor
========  ==========================  ==============================
INV101    value-conservation          Section 4.4 (subsidy + fees)
INV102    fee-split                   Section 4.4 (40%/60% split)
INV104    microblock-leader-sig       Section 4.2 (epoch key signs)
INV109    tip-monotonicity            Section 3 (heaviest chain)
INV111    heaviest-subtree-tip        Section 9 (GHOST)
========  ==========================  ==============================

:func:`ng_checkers` builds the Bitcoin-NG set.  Plain Bitcoin runs
INV109 alone; GHOST runs INV111 alone, because heaviest-subtree fork
choice may legitimately lower a tip's chain work.  The protocol
adapters are a closed set, so a checker's node is always a
:class:`~repro.bitcoin.node.ChainNode`, and the NG checkers' is always
an :class:`~repro.core.node.NGNode`; the block hooks read the tree facts
on the block itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from ..bitcoin.blocks import SyntheticPayload
from ..core.blocks import KeyBlock, Microblock
from ..core.remuneration import split_fee
from ..obs.trace import short_hash
from .violations import ViolationRecord, make_violation

if TYPE_CHECKING:
    from ..bitcoin.blocks import Block
    from ..bitcoin.node import ChainNode
    from ..core.chain import NGBlock
    from ..core.node import NGNode


class SignatureCache:
    """Process-wide memo of microblock signature verdicts.

    Signature validity is a *pure function* of the verifying key, the
    signed header, and the signature bytes.  The cache key is therefore
    ``(leader_pubkey, microblock_hash, signature)``: the microblock hash
    pins the header (it covers prev-hash, timestamp, and entries root
    but — deliberately — not the signature, so the signature must be in
    the key itself), and the pubkey pins which epoch leader the pair is
    judged under.  Because the key captures the verification's full
    input, entries can never go stale: a reorg that drops a key block
    changes which ``leader_pubkey`` INV104 looks up — a *different* key,
    a fresh verification — never a wrong cached verdict.  Negative
    verdicts are cached too, so a forged microblock costs one verify,
    not one per sweep per node.
    """

    def __init__(self, max_entries: int = 1 << 20) -> None:
        self.max_entries = max(1, int(max_entries))
        self.hits = 0
        self.misses = 0
        self._verdicts: dict[tuple[bytes, bytes, bytes], bool] = {}

    def __len__(self) -> int:
        return len(self._verdicts)

    def clear(self) -> None:
        """Drop all memoized verdicts (and reset the hit/miss counters).

        Safe at any time — the cache memoizes a pure function, so a
        cleared entry is simply recomputed on next lookup.  Benchmarks
        use this to measure cold-cache checked runs.
        """
        self._verdicts.clear()
        self.hits = 0
        self.misses = 0

    def verify(self, block: Microblock, leader_pubkey: bytes) -> bool:
        """``block.verify_signature(leader_pubkey)``, memoized."""
        key = (leader_pubkey, block.hash, block.signature)
        verdict = self._verdicts.get(key)
        if verdict is None:
            self.misses += 1
            verdict = bool(block.verify_signature(leader_pubkey))
            if len(self._verdicts) >= self.max_entries:
                # Bounded: dropping memoized verdicts of a pure function
                # is always safe — they refill on demand.
                self._verdicts.clear()
            self._verdicts[key] = verdict
        else:
            self.hits += 1
        return verdict


_SHARED_SIGNATURE_CACHE = SignatureCache()


def shared_signature_cache() -> SignatureCache:
    """The process-wide cache :func:`ng_checkers` wires into INV104."""
    return _SHARED_SIGNATURE_CACHE


def _microblock_fees(node: NGNode, micro: Microblock) -> int:
    """Total entry fees a microblock carries, as the node accounts them.

    Mirrors ``NGNode._microblock_fees``: synthetic payloads price at the
    node's per-tx policy fee; real payloads use the fee total the node
    recorded when the microblock connected.
    """
    if isinstance(micro.payload, SyntheticPayload):
        return micro.n_tx * node.policy.synthetic_fee_per_tx
    return node._fees_by_micro.get(micro.hash, 0)


def _epoch_fees_behind(node: NGNode, parent_hash: bytes) -> int:
    """Fees in the microblock run ending at ``parent_hash`` (exclusive of
    the key block that opened the epoch)."""
    fees = 0
    chain = node.chain
    cursor = chain.get(parent_hash)
    while isinstance(cursor, Microblock):
        fees += _microblock_fees(node, cursor)
        cursor = chain.get(cursor.header.prev_hash)
    return fees


class InvariantChecker:
    """One protocol invariant: a code, a description, and two hooks."""

    code: ClassVar[str] = "INV000"
    name: ClassVar[str] = "unnamed"
    description: ClassVar[str] = ""

    def check_block(
        self, node: ChainNode, node_id: int, block: Block | NGBlock, now: float
    ) -> list[ViolationRecord]:
        """Called once per block newly adopted onto the node's main chain."""
        return []

    def check_state(
        self, node: ChainNode, node_id: int, now: float
    ) -> list[ViolationRecord]:
        """Called against the node's live state: by the sweep when the
        node's tip moved, and unconditionally by every audit."""
        return []


# -- block-scoped checkers ---------------------------------------------------
#
# All of these verify properties of individual (immutable) blocks via
# ``check_block``.


class ValueConservation(InvariantChecker):
    code = "INV101"
    name = "value-conservation"
    description = (
        "Every key block's coinbase mints exactly key_block_reward plus "
        "the entry fees of the epoch it closes — no inflation, no burn."
    )

    def check_block(
        self, node: NGNode, node_id: int, block: NGBlock, now: float
    ) -> list[ViolationRecord]:
        if not isinstance(block, KeyBlock):
            return []
        parent_hash = block.header.prev_hash
        if parent_hash not in node.chain:
            return []  # genesis
        coinbase = block.coinbase
        params = node.params
        fees = _epoch_fees_behind(node, parent_hash)
        expected = params.key_block_reward + fees
        minted = sum(out.value for out in coinbase.outputs)
        if minted != expected:
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "coinbase mints a different total than subsidy plus "
                    "closed-epoch fees",
                    block=short_hash(block.hash),
                    minted=minted,
                    expected=expected,
                    epoch_fees=fees,
                    subsidy=params.key_block_reward,
                )
            ]
        return []


class FeeSplit(InvariantChecker):
    code = "INV102"
    name = "fee-split"
    description = (
        "The previous leader's coinbase payout is exactly "
        "int(fees * leader_fee_fraction) satoshis — the 40% share, "
        "integer-exact, with rounding dust to the new leader."
    )

    def check_block(
        self, node: NGNode, node_id: int, block: NGBlock, now: float
    ) -> list[ViolationRecord]:
        if not isinstance(block, KeyBlock):
            return []
        parent_hash = block.header.prev_hash
        if parent_hash not in node.chain:
            return []  # genesis
        coinbase = block.coinbase
        if not coinbase.outputs:
            return []
        params = node.params
        fees = _epoch_fees_behind(node, parent_hash)
        prev_cut, _self_cut = split_fee(fees, params.leader_fee_fraction)
        paid_prev = sum(out.value for out in coinbase.outputs[1:])
        if paid_prev != prev_cut:
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "previous leader's fee share differs from the "
                    "integer-exact split",
                    block=short_hash(block.hash),
                    paid=paid_prev,
                    expected=prev_cut,
                    epoch_fees=fees,
                    fraction=params.leader_fee_fraction,
                )
            ]
        return []


class MicroblockSignature(InvariantChecker):
    code = "INV104"
    name = "microblock-leader-sig"
    description = (
        "Every microblock on the main chain verifies under the epoch "
        "leader's public key — the key in the latest key block before it."
    )

    def __init__(self, cache: SignatureCache | None = None) -> None:
        # ``cache=None`` verifies every call independently.
        # :func:`ng_checkers` passes the shared process-wide cache so
        # each unique (leader_pubkey, microblock, signature) triple is
        # verified once; the audit's replica is built without one.
        self.cache = cache

    def _verify(self, block: Microblock, leader_pubkey: bytes) -> bool:
        if self.cache is not None:
            return self.cache.verify(block, leader_pubkey)
        return bool(block.verify_signature(leader_pubkey))

    def check_block(
        self, node: NGNode, node_id: int, block: NGBlock, now: float
    ) -> list[ViolationRecord]:
        if not isinstance(block, Microblock):
            return []
        parent = node.chain.get(block.header.prev_hash)
        if parent is None:
            return []
        if not self._verify(block, parent.leader_pubkey):
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "microblock signature does not verify under the epoch "
                    "leader's key",
                    block=short_hash(block.hash),
                    parent=short_hash(block.header.prev_hash),
                )
            ]
        return []


# -- state-scoped checkers ---------------------------------------------------


class TipMonotonicity(InvariantChecker):
    code = "INV109"
    name = "tip-monotonicity"
    description = (
        "A node's tip weight never decreases: fork choice only ever "
        "switches to a chain of equal or greater key-block work."
    )
    # A weight decrease implies a tip switch, and the sweep re-runs
    # the state hook on every tip switch — skipped sweeps can't miss one.

    def __init__(self) -> None:
        self._last_weight: dict[int, int] = {}

    def check_state(
        self, node: ChainNode, node_id: int, now: float
    ) -> list[ViolationRecord]:
        weight = node.chain.tip_block.cumulative_work
        previous = self._last_weight.get(node_id)
        self._last_weight[node_id] = weight
        if previous is not None and weight < previous:
            return [
                make_violation(
                    self,
                    node_id,
                    now,
                    "tip weight decreased between sweeps",
                    weight=weight,
                    previous=previous,
                )
            ]
        return []


class HeaviestSubtreeTip(InvariantChecker):
    code = "INV111"
    name = "heaviest-subtree-tip"
    description = (
        "A GHOST node's subtree weights sum over their descendants, and "
        "its tip ends a heaviest-child descent from the genesis."
    )

    def check_state(
        self, node: ChainNode, node_id: int, now: float
    ) -> list[ViolationRecord]:
        chain = node.chain
        try:
            chain.assert_consistent()
        except chain.invalid as error:
            return [make_violation(self, node_id, now, str(error))]
        return []


def ng_checkers() -> list[InvariantChecker]:
    """Fresh instances of the Bitcoin-NG invariant catalog.

    INV104 gets the shared process-wide :class:`SignatureCache`, so each
    unique signature pair is verified once per process.  (The audit
    builds its own replicas with no cache, so a wrong cached verdict
    cannot reach it — see
    :meth:`~repro.sanitizer.runtime.SanitizerRuntime._audit_replicas`.)
    """
    return [
        ValueConservation(),
        FeeSplit(),
        MicroblockSignature(cache=shared_signature_cache()),
        TipMonotonicity(),
    ]
