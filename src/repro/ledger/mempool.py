"""The mempool: transactions awaiting serialization into blocks.

Fee-rate-ordered block template construction, double-spend rejection,
and eviction of conflicting entries after a block connects.  (The
paper's pre-filled pools of independent transactions are the blocks'
``SyntheticPayload``, not mempool entries.)
"""

from __future__ import annotations

from collections import OrderedDict

from .errors import MempoolError
from .transactions import OutPoint, Transaction

# Default capacity, sized like Bitcoin Core's 300 MB default assuming
# ~300 byte transactions.
DEFAULT_MAX_ENTRIES = 1_000_000


class Mempool:
    """Pending-transaction store with spend-conflict tracking."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self._entries: OrderedDict[bytes, Transaction] = OrderedDict()
        self._fees: dict[bytes, int] = {}
        self._spends: dict[OutPoint, bytes] = {}
        self.max_entries = max_entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, txid: bytes) -> bool:
        return txid in self._entries

    def txids(self) -> list[bytes]:
        """Pool transaction ids in insertion order (a copy; state digests)."""
        return list(self._entries)

    def add(self, tx: Transaction, fee: int = 0) -> None:
        """Insert a transaction; rejects duplicates and in-pool conflicts."""
        if tx.txid in self._entries:
            raise MempoolError("transaction already in mempool")
        if len(self._entries) >= self.max_entries:
            raise MempoolError("mempool full")
        for txin in tx.inputs:
            conflict = self._spends.get(txin.outpoint)
            if conflict is not None:
                raise MempoolError(
                    f"outpoint {txin.outpoint!r} already spent by "
                    f"{conflict.hex()[:8]}"
                )
        self._entries[tx.txid] = tx
        self._fees[tx.txid] = fee
        for txin in tx.inputs:
            self._spends[txin.outpoint] = tx.txid

    def remove(self, txid: bytes) -> Transaction | None:
        """Remove and return a transaction (None if absent)."""
        tx = self._entries.pop(txid, None)
        if tx is None:
            return None
        self._fees.pop(txid, None)
        for txin in tx.inputs:
            if self._spends.get(txin.outpoint) == txid:
                del self._spends[txin.outpoint]
        return tx

    def evict_conflicts(self, tx: Transaction) -> list[Transaction]:
        """Drop pool entries whose inputs conflict with a confirmed tx.

        Called when a block connects: the confirmed transaction wins and
        any pending double-spends become invalid.
        """
        evicted = []
        for txin in tx.inputs:
            conflict = self._spends.get(txin.outpoint)
            if conflict is not None and conflict != tx.txid:
                removed = self.remove(conflict)
                if removed is not None:
                    evicted.append(removed)
        self.remove(tx.txid)
        return evicted

    def select(self, max_bytes: int) -> list[Transaction]:
        """Choose transactions for a block template within ``max_bytes``:
        the highest fee-per-byte entries win.  Selected entries stay in
        the pool until confirmed."""
        ordered = sorted(
            self._entries.values(),
            key=lambda tx: self._fees[tx.txid] / max(tx.size, 1),
            reverse=True,
        )
        selected: list[Transaction] = []
        used = 0
        for tx in ordered:
            if used + tx.size > max_bytes:
                continue
            selected.append(tx)
            used += tx.size
        return selected
