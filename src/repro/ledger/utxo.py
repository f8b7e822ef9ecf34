"""The UTXO set: the replicated state machine's state.

Applying a transaction consumes its inputs and creates its outputs.
Every apply returns an :class:`UndoRecord` so a chain reorganization can
roll the state back block by block — exactly what Bitcoin's ``CCoinsView``
undo data is for.  The set also tracks the height at which each coinbase
output was created so maturity (100 blocks in the paper, configurable
here) can be enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DoubleSpend, ImmatureSpend, MissingInput, ValueError_
from .transactions import MAX_MONEY, OutPoint, Transaction, TxOutput

# The paper: "this transaction can only be spent after a maturity period
# of 100 blocks, to avoid non-mergeable transactions following a fork."
DEFAULT_COINBASE_MATURITY = 100


@dataclass(frozen=True)
class Coin:
    """An unspent output plus the metadata validation needs."""

    output: TxOutput
    height: int
    is_coinbase: bool


@dataclass
class UndoRecord:
    """Everything needed to reverse one transaction's application."""

    txid: bytes
    spent: list[tuple[OutPoint, Coin]] = field(default_factory=list)
    created: list[OutPoint] = field(default_factory=list)


class UtxoSet:
    """Mutable set of unspent transaction outputs.

    Not thread-safe; each simulated node owns its own instance.
    """

    def __init__(self, coinbase_maturity: int = DEFAULT_COINBASE_MATURITY) -> None:
        self._coins: dict[OutPoint, Coin] = {}
        self.coinbase_maturity = coinbase_maturity

    def __len__(self) -> int:
        return len(self._coins)

    def __contains__(self, outpoint: OutPoint) -> bool:
        return outpoint in self._coins

    def get(self, outpoint: OutPoint) -> Coin | None:
        return self._coins.get(outpoint)

    def total_value(self) -> int:
        """Sum of all unspent output values (the monetary base)."""
        return sum(coin.output.value for coin in self._coins.values())

    def balance(self, pubkey_hash: bytes) -> int:
        """Aggregate unspent value owned by ``pubkey_hash``."""
        return sum(
            coin.output.value
            for coin in self._coins.values()
            if coin.output.pubkey_hash == pubkey_hash
        )

    def outpoints_for(self, pubkey_hash: bytes) -> list[OutPoint]:
        """All outpoints currently spendable by ``pubkey_hash``."""
        return [
            outpoint
            for outpoint, coin in self._coins.items()
            if coin.output.pubkey_hash == pubkey_hash
        ]

    def input_value(self, tx: Transaction, height: int) -> int:
        """Total value of a transaction's inputs, with maturity checks.

        Raises :class:`MissingInput` if any input is absent and
        :class:`ImmatureSpend` if it spends a young coinbase.
        """
        total = 0
        for txin in tx.inputs:
            coin = self._coins.get(txin.outpoint)
            if coin is None:
                raise MissingInput(f"missing {txin.outpoint!r}")
            if coin.is_coinbase and height - coin.height < self.coinbase_maturity:
                raise ImmatureSpend(
                    f"coinbase from height {coin.height} spent at {height}"
                )
            total += coin.output.value
        return total

    def apply(self, tx: Transaction, height: int) -> UndoRecord:
        """Apply a (pre-validated) transaction, returning undo data.

        Still enforces existence, no-double-spend, maturity, and value
        conservation as a defence in depth; signature validity is the
        caller's job (see :mod:`repro.ledger.validation`).
        """
        undo = UndoRecord(txid=tx.txid)
        seen: set[OutPoint] = set()
        for txin in tx.inputs:
            if txin.outpoint in seen:
                raise DoubleSpend(f"duplicate input {txin.outpoint!r}")
            seen.add(txin.outpoint)
        if not tx.is_coinbase:
            in_value = self.input_value(tx, height)
            out_value = sum(out.value for out in tx.outputs)
            if out_value > in_value:
                raise ValueError_(
                    f"outputs {out_value} exceed inputs {in_value}"
                )
        for txin in tx.inputs:
            coin = self._coins.pop(txin.outpoint)
            undo.spent.append((txin.outpoint, coin))
        for index, output in enumerate(tx.outputs):
            outpoint = OutPoint(tx.txid, index)
            self._coins[outpoint] = Coin(output, height, tx.is_coinbase)
            undo.created.append(outpoint)
        return undo

    def undo(self, record: UndoRecord) -> None:
        """Reverse a previously applied transaction (LIFO order required)."""
        for outpoint in record.created:
            self._coins.pop(outpoint, None)
        for outpoint, coin in record.spent:
            self._coins[outpoint] = coin

    def credit(self, output: TxOutput, outpoint: OutPoint, height: int = 0) -> None:
        """Insert a coin directly — used to seed genesis allocations."""
        if outpoint in self._coins:
            raise DoubleSpend(f"outpoint {outpoint!r} already exists")
        if output.value > MAX_MONEY:
            raise ValueError_("genesis credit exceeds MAX_MONEY")
        self._coins[outpoint] = Coin(output, height, is_coinbase=False)

    def snapshot(self) -> dict[OutPoint, Coin]:
        """Shallow copy of the coin map, for assertions in tests."""
        return dict(self._coins)
