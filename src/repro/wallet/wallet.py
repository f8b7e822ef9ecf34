"""A single-user wallet: keys, coins, and payment construction.

The paper's user model (Section 3): "Each user commands addresses, and
sends Bitcoins by forming a transaction from her address to another's
address".  This wallet derives keys deterministically from a seed,
tracks spendable coins against a node's UTXO set, and builds signed
payments with greedy coin selection and automatic change.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.keys import PrivateKey, PublicKey
from ..ledger.transactions import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from ..ledger.utxo import UtxoSet


class WalletError(Exception):
    """Base class for wallet failures."""


class InsufficientFunds(WalletError):
    """The wallet cannot cover amount + fee with spendable coins."""


# Below this, change is not worth an output and is left as extra fee
# (Bitcoin's dust threshold is of this order).
DUST_THRESHOLD = 546


@dataclass(frozen=True)
class SpendableCoin:
    """A coin the wallet can spend right now."""

    outpoint: OutPoint
    value: int
    key_index: int


class Wallet:
    """Deterministic key chain plus payment construction.

    Keys are derived as ``seed/<index>``; key 0 is the default receiving
    key.  The wallet holds no state about the chain —
    callers pass the UTXO set (a node's view) to query and spend.
    """

    def __init__(self, seed: str | bytes, n_keys: int = 1) -> None:
        if n_keys < 1:
            raise WalletError("wallet needs at least one key")
        if isinstance(seed, bytes):
            seed = seed.decode("latin-1")
        self._seed = seed
        self._keys: list[PrivateKey] = []
        for index in range(n_keys):
            self._keys.append(self._derive(index))

    def _derive(self, index: int) -> PrivateKey:
        return PrivateKey.from_seed(f"{self._seed}/{index}")

    # -- keys --------------------------------------------------------------

    @property
    def n_keys(self) -> int:
        return len(self._keys)

    def key(self, index: int = 0) -> PrivateKey:
        return self._keys[index]

    def public_key(self, index: int = 0) -> PublicKey:
        return self._keys[index].public_key()

    def pubkey_hash(self, index: int = 0) -> bytes:
        return self.public_key(index).pubkey_hash

    # -- coins -------------------------------------------------------------

    def spendable_coins(
        self, utxo: UtxoSet, height: int
    ) -> list[SpendableCoin]:
        """All wallet coins spendable at ``height`` (maturity enforced)."""
        coins = []
        for index in range(self.n_keys):
            pkh = self.pubkey_hash(index)
            for outpoint in utxo.outpoints_for(pkh):
                coin = utxo.get(outpoint)
                assert coin is not None
                if (
                    coin.is_coinbase
                    and height - coin.height < utxo.coinbase_maturity
                ):
                    continue
                coins.append(
                    SpendableCoin(outpoint, coin.output.value, index)
                )
        return coins

    # -- payments -----------------------------------------------------------

    def build_payment(
        self,
        utxo: UtxoSet,
        recipients: list[tuple[bytes, int]],
        fee: int,
        height: int,
        change_index: int = 0,
    ) -> Transaction:
        """A signed transaction paying ``recipients`` plus ``fee``.

        Greedy largest-first coin selection; change below the dust
        threshold is absorbed into the fee.  Raises
        :class:`InsufficientFunds` when mature coins cannot cover it.
        """
        if fee < 0:
            raise WalletError("negative fee")
        if not recipients:
            raise WalletError("no recipients")
        amount = sum(value for _, value in recipients)
        if any(value <= 0 for _, value in recipients):
            raise WalletError("non-positive payment amount")
        coins = sorted(
            self.spendable_coins(utxo, height),
            key=lambda c: c.value,
            reverse=True,
        )
        selected: list[SpendableCoin] = []
        total = 0
        for coin in coins:
            if total >= amount + fee:
                break
            selected.append(coin)
            total += coin.value
        if total < amount + fee:
            raise InsufficientFunds(
                f"need {amount + fee}, have {total} spendable"
            )
        outputs = [TxOutput(value, pkh) for pkh, value in recipients]
        change = total - amount - fee
        if change > DUST_THRESHOLD:
            outputs.append(TxOutput(change, self.pubkey_hash(change_index)))
        tx = Transaction(
            inputs=tuple(TxInput(coin.outpoint) for coin in selected),
            outputs=tuple(outputs),
        )
        for index, coin in enumerate(selected):
            tx = tx.sign_input(index, self._keys[coin.key_index])
        return tx
