"""Wallet subsystem: keys, coin selection, payments."""

from .wallet import (
    DUST_THRESHOLD,
    InsufficientFunds,
    SpendableCoin,
    Wallet,
    WalletError,
)

__all__ = [
    "DUST_THRESHOLD",
    "InsufficientFunds",
    "SpendableCoin",
    "Wallet",
    "WalletError",
]
