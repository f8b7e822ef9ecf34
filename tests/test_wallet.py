"""The wallet: keys, coin selection, payment construction."""

import pytest

from repro.ledger.transactions import OutPoint, TxOutput
from repro.ledger.utxo import UtxoSet
from repro.ledger.validation import validate_spend
from repro.wallet import (
    DUST_THRESHOLD,
    InsufficientFunds,
    Wallet,
    WalletError,
)

MERCHANT = bytes(range(60, 80))


def _funded_wallet(values=(1000, 500, 200), maturity=0):
    wallet = Wallet("test-wallet")
    utxo = UtxoSet(coinbase_maturity=maturity)
    for i, value in enumerate(values):
        utxo.credit(
            TxOutput(value, wallet.pubkey_hash()),
            OutPoint(bytes([i + 1]) * 32, 0),
            height=0,
        )
    return wallet, utxo


def _funds(wallet, utxo):
    return sum(coin.value for coin in wallet.spendable_coins(utxo, height=1))


def test_deterministic_keys():
    a = Wallet("seed-x")
    b = Wallet("seed-x")
    assert a.pubkey_hash() == b.pubkey_hash()
    assert a.pubkey_hash() != Wallet("seed-y").pubkey_hash()


def test_balance():
    wallet, utxo = _funded_wallet()
    assert _funds(wallet, utxo) == 1700


def test_spendable_excludes_immature_coinbase():
    wallet = Wallet("maturity")
    utxo = UtxoSet(coinbase_maturity=10)
    from repro.ledger.transactions import make_coinbase

    cb = make_coinbase([(wallet.pubkey_hash(), 100)])
    utxo.apply(cb, height=5)
    assert wallet.spendable_coins(utxo, height=6) == []
    assert len(wallet.spendable_coins(utxo, height=15)) == 1


def test_build_payment_valid_and_signed():
    wallet, utxo = _funded_wallet()
    tx = wallet.build_payment(
        utxo, [(MERCHANT, 800)], fee=50, height=1
    )
    # Full validation, signatures included.  The 150 of sub-dust change
    # (1000 − 800 − 50 < DUST_THRESHOLD) is absorbed into the fee.
    fee = validate_spend(tx, utxo, height=1)
    assert fee == 200
    assert all(o.pubkey_hash == MERCHANT for o in tx.outputs)
    paid = sum(o.value for o in tx.outputs if o.pubkey_hash == MERCHANT)
    assert paid == 800


def test_change_returns_to_wallet():
    wallet, utxo = _funded_wallet(values=(10_000,))
    tx = wallet.build_payment(utxo, [(MERCHANT, 3000)], fee=100, height=1)
    change = [o for o in tx.outputs if o.pubkey_hash == wallet.pubkey_hash()]
    assert len(change) == 1
    assert change[0].value == 10_000 - 3000 - 100


def test_dust_change_absorbed_into_fee():
    wallet, utxo = _funded_wallet(values=(1000,))
    tx = wallet.build_payment(
        utxo, [(MERCHANT, 1000 - 10 - DUST_THRESHOLD + 1)], fee=10, height=1
    )
    assert all(o.pubkey_hash == MERCHANT for o in tx.outputs)
    # The sub-dust remainder became extra fee.
    fee = validate_spend(tx, utxo, height=1)
    assert fee == 10 + DUST_THRESHOLD - 1


def test_greedy_selection_prefers_large_coins():
    wallet, utxo = _funded_wallet(values=(1000, 500, 200))
    tx = wallet.build_payment(utxo, [(MERCHANT, 900)], fee=0, height=1)
    assert len(tx.inputs) == 1  # the 1000 coin alone suffices


def test_multi_coin_selection():
    wallet, utxo = _funded_wallet(values=(1000, 500, 200))
    tx = wallet.build_payment(utxo, [(MERCHANT, 1400)], fee=50, height=1)
    assert len(tx.inputs) == 2
    validate_spend(tx, utxo, height=1)


def test_insufficient_funds():
    wallet, utxo = _funded_wallet(values=(100,))
    with pytest.raises(InsufficientFunds):
        wallet.build_payment(utxo, [(MERCHANT, 200)], fee=0, height=1)


def test_fee_pushes_over_budget():
    wallet, utxo = _funded_wallet(values=(100,))
    with pytest.raises(InsufficientFunds):
        wallet.build_payment(utxo, [(MERCHANT, 100)], fee=1, height=1)


def test_multi_recipient_payment():
    wallet, utxo = _funded_wallet(values=(10_000,))
    other = bytes(range(80, 100))
    tx = wallet.build_payment(
        utxo, [(MERCHANT, 1000), (other, 2000)], fee=10, height=1
    )
    validate_spend(tx, utxo, height=1)
    assert sum(o.value for o in tx.outputs if o.pubkey_hash == other) == 2000


def test_payment_validation_errors():
    wallet, utxo = _funded_wallet()
    with pytest.raises(WalletError):
        wallet.build_payment(utxo, [], fee=0, height=1)
    with pytest.raises(WalletError):
        wallet.build_payment(utxo, [(MERCHANT, 0)], fee=0, height=1)
    with pytest.raises(WalletError):
        wallet.build_payment(utxo, [(MERCHANT, 10)], fee=-1, height=1)
    with pytest.raises(WalletError):
        Wallet("x", n_keys=0)


def test_multikey_coins_aggregate():
    wallet = Wallet("agg", n_keys=2)
    utxo = UtxoSet(coinbase_maturity=0)
    utxo.credit(TxOutput(300, wallet.pubkey_hash(0)), OutPoint(b"\x01" * 32, 0), 0)
    utxo.credit(TxOutput(400, wallet.pubkey_hash(1)), OutPoint(b"\x02" * 32, 0), 0)
    assert _funds(wallet, utxo) == 700
    tx = wallet.build_payment(utxo, [(MERCHANT, 600)], fee=0, height=1)
    assert len(tx.inputs) == 2
    validate_spend(tx, utxo, height=1)  # both keys signed correctly


def test_wallet_derives_and_hashes_each_key_once(count_calls):
    from repro.crypto import ecdsa
    from repro.crypto import keys as keys_mod

    derivations = count_calls(ecdsa, "point_mul")
    hashed = count_calls(keys_mod, "hash160")
    wallet, utxo = _funded_wallet()
    assert (len(derivations), len(hashed)) == (1, 1)  # key 0, asked for once
    pkh = wallet.pubkey_hash()
    for _ in range(3):
        assert wallet.pubkey_hash() == pkh
        assert wallet.public_key() is wallet.public_key()
        assert len(wallet.spendable_coins(utxo, height=1)) == 3
        assert _funds(wallet, utxo) == 1700
    assert (len(derivations), len(hashed)) == (1, 1)  # one per key, ever
    # Signing draws a nonce point; the signer's own key is a lookup.
    tx = wallet.build_payment(utxo, [(MERCHANT, 1200)], fee=10, height=1)
    assert len(tx.inputs) == 2 and len(derivations) == 1 + 2
    assert len(hashed) == 1
    # 1000 + 500 in; the 290 of dust change joins the fee.
    assert validate_spend(tx, utxo, height=1) == 300
