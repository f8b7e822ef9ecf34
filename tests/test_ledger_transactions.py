"""Transaction structure, serialization, signing."""

import pytest

from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.errors import MalformedTransaction
from repro.ledger.transactions import (
    COIN,
    MAX_MONEY,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
)

KEY = PrivateKey.from_seed("tx-tests")
PKH = hash160(KEY.public_key().to_bytes())


def _spend(prev_txid=b"\x01" * 32, value=50, padding=b""):
    return Transaction(
        inputs=(TxInput(OutPoint(prev_txid, 0)),),
        outputs=(TxOutput(value, PKH),),
        padding=padding,
    )


def test_coinbase_has_no_inputs():
    cb = make_coinbase([(PKH, 10 * COIN)])
    assert cb.is_coinbase
    assert len(cb.outputs) == 1


def test_coinbase_multiple_payouts():
    cb = make_coinbase([(PKH, 6), (bytes(20), 4)])
    assert [out.value for out in cb.outputs] == [6, 4]


def test_coinbase_requires_payouts():
    with pytest.raises(MalformedTransaction):
        make_coinbase([])


def test_coinbase_tag_distinguishes_txids():
    a = make_coinbase([(PKH, 5)], tag=b"a")
    b = make_coinbase([(PKH, 5)], tag=b"b")
    assert a.txid != b.txid


def test_serialization_roundtrip():
    tx = _spend(padding=b"hello world")
    restored = Transaction.deserialize(tx.serialize())
    assert restored == tx
    assert restored.txid == tx.txid


def test_deserialize_rejects_trailing_bytes():
    data = _spend().serialize() + b"\x00"
    with pytest.raises(MalformedTransaction):
        Transaction.deserialize(data)


def test_deserialize_rejects_truncation():
    data = _spend().serialize()[:-3]
    with pytest.raises(MalformedTransaction):
        Transaction.deserialize(data)


def test_txid_changes_with_content():
    assert _spend(value=50).txid != _spend(value=51).txid


def test_output_value_bounds():
    with pytest.raises(MalformedTransaction):
        TxOutput(-1, PKH)
    with pytest.raises(MalformedTransaction):
        TxOutput(MAX_MONEY + 1, PKH)


def test_output_pkh_length():
    with pytest.raises(MalformedTransaction):
        TxOutput(1, bytes(19))


def test_outputs_required():
    with pytest.raises(MalformedTransaction):
        Transaction(inputs=(), outputs=())


def test_total_outputs_capped():
    with pytest.raises(MalformedTransaction):
        Transaction(
            inputs=(),
            outputs=(TxOutput(MAX_MONEY, PKH), TxOutput(1, PKH)),
        )
    # Exactly MAX_MONEY in total is legal.
    half = MAX_MONEY // 2
    Transaction(
        inputs=(), outputs=(TxOutput(half, PKH), TxOutput(MAX_MONEY - half, PKH))
    )


def test_outpoint_validation():
    with pytest.raises(MalformedTransaction):
        OutPoint(b"\x01" * 31, 0)
    with pytest.raises(MalformedTransaction):
        OutPoint(b"\x01" * 32, -1)


def test_sighash_differs_per_input():
    tx = Transaction(
        inputs=(
            TxInput(OutPoint(b"\x01" * 32, 0)),
            TxInput(OutPoint(b"\x02" * 32, 1)),
        ),
        outputs=(TxOutput(1, PKH),),
    )
    assert tx.sighash(0) != tx.sighash(1)


def test_sighash_index_bounds():
    with pytest.raises(MalformedTransaction):
        _spend().sighash(1)


def test_sign_input_produces_verifiable_signature():
    tx = _spend()
    signed = tx.sign_input(0, KEY)
    assert signed.inputs[0].pubkey == KEY.public_key().to_bytes()
    assert KEY.public_key().verify(signed.sighash(0), signed.inputs[0].signature)


def test_sighash_ignores_existing_witness():
    # Signing must not change the message being signed.
    tx = _spend()
    signed = tx.sign_input(0, KEY)
    assert signed.sighash(0) == tx.sighash(0)


def test_padding_increases_size():
    assert _spend(padding=b"x" * 100).size == _spend().size + 100


def test_size_matches_serialization():
    tx = _spend(padding=b"pad")
    assert tx.size == len(tx.serialize())


def test_filled_signature_memo_is_invisible_outside_validation():
    import pickle

    from repro.ledger.utxo import UtxoSet
    from repro.ledger.validation import verify_input_signatures

    signed = _spend().sign_input(0, KEY)
    cold = Transaction.deserialize(signed.serialize())
    before = (hash(signed), repr(signed), signed.serialize(), signed.txid)
    utxo = UtxoSet()
    utxo.credit(TxOutput(60, PKH), signed.inputs[0].outpoint)
    verify_input_signatures(signed, utxo)
    assert signed.signature_faults == {0: None} and cold.signature_faults == {}
    assert signed == cold and hash(signed) == hash(cold)
    assert (hash(signed), repr(signed), signed.serialize(), signed.txid) == before
    assert repr(signed) == repr(cold)
    assert pickle.loads(pickle.dumps(signed)) == signed == cold


def test_wire_memo_is_the_fresh_serialization():
    import pickle

    signed = _spend(padding=b"memo").sign_input(0, KEY)
    # Read every derived view first, so each one comes from the memo.
    memo = (signed.wire, signed.serialize(), signed.size, signed.txid)
    fresh = Transaction(signed.inputs, signed.outputs, signed.padding)
    assert "wire" not in fresh.__dict__
    assert memo == (fresh.serialize(), fresh.wire, len(fresh.wire), fresh.txid)
    assert signed.serialize() is signed.wire  # built once, not re-joined
    for copy in (
        Transaction.deserialize(signed.serialize()),
        pickle.loads(pickle.dumps(signed)),
    ):
        assert copy == signed
        assert (copy.serialize(), copy.size, copy.txid) == memo[1:]
