"""Full spend validation: structure, value, ownership signatures."""

import dataclasses

import pytest

from repro.crypto import ecdsa
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey, PublicKey
from repro.ledger.errors import BadSignature, MalformedTransaction, ValueError_
from repro.ledger.transactions import (
    MAX_MONEY,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.ledger.utxo import UtxoSet
from repro.ledger import validation
from repro.ledger.validation import (
    check_transaction,
    compute_fee,
    validate_spend,
    verify_input_signatures,
)

OWNER = PrivateKey.from_seed("owner")
THIEF = PrivateKey.from_seed("thief")
OWNER_PKH = hash160(OWNER.public_key().to_bytes())
DEST = bytes(range(20, 40))
COIN_OUTPOINT = OutPoint(b"\xdd" * 32, 0)


def _utxo(value=100):
    utxo = UtxoSet()
    utxo.credit(TxOutput(value, OWNER_PKH), COIN_OUTPOINT, height=0)
    return utxo


def _spend(value_out=90, key=OWNER, sign=True):
    tx = Transaction(
        inputs=(TxInput(COIN_OUTPOINT),),
        outputs=(TxOutput(value_out, DEST),),
    )
    if sign:
        tx = tx.sign_input(0, key)
    return tx


def test_valid_spend_returns_fee():
    assert validate_spend(_spend(90), _utxo(100), height=1) == 10


def test_zero_fee_spend_valid():
    assert validate_spend(_spend(100), _utxo(100), height=1) == 0


def test_overspend_rejected():
    with pytest.raises(ValueError_):
        validate_spend(_spend(101), _utxo(100), height=1)


def test_unsigned_spend_rejected():
    with pytest.raises(BadSignature):
        validate_spend(_spend(sign=False), _utxo(), height=1)


def test_wrong_key_rejected():
    with pytest.raises(BadSignature):
        validate_spend(_spend(key=THIEF), _utxo(), height=1)


def test_signature_check_can_be_disabled():
    # The paper's testbed mode: ownership still enforced structurally
    # elsewhere, but no ECDSA work.
    fee = validate_spend(
        _spend(sign=False), _utxo(), height=1, check_signatures=False
    )
    assert fee == 10


def test_tampered_outputs_invalidate_signature():
    tx = _spend(90)
    tampered = Transaction(tx.inputs, (TxOutput(90, bytes(20)),), tx.padding)
    with pytest.raises(BadSignature):
        validate_spend(tampered, _utxo(), height=1)


def test_high_s_copy_of_a_valid_spend_rejected():
    # Flipping s to N - s keeps the ECDSA equation true and changes the
    # txid (it covers the signature): a relay could re-issue the payment
    # under a new id.  The LOW_S rule refuses the copy.
    tx = _spend(90)
    r, s = ecdsa.signature_from_bytes(tx.inputs[0].signature)
    flipped = dataclasses.replace(
        tx.inputs[0],
        signature=ecdsa.signature_to_bytes((r, ecdsa.N - s)),
    )
    malleated = Transaction((flipped,), tx.outputs, tx.padding)
    assert malleated.txid != tx.txid
    assert validate_spend(tx, _utxo(), height=1) == 10
    with pytest.raises(BadSignature):
        validate_spend(malleated, _utxo(), height=1)


def test_coinbase_cannot_be_validated_as_spend():
    from repro.ledger.transactions import make_coinbase

    with pytest.raises(MalformedTransaction):
        validate_spend(make_coinbase([(DEST, 1)]), _utxo(), height=1)


def test_check_transaction_rejects_duplicate_inputs():
    tx = Transaction(
        inputs=(TxInput(COIN_OUTPOINT), TxInput(COIN_OUTPOINT)),
        outputs=(TxOutput(1, DEST),),
    )
    with pytest.raises(MalformedTransaction):
        check_transaction(tx)


def test_check_transaction_rejects_oversize():
    tx = Transaction(
        inputs=(),
        outputs=(TxOutput(1, DEST),),
        padding=b"\x00" * 200_000,
    )
    with pytest.raises(MalformedTransaction):
        check_transaction(tx)


def test_verify_input_signatures_needs_known_coin():
    tx = _spend()
    with pytest.raises(BadSignature):
        verify_input_signatures(tx, UtxoSet())


def test_compute_fee():
    assert compute_fee(_spend(75), _utxo(100), height=1) == 25


def test_compute_fee_coinbase_is_zero():
    from repro.ledger.transactions import make_coinbase

    assert compute_fee(make_coinbase([(DEST, 5)]), _utxo(), height=1) == 0


def test_zero_value_output_is_structurally_legal():
    # Zero-value outputs are odd but valid (data-carrier style); only
    # strictly negative values are malformed.
    tx = Transaction(
        inputs=(TxInput(COIN_OUTPOINT),), outputs=(TxOutput(0, DEST),)
    )
    check_transaction(tx)


def test_output_total_of_exactly_max_money_is_legal():
    tx = Transaction(
        inputs=(TxInput(COIN_OUTPOINT),),
        outputs=(TxOutput(MAX_MONEY - 1, DEST), TxOutput(1, DEST)),
    )
    check_transaction(tx)


def test_size_cap_is_inclusive(monkeypatch):
    tx = _spend(90)
    # A transaction of exactly MAX_TX_SIZE bytes is standard; one byte
    # more is not.
    monkeypatch.setattr(validation, "MAX_TX_SIZE", tx.size)
    check_transaction(tx)
    monkeypatch.setattr(validation, "MAX_TX_SIZE", tx.size - 1)
    with pytest.raises(MalformedTransaction):
        check_transaction(tx)


# -- one signature verdict per transaction object --------------------------
#
# Whether a named key decodes and its signature verifies depends only on
# the frozen transaction, so it is judged once per object; what the
# receiver's UTXO set decides is still checked on every call, first.

SECOND_OUTPOINT = OutPoint(b"\xee" * 32, 1)
BAD_KEY = b"\x07" + b"\x00" * 32  # 33 bytes, no valid SEC prefix


def _forged_spend():
    """The owner's key named, the thief's signature over the same hash."""
    tx = _spend()
    forged = TxInput(
        COIN_OUTPOINT, tx.inputs[0].pubkey, THIEF.sign(tx.sighash(0))
    )
    return Transaction((forged,), tx.outputs, tx.padding)


def _two_input_spend():
    tx = Transaction(
        inputs=(TxInput(COIN_OUTPOINT), TxInput(SECOND_OUTPOINT)),
        outputs=(TxOutput(150, DEST),),
    )
    return tx.sign_input(0, OWNER).sign_input(1, OWNER)


def _two_coin_utxo():
    utxo = _utxo()
    utxo.credit(TxOutput(100, OWNER_PKH), SECOND_OUTPOINT, height=0)
    return utxo


def _rejections(tx, receivers):
    messages = []
    for utxo in receivers:
        with pytest.raises(BadSignature) as caught:
            validate_spend(tx, utxo, height=1)
        messages.append(str(caught.value))
    return messages


def test_valid_spend_is_verified_once_for_every_receiver(count_calls):
    tx = _spend(90)
    verifies = count_calls(PublicKey, "verify")
    assert [validate_spend(tx, _utxo(), height=1) for _ in range(4)] == [10] * 4
    assert len(verifies) == 1
    assert tx.signature_faults == {0: None}


def test_forged_spend_is_rejected_by_every_receiver_for_one_verify(count_calls):
    forged = _forged_spend()
    verifies = count_calls(PublicKey, "verify")
    messages = _rejections(forged, [_utxo() for _ in range(4)])
    assert messages == ["input 0 signature invalid"] * 4
    assert len(verifies) == 1


def test_undecodable_key_is_rejected_by_every_receiver_for_one_decode(
    count_calls,
):
    tx = Transaction(
        (TxInput(COIN_OUTPOINT, BAD_KEY, bytes(64)),), (TxOutput(90, DEST),)
    )

    def receiver():
        utxo = UtxoSet()
        utxo.credit(TxOutput(100, hash160(BAD_KEY)), COIN_OUTPOINT, height=0)
        return utxo

    decodes = count_calls(ecdsa, "point_from_bytes")
    verifies = count_calls(PublicKey, "verify")
    messages = _rejections(tx, [receiver() for _ in range(3)])
    assert messages == [
        "input 0 pubkey undecodable: bad compressed point encoding (33 bytes)"
    ] * 3
    assert (len(decodes), len(verifies)) == (1, 0)


def test_a_programming_error_is_never_stored_as_a_verdict(monkeypatch):
    def broken(_data):
        raise RuntimeError("not a verdict")

    tx = _spend()
    monkeypatch.setattr(PublicKey, "from_bytes", broken)
    with pytest.raises(RuntimeError):
        validate_spend(tx, _utxo(), height=1)
    monkeypatch.undo()
    assert tx.signature_faults == {}
    assert validate_spend(tx, _utxo(), height=1) == 10


def test_receiver_checks_run_per_call_and_before_any_verify(count_calls):
    elsewhere = UtxoSet()
    elsewhere.credit(TxOutput(100, hash160(b"not-owner")), COIN_OUTPOINT)
    verifies = count_calls(PublicKey, "verify")
    unjudged = (_spend(), _forged_spend())
    for tx in unjudged:
        for _ in range(2):
            with pytest.raises(
                BadSignature, match="^input 0 references unknown coin$"
            ):
                verify_input_signatures(tx, UtxoSet())
            with pytest.raises(
                BadSignature, match="^input 0 pubkey does not match owner hash$"
            ):
                verify_input_signatures(tx, elsewhere)
    assert verifies == []
    assert [tx.signature_faults for tx in unjudged] == [{}, {}]
    # ...and they are still the receiver's on an object already judged valid.
    judged = _spend()
    verify_input_signatures(judged, _utxo())
    assert judged.signature_faults == {0: None} and len(verifies) == 1
    with pytest.raises(BadSignature, match="references unknown coin"):
        verify_input_signatures(judged, UtxoSet())
    with pytest.raises(BadSignature, match="does not match owner hash"):
        verify_input_signatures(judged, elsewhere)
    verify_input_signatures(judged, _utxo())
    assert len(verifies) == 1


def test_bad_second_input_is_reported_after_the_first_is_judged_once(
    count_calls,
):
    tx = _two_input_spend()
    bad = Transaction(
        (tx.inputs[0], TxInput(SECOND_OUTPOINT, tx.inputs[1].pubkey, bytes(64))),
        tx.outputs,
    )
    verifies = count_calls(PublicKey, "verify")
    messages = _rejections(bad, [_two_coin_utxo() for _ in range(3)])
    assert messages == ["input 1 signature invalid"] * 3
    assert bad.signature_faults == {0: None, 1: "input 1 signature invalid"}
    assert len(verifies) == 2  # input 0 once, input 1 once -- not per receiver


def test_input_a_receiver_never_reaches_stays_unjudged(count_calls):
    tx = _two_input_spend()
    verifies = count_calls(PublicKey, "verify")
    # This receiver knows the first coin only: input 0 is judged, the
    # walk stops at input 1's coin lookup.
    with pytest.raises(BadSignature, match="^input 1 references unknown coin$"):
        verify_input_signatures(tx, _utxo())
    assert tx.signature_faults == {0: None} and len(verifies) == 1
    verify_input_signatures(tx, _two_coin_utxo())
    assert tx.signature_faults == {0: None, 1: None} and len(verifies) == 2


def test_copies_of_a_judged_transaction_are_judged_afresh(count_calls):
    tx = _spend(90)
    assert validate_spend(tx, _utxo(), height=1) == 10
    verifies = count_calls(PublicKey, "verify")
    # A tampered copy does not inherit the original's clean verdict...
    tampered = dataclasses.replace(tx, outputs=(TxOutput(90, bytes(20)),))
    assert tampered.signature_faults == {}
    with pytest.raises(BadSignature, match="input 0 signature invalid"):
        validate_spend(tampered, _utxo(), height=1)
    # ...and equal copies made by the wire or by signing again start cold.
    rewired = Transaction.deserialize(tx.serialize())
    resigned = dataclasses.replace(
        tx, inputs=(TxInput(COIN_OUTPOINT),)
    ).sign_input(0, OWNER)
    assert rewired == tx and resigned == tx
    for copy in (rewired, resigned):
        assert copy.signature_faults == {}
        assert validate_spend(copy, _utxo(), height=1) == 10
    assert len(verifies) == 3
    assert tx.signature_faults == {0: None}


def test_unchecked_validation_never_fills_a_slot(count_calls):
    verifies = count_calls(PublicKey, "verify")
    decodes = count_calls(ecdsa, "point_from_bytes")
    for tx in (_spend(), _forged_spend(), _spend(sign=False)):
        assert validate_spend(tx, _utxo(), 1, check_signatures=False) == 10
        assert "signature_faults" not in vars(tx)
    assert verifies == [] and decodes == []
