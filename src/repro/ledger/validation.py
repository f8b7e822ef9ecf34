"""Stateless and stateful transaction validation.

"Miners accept transactions only if their sources have not been spent"
(Section 3); validity of microblock entries follows "the specification of
the state machine" (Section 4.2).  Both protocols share these rules.

``check_transaction`` is stateless (structure only); ``validate_spend``
consults a UTXO set and verifies ownership signatures; ``compute_fee``
returns the fee that Bitcoin-NG splits 40/60 between leaders.

What a receiver's UTXO set decides (the coin exists, its owner hash
matches the key named) is checked on every call.  Whether a named key
decodes and its signature verifies is a property of the transaction
object alone and is judged once per object (docs/simulation.md,
"Per-object work").
"""

from __future__ import annotations

from ..crypto.ecdsa import InvalidPoint
from ..crypto.hashing import hash160
from ..crypto.keys import PublicKey
from .errors import BadSignature, MalformedTransaction, ValueError_
from .transactions import MAX_MONEY, Transaction
from .utxo import UtxoSet

# A hard structural cap mirroring Bitcoin's 100 kB standard tx limit.
MAX_TX_SIZE = 100_000


def check_transaction(tx: Transaction) -> None:
    """Stateless structural checks; raises on violation."""
    if tx.size > MAX_TX_SIZE:
        raise MalformedTransaction(f"transaction size {tx.size} exceeds cap")
    if not tx.outputs:
        raise MalformedTransaction("no outputs")
    total = 0
    for output in tx.outputs:
        if output.value < 0:
            raise ValueError_("negative output value")
        total += output.value
        if total > MAX_MONEY:
            raise ValueError_("output total exceeds MAX_MONEY")
    outpoints = [txin.outpoint for txin in tx.inputs]
    if len(set(outpoints)) != len(outpoints):
        raise MalformedTransaction("duplicate inputs within transaction")


def _signature_fault(tx: Transaction, index: int) -> str | None:
    """Why input ``index``'s key does not decode or its signature does
    not verify over ``tx.sighash(index)``, or ``None``.

    Asks nothing of the receiver, so the answer holds for every one.
    """
    txin = tx.inputs[index]
    try:
        pubkey = PublicKey.from_bytes(txin.pubkey)
    except InvalidPoint as exc:
        return f"input {index} pubkey undecodable: {exc}"
    if not pubkey.verify(tx.sighash(index), txin.signature):
        return f"input {index} signature invalid"
    return None


def verify_input_signatures(tx: Transaction, utxo: UtxoSet) -> None:
    """Verify every input's signature and key-hash ownership proof.

    The coin lookup and the owner-hash match are this ``utxo``'s and run
    on every call; the signature verdict is read off ``tx`` and worked
    out only by the first receiver to reach the input.
    """
    faults = tx.signature_faults
    for index, txin in enumerate(tx.inputs):
        coin = utxo.get(txin.outpoint)
        if coin is None:
            raise BadSignature(f"input {index} references unknown coin")
        if hash160(txin.pubkey) != coin.output.pubkey_hash:
            raise BadSignature(f"input {index} pubkey does not match owner hash")
        if index not in faults:
            faults[index] = _signature_fault(tx, index)
        fault = faults[index]
        if fault is not None:
            raise BadSignature(fault)


def validate_spend(
    tx: Transaction,
    utxo: UtxoSet,
    height: int,
    check_signatures: bool = True,
) -> int:
    """Full validation of a non-coinbase transaction against ``utxo``.

    Returns the transaction fee.  ``check_signatures=False`` reproduces
    the paper's testbed shortcut ("we did not implement ... the microblock
    signature check") for performance experiments; ownership and value
    rules still apply.
    """
    check_transaction(tx)
    if tx.is_coinbase:
        raise MalformedTransaction("coinbase cannot be validated as a spend")
    in_value = utxo.input_value(tx, height)
    out_value = sum(out.value for out in tx.outputs)
    if out_value > in_value:
        raise ValueError_(f"spends {out_value} but only provides {in_value}")
    if check_signatures:
        verify_input_signatures(tx, utxo)
    return in_value - out_value


def compute_fee(tx: Transaction, utxo: UtxoSet, height: int) -> int:
    """Fee = inputs − outputs; zero for coinbase."""
    if tx.is_coinbase:
        return 0
    in_value = utxo.input_value(tx, height)
    return in_value - sum(out.value for out in tx.outputs)
