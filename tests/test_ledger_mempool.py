"""Mempool policy: conflicts, selection, eviction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.errors import MempoolError
from repro.ledger.mempool import Mempool
from repro.ledger.transactions import OutPoint, Transaction, TxInput, TxOutput

DEST = bytes(20)


def _tx(prev_byte, index=0, padding=b"", n_outputs=1):
    return Transaction(
        inputs=(TxInput(OutPoint(bytes([prev_byte]) * 32, index)),),
        outputs=tuple(TxOutput(1, DEST) for _ in range(n_outputs)),
        padding=padding,
    )


def test_add_and_contains():
    pool = Mempool()
    tx = _tx(1)
    pool.add(tx, fee=5)
    assert tx.txid in pool
    assert pool.txids() == [tx.txid]
    assert len(pool) == 1


def test_duplicate_rejected():
    pool = Mempool()
    tx = _tx(1)
    pool.add(tx)
    with pytest.raises(MempoolError):
        pool.add(tx)


def test_conflicting_spend_rejected():
    pool = Mempool()
    pool.add(_tx(1, padding=b"a"))
    with pytest.raises(MempoolError):
        pool.add(_tx(1, padding=b"b"))  # same outpoint, different tx


def test_capacity_limit():
    pool = Mempool(max_entries=2)
    pool.add(_tx(1))
    pool.add(_tx(2))
    with pytest.raises(MempoolError):
        pool.add(_tx(3))


def test_remove_frees_outpoints():
    pool = Mempool()
    tx = _tx(1, padding=b"a")
    pool.add(tx)
    assert pool.remove(tx.txid) == tx
    pool.add(_tx(1, padding=b"b"))  # no longer conflicts


def test_remove_missing_returns_none():
    assert Mempool().remove(b"\x00" * 32) is None


def test_evict_conflicts_on_confirmation():
    pool = Mempool()
    pending = _tx(1, padding=b"loser")
    pool.add(pending)
    confirmed = _tx(1, padding=b"winner")
    evicted = pool.evict_conflicts(confirmed)
    assert evicted == [pending]
    assert len(pool) == 0


def test_evict_conflicts_removes_confirmed_itself():
    pool = Mempool()
    tx = _tx(1)
    pool.add(tx)
    assert pool.evict_conflicts(tx) == []
    assert len(pool) == 0


def test_select_by_fee_rate():
    pool = Mempool()
    cheap = _tx(1, padding=b"x" * 100)
    rich = _tx(2)
    pool.add(cheap, fee=10)
    pool.add(rich, fee=10)  # same fee, smaller size → higher rate
    selected = pool.select(max_bytes=10_000)
    assert selected[0] == rich


def test_select_respects_size_budget():
    pool = Mempool()
    for i in range(1, 6):
        pool.add(_tx(i), fee=1)
    tx_size = _tx(1).size
    selected = pool.select(max_bytes=tx_size * 2)
    assert len(selected) == 2


# -- the pool against a naive model -------------------------------------------

#: A six-outpoint universe, so random transactions conflict often.
OUTPOINTS = [OutPoint(bytes([k]) * 32, 0) for k in range(6)]

_txs = st.builds(
    lambda inputs, n_outputs, pad: Transaction(
        inputs=tuple(TxInput(op) for op in inputs),
        outputs=tuple(TxOutput(1, DEST) for _ in range(n_outputs)),
        padding=bytes(pad),
    ),
    st.lists(st.sampled_from(OUTPOINTS), min_size=1, max_size=3, unique=True),
    st.integers(1, 2),
    st.integers(0, 40),
)


class _ModelPool:
    """The pool as a list of ``(tx, fee)`` in insertion order."""

    def __init__(self, max_entries):
        self.entries = []
        self.max_entries = max_entries

    def spender(self, outpoint):
        for tx, _fee in self.entries:
            if any(txin.outpoint == outpoint for txin in tx.inputs):
                return tx
        return None

    def add(self, tx, fee):
        refused = (
            any(entry.txid == tx.txid for entry, _ in self.entries)
            or len(self.entries) >= self.max_entries
            or any(self.spender(txin.outpoint) for txin in tx.inputs)
        )
        if not refused:
            self.entries.append((tx, fee))
        return not refused

    def remove(self, txid):
        for index, (tx, _fee) in enumerate(self.entries):
            if tx.txid == txid:
                del self.entries[index]
                return tx
        return None

    def evict_conflicts(self, tx):
        evicted = []
        for txin in tx.inputs:
            rival = self.spender(txin.outpoint)
            if rival is not None and rival.txid != tx.txid:
                evicted.append(self.remove(rival.txid))
        self.remove(tx.txid)
        return evicted

    def select(self, max_bytes):
        ordered = sorted(
            self.entries, key=lambda e: e[1] / max(e[0].size, 1), reverse=True
        )
        selected, used = [], 0
        for tx, _fee in ordered:
            if used + tx.size <= max_bytes:
                selected.append(tx)
                used += tx.size
        return selected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.data())
def test_pool_matches_naive_model(max_entries, data):
    """A conflicting spend is refused iff a pool entry spends that
    outpoint, and ``select`` returns exactly the model's entries in the
    model's fee-rate order, under random add/remove/evict."""
    pool, model = Mempool(max_entries=max_entries), _ModelPool(max_entries)
    for _ in range(data.draw(st.integers(1, 25))):
        op = data.draw(st.sampled_from(
            ["add", "add", "add", "remove", "evict"]
        ))
        if op == "add":
            tx, fee = data.draw(_txs), data.draw(st.integers(0, 500))
            if model.add(tx, fee):
                pool.add(tx, fee)
            else:
                with pytest.raises(MempoolError):
                    pool.add(tx, fee)
        elif op == "remove":
            known = [tx.txid for tx, _ in model.entries]
            txid = data.draw(st.sampled_from(known + [b"\xee" * 32]))
            assert pool.remove(txid) == model.remove(txid)
        else:
            confirmed = data.draw(_txs)
            assert pool.evict_conflicts(confirmed) == model.evict_conflicts(
                confirmed
            )
        assert pool.txids() == [tx.txid for tx, _ in model.entries]
        # The last budget is met exactly by the first two entries.
        exact = sum(tx.size for tx, _ in model.entries[:2])
        for budget in (10**9, 400, exact):
            assert pool.select(budget) == model.select(budget)
