"""Bitcoin block structure, payloads, PoW mining, validity."""

import pytest

from repro.bitcoin.blocks import (
    ARTIFICIAL_TX_SIZE,
    HEADER_SIZE,
    InvalidBlock,
    SyntheticPayload,
    TxPayload,
    build_block,
    check_block,
    make_genesis,
    mine,
)
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.transactions import OutPoint, Transaction, TxInput, TxOutput

PKH = hash160(PrivateKey.from_seed("block-tests").public_key().to_bytes())


def _tx(byte, value=5):
    return Transaction(
        inputs=(TxInput(OutPoint(bytes([byte]) * 32, 0)),),
        outputs=(TxOutput(value, PKH),),
    )


def _block(payload=None, miner=1, prev=None):
    return build_block(
        prev_hash=prev or make_genesis().hash,
        payload=payload or SyntheticPayload(n_tx=10, salt=b"t"),
        timestamp=1.0,
        bits=0x207FFFFF,
        miner_id=miner,
        reward=50,
    )


def test_genesis_deterministic():
    assert make_genesis().hash == make_genesis().hash


def test_artificial_tx_size_matches_paper():
    # 1 MB / (600 s × 3.5 tx/s) ≈ 476 bytes.
    assert ARTIFICIAL_TX_SIZE == 476
    assert 1_000_000 // (600 * 3.5) == pytest.approx(ARTIFICIAL_TX_SIZE, abs=1)


def test_synthetic_payload_size():
    payload = SyntheticPayload(n_tx=100, tx_size=476)
    assert payload.payload_bytes == 47_600


def test_synthetic_payload_roots_differ_by_salt():
    a = SyntheticPayload(5, salt=b"a")
    b = SyntheticPayload(5, salt=b"b")
    assert a.root() != b.root()


def test_tx_payload_root_is_merkle():
    from repro.crypto.merkle import merkle_root

    txs = (_tx(1), _tx(2))
    payload = TxPayload(txs)
    assert payload.root() == merkle_root([tx.txid for tx in txs])
    assert payload.n_tx == 2
    assert payload.payload_bytes == sum(tx.size for tx in txs)


def test_block_size_accounting():
    block = _block(SyntheticPayload(n_tx=10, tx_size=100))
    assert block.size == HEADER_SIZE + block.coinbase.size + 1000


def test_miner_hint_roundtrip():
    assert _block(miner=42).miner_hint == 42
    assert _block(miner=-1).miner_hint == -1


def test_block_hash_commits_to_payload():
    a = _block(SyntheticPayload(1, salt=b"a"))
    b = _block(SyntheticPayload(1, salt=b"b"))
    assert a.hash != b.hash


def test_check_block_accepts_valid_without_pow():
    check_block(_block(), require_pow=False)


def test_check_block_rejects_payload_mismatch():
    from repro.bitcoin.blocks import Block

    block = _block()
    forged = Block(block.header, block.coinbase, SyntheticPayload(99, salt=b"x"))
    with pytest.raises(InvalidBlock):
        check_block(forged, require_pow=False)


def test_check_block_rejects_non_coinbase_first():
    from repro.bitcoin.blocks import Block

    block = _block()
    with pytest.raises(InvalidBlock):
        check_block(
            Block(block.header, _tx(9), block.payload), require_pow=False
        )


def test_check_block_rejects_second_coinbase_in_payload():
    from repro.ledger.transactions import make_coinbase

    block = _block(TxPayload((make_coinbase([(PKH, 1)]),)))
    with pytest.raises(InvalidBlock):
        check_block(block, require_pow=False)


def test_mining_finds_valid_nonce():
    # Regtest-grade target: a handful of iterations suffice.
    block = mine(_block())
    assert block.header.meets_pow()
    check_block(block, require_pow=True)


def test_unmined_block_fails_pow_check():
    # Overwhelmingly likely with a fixed nonce of 0 at a harder target.
    block = build_block(
        prev_hash=bytes(32),
        payload=SyntheticPayload(1, salt=b"pow"),
        timestamp=0.0,
        bits=0x1F00FFFF,
        miner_id=0,
        reward=0,
    )
    if not block.header.meets_pow():
        with pytest.raises(InvalidBlock):
            check_block(block, require_pow=True)


def test_header_work_positive():
    assert _block().header.work >= 1


def test_synthetic_payload_validation():
    with pytest.raises(InvalidBlock):
        SyntheticPayload(n_tx=-1)
    with pytest.raises(InvalidBlock):
        SyntheticPayload(n_tx=1, tx_size=0)


# -- contextless verdicts: once per block object, never per receiver ---------


def _hard(block):
    """The same block under a target its nonce-0 header misses."""
    from repro.bitcoin.blocks import Block, BlockHeader

    old = block.header
    header = BlockHeader(
        old.prev_hash, old.payload_root, old.timestamp, 0x1D00FFFF, old.nonce
    )
    assert not header.meets_pow()
    return Block(header, block.coinbase, block.payload)


def test_faulty_block_is_judged_once_and_rejected_alike_everywhere(count_calls):
    from repro.bitcoin.blocks import Block

    block = _block()
    forged = Block(block.header, block.coinbase, SyntheticPayload(99, salt=b"x"))
    roots = count_calls(SyntheticPayload, "root")
    messages = []
    for receiver_requires_pow in (False, False, True):
        with pytest.raises(InvalidBlock) as caught:
            check_block(forged, require_pow=receiver_requires_pow)
        messages.append(str(caught.value))
    assert messages == ["payload root does not match header commitment"] * 3
    assert len(roots) == 1
    # ... and a sound block pays for its verdict once, too.
    for _ in range(3):
        check_block(block, require_pow=False)
    assert len(roots) == 2


def test_require_pow_is_the_receivers_and_never_memoised():
    block = _hard(_block())
    check_block(block, require_pow=False)
    with pytest.raises(InvalidBlock, match="header hash does not meet target"):
        check_block(block, require_pow=True)
    check_block(block, require_pow=False)


def test_header_facts_are_worked_out_once_per_header(count_calls):
    import dataclasses

    import repro.bitcoin.blocks as blocks_mod
    from repro.bitcoin.blocks import Block

    mined = mine(_block())
    sound = Block(dataclasses.replace(mined.header), mined.coinbase, mined.payload)
    hard = _hard(sound)
    decodes = count_calls(blocks_mod, "target_from_compact")
    verdicts = count_calls(blocks_mod, "meets_target")
    for _receiver in range(3):
        for block in (sound, hard):
            assert block.header.work == 2**256 // (block.header.target + 1)
            assert block.size == (
                HEADER_SIZE + block.coinbase.size + block.payload.payload_bytes
            )
            check_block(block, require_pow=False)
        check_block(sound, require_pow=True)
        with pytest.raises(InvalidBlock, match="header hash does not meet"):
            check_block(hard, require_pow=True)
    # ``_hard`` asked its own header once already.
    assert decodes == [(0x207FFFFF,)]
    assert len(verdicts) == 1


def test_first_failing_check_order_survives_the_memo():
    # A broken commitment is reported ahead of a missed target, a missed
    # target ahead of a second coinbase -- whichever receiver asked first.
    from repro.bitcoin.blocks import Block
    from repro.ledger.transactions import make_coinbase

    minting = _hard(_block(TxPayload((make_coinbase([(PKH, 1)]),))))
    for require_pow, message in (
        (False, "payload contains a second coinbase"),
        (True, "header hash does not meet target"),
        (False, "payload contains a second coinbase"),
    ):
        with pytest.raises(InvalidBlock, match=message):
            check_block(minting, require_pow=require_pow)
    headless = Block(minting.header, _tx(9), minting.payload)
    for require_pow in (True, False):
        with pytest.raises(InvalidBlock, match="first transaction must be"):
            check_block(headless, require_pow=require_pow)


def test_tampered_copy_of_an_accepted_block_is_judged_afresh():
    import dataclasses

    block = _block()
    check_block(block, require_pow=False)
    tampered = dataclasses.replace(block, payload=SyntheticPayload(99, salt=b"x"))
    with pytest.raises(InvalidBlock, match="payload root does not match"):
        check_block(tampered, require_pow=False)
    check_block(block, require_pow=False)
