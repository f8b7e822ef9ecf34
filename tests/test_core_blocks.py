"""Key block and microblock structure, signatures, mining."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bitcoin.blocks import SyntheticPayload, TxPayload
from repro.core.blocks import (
    KEY_HEADER_SIZE,
    MICRO_HEADER_SIZE,
    InvalidNGBlock,
    KeyBlock,
    build_key_block,
    build_microblock,
    check_key_block,
    check_microblock_structure,
    mine_key_block,
)
from repro.core.remuneration import build_ng_coinbase
from repro.core.params import NGParams
from repro.crypto import ecdsa
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey

LEADER = PrivateKey.from_seed("leader")
OTHER = PrivateKey.from_seed("other")
PARAMS = NGParams()


def _key_block(prev=bytes(32), key=LEADER, miner=1, t=0.0):
    coinbase = build_ng_coinbase(
        miner_id=miner,
        timestamp=t,
        self_pubkey_hash=hash160(key.public_key().to_bytes()),
        prev_leader_pubkey_hash=None,
        prev_epoch_fees=0,
        params=PARAMS,
    )
    return build_key_block(
        prev_hash=prev,
        timestamp=t,
        bits=0x207FFFFF,
        leader_pubkey=key.public_key().to_bytes(),
        coinbase=coinbase,
    )


def _micro(prev, key=LEADER, t=10.0, payload=None):
    return build_microblock(
        prev_hash=prev,
        timestamp=t,
        payload=payload or SyntheticPayload(n_tx=5, salt=b"m"),
        leader_key=key,
    )


def test_key_block_contains_public_key():
    block = _key_block()
    assert block.header.leader_pubkey == LEADER.public_key().to_bytes()


def test_key_block_size_small():
    # "low frequency and quick propagation of the small key blocks"
    block = _key_block()
    assert block.size < 300
    assert block.size == KEY_HEADER_SIZE + block.coinbase.size


def test_key_block_miner_hint():
    assert _key_block(miner=7).miner_hint == 7


def test_key_block_hash_commits_to_leader_key():
    a = _key_block(key=LEADER)
    b = _key_block(key=OTHER)
    assert a.hash != b.hash


def test_check_key_block_valid():
    check_key_block(_key_block(), require_pow=False)


def test_check_key_block_rejects_bad_pubkey_length():
    with pytest.raises(InvalidNGBlock):
        build_key_block(
            prev_hash=bytes(32),
            timestamp=0.0,
            bits=0x207FFFFF,
            leader_pubkey=b"\x02" * 10,
            coinbase=_key_block().coinbase,
        )


def test_check_key_block_rejects_undecodable_pubkey():
    block = _key_block()
    forged = build_key_block(
        prev_hash=bytes(32),
        timestamp=0.0,
        bits=0x207FFFFF,
        leader_pubkey=b"\x07" + b"\x00" * 32,  # bad prefix
        coinbase=block.coinbase,
    )
    with pytest.raises(InvalidNGBlock):
        check_key_block(forged, require_pow=False)


def test_check_key_block_rejects_coinbase_mismatch():
    block = _key_block()
    other = _key_block(miner=9)
    forged = KeyBlock(block.header, other.coinbase)
    with pytest.raises(InvalidNGBlock):
        check_key_block(forged, require_pow=False)


def test_mine_key_block():
    mined = mine_key_block(_key_block())
    assert mined.header.meets_pow()
    check_key_block(mined, require_pow=True)


def test_microblock_signature_verifies():
    key_block = _key_block()
    micro = _micro(key_block.hash)
    assert micro.verify_signature(LEADER.public_key().to_bytes())


def test_microblock_signature_wrong_key_fails():
    micro = _micro(bytes(32), key=LEADER)
    assert not micro.verify_signature(OTHER.public_key().to_bytes())
    assert not micro.verify_signature(b"\x00" * 33)


def test_microblock_carries_no_work():
    # No bits/nonce fields at all: weight is structural, not zeroed.
    micro = _micro(bytes(32))
    assert not hasattr(micro.header, "bits")
    assert not hasattr(micro.header, "nonce")


def test_microblock_size():
    micro = _micro(bytes(32), payload=SyntheticPayload(n_tx=10, tx_size=100))
    assert micro.size == MICRO_HEADER_SIZE + 1000


def test_check_microblock_structure_size_cap():
    micro = _micro(bytes(32), payload=SyntheticPayload(n_tx=100, tx_size=1000))
    with pytest.raises(InvalidNGBlock):
        check_microblock_structure(micro, max_bytes=50_000)
    check_microblock_structure(micro, max_bytes=200_000)


def test_check_microblock_structure_root_mismatch():
    from repro.core.blocks import Microblock

    micro = _micro(bytes(32))
    forged = Microblock(
        micro.header, micro.signature, SyntheticPayload(n_tx=9, salt=b"z")
    )
    with pytest.raises(InvalidNGBlock):
        check_microblock_structure(forged, max_bytes=1_000_000)


def test_microblock_hash_differs_from_signing_payload():
    micro = _micro(bytes(32))
    assert micro.hash != micro.header.signing_payload()


def test_tx_payload_microblock():
    from repro.ledger.transactions import OutPoint, Transaction, TxInput, TxOutput

    tx = Transaction(
        inputs=(TxInput(OutPoint(b"\x01" * 32, 0)),),
        outputs=(TxOutput(1, bytes(20)),),
    )
    micro = _micro(bytes(32), payload=TxPayload((tx,)))
    assert micro.n_tx == 1
    check_microblock_structure(micro, max_bytes=1_000_000)


def test_microblock_of_exactly_the_size_cap_is_valid():
    micro = _micro(bytes(32))
    check_microblock_structure(micro, max_bytes=micro.size)
    with pytest.raises(InvalidNGBlock):
        check_microblock_structure(micro, max_bytes=micro.size - 1)


# -- contextless verdicts: once per block object, never per receiver ---------

HARD_BITS = 0x1D00FFFF  # a target no nonce-0 header here meets


def _spend():
    from repro.ledger.transactions import OutPoint, Transaction, TxInput, TxOutput

    return Transaction(
        inputs=(TxInput(OutPoint(b"\x01" * 32, 0)),),
        outputs=(TxOutput(1, bytes(20)),),
    )


def _forged(fault=None, bits=0x207FFFFF):
    """A key block with at most the one named contextless fault."""
    good = _key_block()
    coinbase, pubkey = good.coinbase, good.header.leader_pubkey
    if fault == "key block payload must be a coinbase":
        coinbase = _spend()
    if fault == "leader public key undecodable":
        pubkey = b"\x07" + b"\x00" * 32
    block = build_key_block(bytes(32), 0.0, bits, pubkey, coinbase)
    if fault == "coinbase commitment mismatch":
        block = KeyBlock(block.header, _key_block(miner=9).coinbase)
    return block


@pytest.mark.parametrize(
    "fault, decodes",
    [
        ("coinbase commitment mismatch", 0),
        ("key block payload must be a coinbase", 0),
        ("leader public key undecodable", 1),
    ],
)
def test_faulty_key_block_is_judged_once_and_rejected_alike_everywhere(
    count_calls, fault, decodes
):
    import repro.core.blocks as blocks_mod
    from repro.crypto import ecdsa

    forged = _forged(fault)
    hashed = count_calls(blocks_mod, "sha256d")
    decoded = count_calls(ecdsa, "point_from_bytes")
    messages = []
    for _receiver in range(3):
        with pytest.raises(InvalidNGBlock) as caught:
            check_key_block(forged, require_pow=False)
        messages.append(str(caught.value))
    assert messages[0].startswith(fault)
    assert messages[1:] == messages[:1] * 2
    assert (len(hashed), len(decoded)) == (1, decodes)


def test_undecodable_leader_key_message_names_the_decode_error():
    with pytest.raises(InvalidNGBlock) as caught:
        check_key_block(
            _forged("leader public key undecodable"), require_pow=False
        )
    assert str(caught.value) == (
        "leader public key undecodable: "
        "bad compressed point encoding (33 bytes)"
    )


def test_malformed_leader_key_length_is_the_first_fault_reported():
    from repro.core.blocks import KeyBlockHeader

    good = _key_block().header
    for length in (32, 34):
        header = KeyBlockHeader(
            good.prev_hash,
            good.payload_root,
            good.timestamp,
            good.bits,
            good.nonce,
            good.leader_pubkey[:1] * length,
        )
        # The commitment is broken too; the key length is checked first.
        forged = KeyBlock(header, _key_block(miner=9).coinbase)
        with pytest.raises(InvalidNGBlock, match="^malformed leader public key$"):
            check_key_block(forged, require_pow=False)


def test_sound_key_block_is_judged_once(count_calls):
    import repro.core.blocks as blocks_mod
    from repro.crypto import ecdsa

    block = _key_block()
    hashed = count_calls(blocks_mod, "sha256d")
    decoded = count_calls(ecdsa, "point_from_bytes")
    for _ in range(3):
        check_key_block(block, require_pow=False)
    assert (len(hashed), len(decoded)) == (1, 1)


def test_require_pow_is_the_receivers_and_never_memoised():
    block = _forged(bits=HARD_BITS)
    assert not block.header.meets_pow()
    check_key_block(block, require_pow=False)
    with pytest.raises(InvalidNGBlock, match="does not meet its target"):
        check_key_block(block, require_pow=True)
    check_key_block(block, require_pow=False)


def test_header_facts_are_worked_out_once_per_header(count_calls):
    import dataclasses

    import repro.core.blocks as blocks_mod

    mined = mine_key_block(_key_block())
    sound = KeyBlock(dataclasses.replace(mined.header), mined.coinbase)
    hard = _forged(bits=HARD_BITS)
    decodes = count_calls(blocks_mod, "target_from_compact")
    verdicts = count_calls(blocks_mod, "meets_target")
    for _receiver in range(3):
        for block in (sound, hard):
            assert block.header.work == 2**256 // (block.header.target + 1)
            assert block.size == KEY_HEADER_SIZE + block.coinbase.size
            check_key_block(block, require_pow=False)
        check_key_block(sound, require_pow=True)
        with pytest.raises(InvalidNGBlock, match="does not meet its target"):
            check_key_block(hard, require_pow=True)
    assert decodes == [(0x207FFFFF,), (HARD_BITS,)]
    assert len(verdicts) == 2


def test_first_failing_check_order_survives_the_memo():
    # A commitment fault is reported ahead of a missed target, a missed
    # target ahead of an undecodable key -- whichever receiver asked first.
    bad_key = _forged("leader public key undecodable", bits=HARD_BITS)
    assert not bad_key.header.meets_pow()
    for require_pow, message in (
        (False, "leader public key undecodable"),
        (True, "does not meet its target"),
        (False, "leader public key undecodable"),
    ):
        with pytest.raises(InvalidNGBlock, match=message):
            check_key_block(bad_key, require_pow=require_pow)
    both = KeyBlock(bad_key.header, _key_block(miner=9).coinbase)
    for require_pow in (True, False):
        with pytest.raises(InvalidNGBlock, match="coinbase commitment mismatch"):
            check_key_block(both, require_pow=require_pow)


def test_wrong_entries_root_is_judged_once_and_rejected_alike_everywhere(
    count_calls,
):
    from repro.core.blocks import Microblock

    micro = _micro(bytes(32))
    forged = Microblock(
        micro.header, micro.signature, SyntheticPayload(n_tx=9, salt=b"z")
    )
    roots = count_calls(SyntheticPayload, "root")
    messages = []
    for receiver_cap in (1_000_000, 10, 2_000_000):
        with pytest.raises(InvalidNGBlock) as caught:
            check_microblock_structure(forged, max_bytes=receiver_cap)
        messages.append(str(caught.value))
    assert messages == ["entries root does not match payload"] * 3
    assert len(roots) == 1


def test_size_cap_is_the_receivers_and_never_memoised(count_calls):
    micro = _micro(bytes(32))
    roots = count_calls(SyntheticPayload, "root")
    check_microblock_structure(micro, max_bytes=micro.size)
    with pytest.raises(
        InvalidNGBlock,
        match=f"microblock size {micro.size} exceeds cap {micro.size - 1}",
    ):
        check_microblock_structure(micro, max_bytes=micro.size - 1)
    check_microblock_structure(micro, max_bytes=micro.size)
    assert len(roots) == 1  # the root verdict is the object's; the cap is not


def test_tampered_copy_of_an_accepted_block_is_judged_afresh():
    import dataclasses

    block = _key_block()
    check_key_block(block, require_pow=False)
    tampered = dataclasses.replace(block, coinbase=_key_block(miner=9).coinbase)
    with pytest.raises(InvalidNGBlock, match="coinbase commitment mismatch"):
        check_key_block(tampered, require_pow=False)
    check_key_block(block, require_pow=False)

    micro = _micro(bytes(32))
    check_microblock_structure(micro, max_bytes=1_000_000)
    tampered = dataclasses.replace(
        micro, payload=SyntheticPayload(n_tx=9, salt=b"z")
    )
    with pytest.raises(InvalidNGBlock, match="entries root does not match"):
        check_microblock_structure(tampered, max_bytes=1_000_000)
    check_microblock_structure(micro, max_bytes=1_000_000)


@pytest.mark.parametrize("right_key_first", [True, False])
def test_microblock_signature_is_judged_once_per_key_asked_under(
    count_calls, right_key_first
):
    from repro.crypto import ecdsa
    from repro.crypto.keys import PublicKey

    micro = _micro(bytes(32), key=LEADER)
    keys = [LEADER.public_key().to_bytes(), OTHER.public_key().to_bytes()]
    expected = {keys[0]: True, keys[1]: False}
    if not right_key_first:
        keys.reverse()
    verifies = count_calls(PublicKey, "verify")
    decodes = count_calls(ecdsa, "point_from_bytes")
    # Which key to ask under is each receiver's view of the chain; the
    # answer under that key is the object's, whichever was asked first.
    for _receiver in range(3):
        for key in keys:
            assert micro.verify_signature(key) is expected[key]
    assert (len(verifies), len(decodes)) == (2, 2)
    # No curve point at all: one decode, no verify, the same answer again.
    assert [micro.verify_signature(b"\x00" * 33) for _ in range(3)] == [False] * 3
    assert (len(verifies), len(decodes)) == (2, 3)


def test_signature_verdict_belongs_to_the_microblock_object(count_calls):
    import dataclasses
    import pickle

    from repro.crypto.keys import PublicKey

    leader = LEADER.public_key().to_bytes()
    micro = _micro(bytes(32))
    twin = _micro(bytes(32))
    before = (hash(micro), repr(micro), micro.hash)
    assert micro.verify_signature(leader)
    assert (hash(micro), repr(micro), micro.hash) == before
    assert micro == twin and hash(micro) == hash(twin)
    assert pickle.loads(pickle.dumps(micro)) == micro
    verifies = count_calls(PublicKey, "verify")
    # An equal object and a forged copy are each judged for themselves.
    assert twin.verify_signature(leader)
    forged = dataclasses.replace(micro, seal=_micro(bytes(32), key=OTHER).signature)
    assert not forged.verify_signature(leader)
    assert micro.verify_signature(leader)
    assert len(verifies) == 2


_SECRETS = st.integers(min_value=1, max_value=ecdsa.N - 1)


@settings(max_examples=15, deadline=None)
@given(
    secret=_SECRETS,
    other=_SECRETS,
    timestamp=st.floats(allow_nan=False, allow_infinity=False),
    payload=st.builds(
        SyntheticPayload,
        n_tx=st.integers(0, 10_000),
        tx_size=st.integers(1, 2_000),
        salt=st.binary(max_size=40),
    ),
)
def test_signature_made_on_first_read_is_the_eager_signature(
    secret, other, timestamp, payload
):
    from repro.core.blocks import Microblock

    assume(other != secret)
    key = PrivateKey(secret)
    micro = build_microblock(bytes(32), timestamp, payload, key)
    assert micro.seal is key
    eager = key.sign(micro.header.signing_payload())
    assert micro.signature == eager
    assert micro.seal == eager  # the key is dropped once it has signed
    assert micro == Microblock(micro.header, eager, payload)
    assert micro.verify_signature(key.public_key().to_bytes())
    assert not micro.verify_signature(PrivateKey(other).public_key().to_bytes())


def test_identity_and_transport_sign_nothing(count_calls):
    import dataclasses
    import pickle

    from repro.core.blocks import Microblock

    signs = count_calls(PrivateKey, "sign")
    micro = _micro(bytes(32))
    twin = _micro(bytes(32))
    other_payload = dataclasses.replace(
        micro, payload=SyntheticPayload(n_tx=9, salt=b"z")
    )
    other_header = _micro(bytes(32), t=11.0)
    copy = pickle.loads(pickle.dumps(micro))
    assert (micro.hash, micro.size, repr(micro)) == (
        twin.hash,
        twin.size,
        repr(twin),
    )
    assert micro == micro and micro == twin and micro == copy
    assert micro != other_payload and micro != other_header
    assert hash(micro) == hash(twin) == hash(copy)
    assert micro != "microblock"
    check_microblock_structure(micro, max_bytes=1_000_000)
    assert signs == []
    assert isinstance(copy.seal, PrivateKey)
    # The first read signs, once; later reads and the pickled copy read
    # the same bytes.
    signature = micro.signature
    assert micro.signature == signature and len(signs) == 1
    assert copy.signature == signature and len(signs) == 2
    assert micro == Microblock(micro.header, signature, micro.payload)
    assert len(signs) == 2
    # Under another key the header signs to other bytes: not equal.
    assert _micro(bytes(32), key=OTHER) != _micro(bytes(32))
    assert len(signs) == 4


# The next two tests cover code the per-object verdicts did not touch.
# They exist because `core/blocks.py` is an anchor module for mutation
# analysis (docs/mutation.md, step 4), which makes every site in the
# file eligible, and these were the anchor's only survivors.


def test_key_header_is_the_bitcoin_header_plus_a_compressed_key():
    assert KEY_HEADER_SIZE == 80 + 33


def test_miner_hint_needs_exactly_four_tag_bytes():
    import struct

    from repro.ledger.transactions import make_coinbase

    def hint(tag):
        coinbase = make_coinbase([(bytes(20), 1)], tag=tag)
        return build_key_block(
            bytes(32), 0.0, 0x207FFFFF, LEADER.public_key().to_bytes(), coinbase
        ).miner_hint

    assert hint(struct.pack("<i", 7)) == 7
    assert hint(struct.pack("<i", 7)[:3]) == -1
