"""The NG chain: key-block weight, microblock validity, equivocation."""

import random

import pytest

from repro.bitcoin.blocks import SyntheticPayload
from repro.core.blocks import InvalidNGBlock, build_key_block, build_microblock
from repro.core.chain import NGChain
from repro.core.genesis import make_ng_genesis
from repro.core.params import NGParams
from repro.core.remuneration import build_ng_coinbase
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey

from .conftest import StubRng

PARAMS = NGParams(key_block_interval=100.0, min_microblock_interval=10.0)
GENESIS = make_ng_genesis()
ALICE = PrivateKey.from_seed("alice")
BOB = PrivateKey.from_seed("bob")


def _chain(rng=None):
    return NGChain(GENESIS, PARAMS, rng)


def _key(prev, key, t, miner=1):
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


def _micro(prev, key, t, salt=b"m"):
    return build_microblock(
        prev_hash=prev,
        timestamp=t,
        payload=SyntheticPayload(n_tx=3, salt=salt),
        leader_key=key,
    )


def test_key_block_becomes_tip_and_leader():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    assert chain.tip == key1.hash
    assert chain.tip_block.leader_pubkey == ALICE.public_key().to_bytes()
    assert chain.tip_block.key_height == 1


def test_microblock_extends_tip_without_weight():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    micro = _micro(key1.hash, ALICE, 20.0)
    chain.add_block(micro, 20.0)
    assert chain.tip == micro.hash
    assert (
        chain.tip_block.cumulative_work
        == chain.get(key1.hash).cumulative_work
    )


def test_microblock_from_non_leader_rejected():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    forged = _micro(key1.hash, BOB, 20.0)
    with pytest.raises(InvalidNGBlock):
        chain.add_block(forged, 20.0)


def test_microblock_rate_limit_enforced():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    too_soon = _micro(key1.hash, ALICE, 15.0)  # < 10 s after predecessor
    with pytest.raises(InvalidNGBlock):
        chain.add_block(too_soon, 15.0)


def test_microblock_exact_interval_allowed():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    exact = _micro(key1.hash, ALICE, 20.0)
    chain.add_block(exact, 20.0)
    assert chain.tip == exact.hash


def test_microblock_future_timestamp_rejected():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    future = _micro(key1.hash, ALICE, 500.0)
    with pytest.raises(InvalidNGBlock):
        chain.add_block(future, 20.0)


def test_new_key_block_prunes_unseen_microblocks():
    # Figure 2: the fork at every leader switch.
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 0.0)
    chain.add_block(key1, 0.0)
    m1 = _micro(key1.hash, ALICE, 10.0, salt=b"1")
    m2 = _micro(m1.hash, ALICE, 20.0, salt=b"2")
    chain.add_block(m1, 10.0)
    chain.add_block(m2, 20.0)
    # Bob mined on m1, not having seen m2.
    key2 = _key(m1.hash, BOB, 21.0, miner=2)
    reorgs = chain.add_block(key2, 21.0)
    assert chain.tip == key2.hash
    assert m2.hash in chain.pruned_blocks()
    assert any(m2 in reorg.disconnected for reorg in reorgs)


def test_key_block_fork_first_seen():
    # Figure 3: competing key blocks, equal weight.  One draw: a low one
    # keeps the first seen, a high one takes the newcomer.
    key_a = _key(GENESIS.hash, ALICE, 1.0)
    key_b = _key(GENESIS.hash, BOB, 1.0, miner=2)
    key_c = _key(key_b.hash, BOB, 101.0, miner=2)
    for draw, winner in ((0.0, key_a), (0.5, key_b)):
        rng = StubRng(draw)
        chain = _chain(rng)
        chain.add_block(key_a, 1.0)
        chain.add_block(key_b, 2.0)
        assert chain.tip == winner.hash
        # Resolution: the next key block decides, with no second draw.
        chain.add_block(key_c, 101.0)
        assert chain.tip == key_c.hash
        assert rng.calls == 1


def test_epoch_leader_tracked_through_microblocks():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 0.0)
    chain.add_block(key1, 0.0)
    m1 = _micro(key1.hash, ALICE, 10.0)
    chain.add_block(m1, 10.0)
    key2 = _key(m1.hash, BOB, 50.0, miner=2)
    chain.add_block(key2, 50.0)
    assert chain.tip_block.leader_pubkey == BOB.public_key().to_bytes()
    # A microblock on the new epoch must be signed by Bob.
    m2 = _micro(key2.hash, BOB, 60.0)
    chain.add_block(m2, 60.0)
    assert chain.tip == m2.hash
    assert chain.latest_key_block() is key2


def test_equivocation_detected():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 0.0)
    chain.add_block(key1, 0.0)
    m_a = _micro(key1.hash, ALICE, 10.0, salt=b"a")
    m_b = _micro(key1.hash, ALICE, 10.0, salt=b"b")
    chain.add_block(m_a, 10.0)
    chain.add_block(m_b, 10.5)
    proofs = chain.equivocations()
    assert len(proofs) == 1
    assert proofs[0].verify()
    assert proofs[0].offender_pubkey == ALICE.public_key().to_bytes()
    # First-seen branch stays canonical.
    assert chain.tip == m_a.hash


def test_fraud_proof_stands_only_on_the_leaders_signature():
    """The §4.5 poison punishes a leader only for what it really signed:
    a pruned microblock signed by any other key proves nothing."""
    from repro.core.chain import FraudProof

    key1 = _key(GENESIS.hash, ALICE, 0.0)
    leader = ALICE.public_key().to_bytes()
    genuine = FraudProof(leader, _micro(key1.hash, ALICE, 10.0), b"\x00" * 32)
    forged = FraudProof(leader, _micro(key1.hash, BOB, 10.0), b"\x00" * 32)
    assert genuine.verify() is True
    assert forged.verify() is False


def test_orphan_microblock_adopted_with_parent():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 0.0)
    m1 = _micro(key1.hash, ALICE, 10.0)
    chain.add_block(m1, 5.0)  # parent unknown yet
    assert m1.hash not in chain
    chain.add_block(key1, 6.0)
    assert m1.hash in chain
    assert chain.tip == m1.hash


def test_invalid_orphan_discarded_on_adoption():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 0.0)
    bad = _micro(key1.hash, BOB, 10.0)  # wrong signer
    chain.add_block(bad, 5.0)
    chain.add_block(key1, 6.0)
    assert bad.hash not in chain
    assert chain.tip == key1.hash


def test_signature_check_can_be_disabled():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 0.0)
    chain.add_block(key1, 0.0)
    forged = _micro(key1.hash, BOB, 10.0)
    chain.add_block(forged, 10.0, check_signature=False)
    assert chain.tip == forged.hash


def test_consistency_invariant():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 0.0)
    chain.add_block(key1, 0.0)
    m1 = _micro(key1.hash, ALICE, 10.0)
    chain.add_block(m1, 10.0)
    key2 = _key(m1.hash, BOB, 50.0, miner=2)
    chain.add_block(key2, 50.0)
    chain.assert_consistent()


def test_main_chain_structure():
    chain = _chain()
    key1 = _key(GENESIS.hash, ALICE, 0.0)
    chain.add_block(key1, 0.0)
    m1 = _micro(key1.hash, ALICE, 10.0)
    chain.add_block(m1, 10.0)
    assert chain.main_chain() == [GENESIS.hash, key1.hash, m1.hash]
    assert chain.is_in_main_chain(key1.hash)


def test_fork_point_with_one_side_the_ancestor():
    chain = _chain()
    k1 = _key(GENESIS.hash, ALICE, 10.0)
    k2 = _key(k1.hash, BOB, 20.0, miner=2)
    chain.add_block(k1, 10.0)
    chain.add_block(k2, 20.0)
    # When one block is an ancestor of the other, the fork point is the
    # ancestor itself — not some block further down.
    assert chain.find_fork_point(k2.hash, k1.hash) == k1.hash
    assert chain.find_fork_point(k1.hash, k2.hash) == k1.hash


def test_microblock_timestamp_at_the_exact_drift_limit_is_valid():
    chain = _chain()
    k1 = _key(GENESIS.hash, ALICE, 0.0)
    chain.add_block(k1, 0.0)
    micro = _micro(k1.hash, ALICE, 10.0)
    # "in the future" starts strictly beyond local time + drift.
    chain.validate_microblock(
        micro, local_time=10.0 - PARAMS.max_future_drift
    )
    with pytest.raises(InvalidNGBlock):
        chain.validate_microblock(
            micro, local_time=10.0 - PARAMS.max_future_drift - 0.5
        )


def test_random_key_tie_break_is_seeded_and_deterministic():
    # Under the RANDOM policy, a competing equal-work key block stays
    # or wins exactly as the seeded coin flip dictates: < 0.5 keeps the
    # incumbent, otherwise the newcomer takes the tip.
    for seed in (0, 1, 2, 3):
        draw = random.Random(seed).random()
        chain = NGChain(GENESIS, PARAMS, random.Random(seed))
        a = _key(GENESIS.hash, ALICE, 10.0)
        b = _key(GENESIS.hash, BOB, 11.0, miner=2)
        chain.add_block(a, 10.0)
        chain.add_block(b, 11.0)
        expected = a.hash if draw < 0.5 else b.hash
        assert chain.tip == expected


def test_equivocating_microblock_never_steals_the_tip():
    # The coin flip applies to competing *key* blocks only; a leader's
    # equivocating sibling microblock always loses to the first seen,
    # whatever the rng says (seed 0's first draw is >= 0.5, which
    # would switch if the policy were misapplied).
    chain = NGChain(GENESIS, PARAMS, random.Random(0))
    k1 = _key(GENESIS.hash, ALICE, 0.0)
    chain.add_block(k1, 0.0)
    m_a = _micro(k1.hash, ALICE, 10.0, salt=b"a")
    m_b = _micro(k1.hash, ALICE, 10.0, salt=b"b")
    chain.add_block(m_a, 10.0)
    chain.add_block(m_b, 10.5)
    assert chain.tip == m_a.hash
