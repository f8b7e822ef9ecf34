"""Fee splitting and the reward ledger (Section 4.4)."""

import pytest

from repro.bitcoin.blocks import SyntheticPayload
from repro.core.blocks import build_key_block, build_microblock
from repro.core.chain import NGChain
from repro.core.genesis import make_ng_genesis
from repro.core.params import NGParams
from repro.core.remuneration import (
    EpochReward,
    RewardLedger,
    build_ng_coinbase,
    split_fee,
)
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey

PARAMS = NGParams(key_block_interval=100.0, min_microblock_interval=10.0)
ALICE = PrivateKey.from_seed("alice")
BOB = PrivateKey.from_seed("bob")
CAROL = PrivateKey.from_seed("carol")
FEE_PER_TX = 100


def test_split_fee_paper_fractions():
    current, following = split_fee(1000, 0.40)
    assert current == 400
    assert following == 600


def test_split_fee_conserves_value():
    for fee in (0, 1, 3, 999, 12345):
        a, b = split_fee(fee, 0.40)
        assert a + b == fee


def test_split_fee_rejects_negative():
    with pytest.raises(ValueError):
        split_fee(-1, 0.4)


def test_coinbase_pays_both_leaders():
    alice_pkh = hash160(ALICE.public_key().to_bytes())
    bob_pkh = hash160(BOB.public_key().to_bytes())
    coinbase = build_ng_coinbase(
        miner_id=2,
        timestamp=1.0,
        self_pubkey_hash=bob_pkh,
        prev_leader_pubkey_hash=alice_pkh,
        prev_epoch_fees=1000,
        params=PARAMS,
    )
    values = {out.pubkey_hash: out.value for out in coinbase.outputs}
    assert values[bob_pkh] == PARAMS.key_block_reward + 600
    assert values[alice_pkh] == 400


def test_coinbase_without_fees_single_output():
    coinbase = build_ng_coinbase(
        miner_id=1,
        timestamp=0.0,
        self_pubkey_hash=hash160(ALICE.public_key().to_bytes()),
        prev_leader_pubkey_hash=hash160(BOB.public_key().to_bytes()),
        prev_epoch_fees=0,
        params=PARAMS,
    )
    assert len(coinbase.outputs) == 1


def _build_two_epoch_chain():
    """Genesis → K1(alice) → m1,m2 → K2(bob) → m3 → K3(carol)."""
    genesis = make_ng_genesis()
    chain = NGChain(genesis, PARAMS)

    def key(prev, who, t, miner):
        block = build_key_block(
            prev_hash=prev,
            timestamp=t,
            bits=0x207FFFFF,
            leader_pubkey=who.public_key().to_bytes(),
            coinbase=build_ng_coinbase(
                miner_id=miner,
                timestamp=t,
                self_pubkey_hash=hash160(who.public_key().to_bytes()),
                prev_leader_pubkey_hash=None,
                prev_epoch_fees=0,
                params=PARAMS,
            ),
        )
        chain.add_block(block, t)
        return block

    def micro(prev, who, t, n_tx, salt):
        block = build_microblock(
            prev_hash=prev,
            timestamp=t,
            payload=SyntheticPayload(n_tx=n_tx, salt=salt),
            leader_key=who,
        )
        chain.add_block(block, t)
        return block

    k1 = key(genesis.hash, ALICE, 0.0, miner=1)
    m1 = micro(k1.hash, ALICE, 10.0, 10, b"1")
    m2 = micro(m1.hash, ALICE, 20.0, 10, b"2")
    k2 = key(m2.hash, BOB, 100.0, miner=2)
    m3 = micro(k2.hash, BOB, 110.0, 5, b"3")
    k3 = key(m3.hash, CAROL, 200.0, miner=3)
    return chain


def test_reward_ledger_epoch_attribution():
    chain = _build_two_epoch_chain()
    ledger = RewardLedger(PARAMS, fee_of=lambda m: m.n_tx * FEE_PER_TX)
    blocks = [chain.get(h) for h in chain.main_chain()]
    epochs, revenue = ledger.compute(blocks)
    # Genesis epoch (0 fees) + alice + bob + carol.
    by_miner = {epoch.leader_miner: epoch for epoch in epochs if epoch.leader_miner > 0}
    alice_fees = 20 * FEE_PER_TX  # 2 microblocks × 10 tx
    bob_fees = 5 * FEE_PER_TX
    assert by_miner[1].placed_fee_share == int(alice_fees * 0.4)
    assert by_miner[2].next_fee_share == alice_fees - int(alice_fees * 0.4)
    assert by_miner[2].placed_fee_share == int(bob_fees * 0.4)
    assert by_miner[3].next_fee_share == bob_fees - int(bob_fees * 0.4)
    # Carol's own placed fees are not yet payable.
    assert by_miner[3].placed_fee_share == 0


def test_reward_ledger_subsidies():
    chain = _build_two_epoch_chain()
    ledger = RewardLedger(PARAMS, fee_of=lambda m: m.n_tx * FEE_PER_TX)
    blocks = [chain.get(h) for h in chain.main_chain()]
    epochs, revenue = ledger.compute(blocks)
    for epoch in epochs:
        if not epoch.revoked:
            assert epoch.subsidy == PARAMS.key_block_reward


def test_reward_ledger_total_conservation():
    chain = _build_two_epoch_chain()
    fee_of = lambda m: m.n_tx * FEE_PER_TX
    ledger = RewardLedger(PARAMS, fee_of)
    blocks = [chain.get(h) for h in chain.main_chain()]
    epochs, revenue = ledger.compute(blocks)
    # All placed fees of closed epochs are fully distributed 40/60.
    closed_fees = 25 * FEE_PER_TX  # alice 20 + bob 5 (both epochs closed)
    fee_payout = sum(e.placed_fee_share + e.next_fee_share for e in epochs)
    assert fee_payout == closed_fees


def test_revocation_voids_offender_and_pays_bounty():
    chain = _build_two_epoch_chain()
    ledger = RewardLedger(PARAMS, fee_of=lambda m: m.n_tx * FEE_PER_TX)
    blocks = [chain.get(h) for h in chain.main_chain()]
    alice_pub = ALICE.public_key().to_bytes()
    _, honest = ledger.compute(blocks)
    _, punished = ledger.compute(blocks, revoked_leaders={alice_pub: 3})
    assert punished[1] == 0  # alice loses everything
    would_have = honest[1]
    bounty = punished[3] - honest[3]
    assert bounty == int(would_have * PARAMS.poison_bounty_fraction)


def test_epoch_reward_total_sums_all_three_components():
    reward = EpochReward(
        leader_miner=1,
        leader_pubkey=b"\x02" * 33,
        key_block_hash=b"\x00" * 32,
        subsidy=100,
        placed_fee_share=40,
        next_fee_share=60,
    )
    assert reward.total == 200


def test_one_satoshi_prev_share_is_still_paid():
    # split_fee(3, 0.40) == (1, 2): even a single-satoshi 40% share
    # must appear as the previous leader's output.
    alice_pkh = hash160(ALICE.public_key().to_bytes())
    bob_pkh = hash160(BOB.public_key().to_bytes())
    coinbase = build_ng_coinbase(
        miner_id=1,
        timestamp=0.0,
        self_pubkey_hash=bob_pkh,
        prev_leader_pubkey_hash=alice_pkh,
        prev_epoch_fees=3,
        params=PARAMS,
    )
    values = {out.pubkey_hash: out.value for out in coinbase.outputs}
    assert values[alice_pkh] == 1
    assert values[bob_pkh] == PARAMS.key_block_reward + 2


def test_revoking_a_leader_with_carried_fees_prices_the_bounty_fully():
    # Bob's epoch has both a placed share (40% of his own fees) and a
    # carried share (60% of alice's); the reporter's bounty must be a
    # fraction of the *sum*, not of the difference.
    chain = _build_two_epoch_chain()
    ledger = RewardLedger(PARAMS, fee_of=lambda m: m.n_tx * FEE_PER_TX)
    blocks = [chain.get(h) for h in chain.main_chain()]
    bob_pub = BOB.public_key().to_bytes()
    _, honest = ledger.compute(blocks)
    _, punished = ledger.compute(blocks, revoked_leaders={bob_pub: 3})
    assert punished[2] == 0
    alice_fees = 20 * FEE_PER_TX
    bob_fees = 5 * FEE_PER_TX
    would_have = (
        PARAMS.key_block_reward
        + int(bob_fees * 0.4)
        + (alice_fees - int(alice_fees * 0.4))
    )
    assert honest[2] == would_have
    bounty = punished[3] - honest[3]
    assert bounty == int(would_have * PARAMS.poison_bounty_fraction)
