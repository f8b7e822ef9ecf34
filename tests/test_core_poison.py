"""Poison transactions: fraud proofs, placement window, dedup."""

import pytest

from repro.bitcoin.blocks import SyntheticPayload
from repro.core.blocks import build_key_block, build_microblock
from repro.core.chain import FraudProof, NGChain
from repro.core.genesis import make_ng_genesis
from repro.core.params import NGParams
from repro.core.poison import (
    InvalidPoison,
    PoisonEntry,
    PoisonRegistry,
    validate_poison,
)
from repro.core.remuneration import build_ng_coinbase
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey

PARAMS = NGParams(
    key_block_interval=100.0, min_microblock_interval=10.0, coinbase_maturity=5
)
CHEATER = PrivateKey.from_seed("cheater")
HONEST = PrivateKey.from_seed("honest")


def _scenario():
    """Chain with a detected equivocation and a closing key block."""
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

    k1 = key(genesis.hash, CHEATER, 0.0, miner=1)
    fork_a = build_microblock(
        k1.hash, 10.0, SyntheticPayload(n_tx=1, salt=b"a"), CHEATER
    )
    fork_b = build_microblock(
        k1.hash, 10.0, SyntheticPayload(n_tx=1, salt=b"b"), CHEATER
    )
    chain.add_block(fork_a, 10.0)
    chain.add_block(fork_b, 10.5)
    k2 = key(chain.tip, HONEST, 100.0, miner=2)
    return chain, chain.equivocations()


def test_valid_poison_accepted():
    chain, proofs = _scenario()
    poison = PoisonEntry(proof=proofs[0], reporter_miner=2)
    validate_poison(chain, poison, placement_key_height=2)


def test_poison_before_next_key_block_rejected():
    chain, proofs = _scenario()
    poison = PoisonEntry(proof=proofs[0], reporter_miner=2)
    with pytest.raises(InvalidPoison):
        validate_poison(chain, poison, placement_key_height=1)


def test_poison_after_maturity_rejected():
    chain, proofs = _scenario()
    poison = PoisonEntry(proof=proofs[0], reporter_miner=2)
    with pytest.raises(InvalidPoison):
        validate_poison(
            chain, poison, placement_key_height=1 + PARAMS.coinbase_maturity + 1
        )


def test_poison_with_forged_signature_rejected():
    chain, proofs = _scenario()
    genuine = proofs[0]
    forged_micro = build_microblock(
        genuine.pruned_micro.header.prev_hash,
        10.0,
        SyntheticPayload(n_tx=1, salt=b"b"),
        HONEST,  # wrong key: proof must not verify
    )
    forged = FraudProof(
        offender_pubkey=genuine.offender_pubkey,
        pruned_micro=forged_micro,
        retained_micro_hash=genuine.retained_micro_hash,
    )
    with pytest.raises(InvalidPoison):
        validate_poison(
            chain, PoisonEntry(proof=forged, reporter_miner=2), 2
        )


def test_poison_against_main_chain_block_rejected():
    chain, proofs = _scenario()
    genuine = proofs[0]
    # Swap: claim the *retained* (main chain) block is the pruned one.
    retained = chain.record(genuine.retained_micro_hash).block
    swapped = FraudProof(
        offender_pubkey=genuine.offender_pubkey,
        pruned_micro=retained,  # type: ignore[arg-type]
        retained_micro_hash=genuine.pruned_micro.hash,
    )
    with pytest.raises(InvalidPoison):
        validate_poison(
            chain, PoisonEntry(proof=swapped, reporter_miner=2), 2
        )


def test_registry_accepts_once_per_cheater():
    chain, proofs = _scenario()
    registry = PoisonRegistry()
    poison = PoisonEntry(proof=proofs[0], reporter_miner=2)
    assert registry.register(chain, poison, 2)
    # "Only one poison transaction can be placed per cheater."
    assert not registry.register(chain, poison, 2)
    assert len(registry) == 1
    assert proofs[0].offender_pubkey in registry


def test_registry_revocations_shape():
    chain, proofs = _scenario()
    registry = PoisonRegistry()
    registry.register(chain, PoisonEntry(proof=proofs[0], reporter_miner=7), 2)
    assert registry.revocations() == {proofs[0].offender_pubkey: 7}


def test_poison_size_is_small():
    from repro.core.blocks import MICRO_HEADER_SIZE

    chain, proofs = _scenario()
    poison = PoisonEntry(proof=proofs[0], reporter_miner=2)
    # The entry carries a whole pruned header plus bookkeeping, no more.
    assert MICRO_HEADER_SIZE < poison.size < 200


def test_poison_at_the_exact_maturity_boundary_accepted():
    # The window is (offender_epoch, offender_epoch + maturity]: at the
    # last key height before the offender's coinbase matures, the
    # poison is still placeable.
    chain, proofs = _scenario()
    poison = PoisonEntry(proof=proofs[0], reporter_miner=2)
    validate_poison(
        chain, poison, placement_key_height=1 + PARAMS.coinbase_maturity
    )
