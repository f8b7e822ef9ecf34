"""SPV light-client verification of microblock payments."""

import pytest

from repro.bitcoin.blocks import TxPayload
from repro.core.blocks import build_key_block, build_microblock
from repro.core.genesis import make_ng_genesis
from repro.core.params import NGParams
from repro.core.remuneration import build_ng_coinbase
from repro.core.spv import (
    InclusionProof,
    LightClient,
    SpvError,
    build_inclusion_proof,
)
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.transactions import OutPoint, Transaction, TxInput, TxOutput

PARAMS = NGParams()
GENESIS = make_ng_genesis()
LEADER = PrivateKey.from_seed("spv-leader")
NEXT = PrivateKey.from_seed("spv-next")


def _tx(byte):
    return Transaction(
        inputs=(TxInput(OutPoint(bytes([byte]) * 32, 0)),),
        outputs=(TxOutput(1, bytes(20)),),
    )


def _key(prev, who, t, miner=1):
    return build_key_block(
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


@pytest.fixture()
def scenario():
    """Genesis → K1 → micro(tx…) → K2; light client synced."""
    k1 = _key(GENESIS.hash, LEADER, 10.0)
    txs = tuple(_tx(i) for i in range(1, 6))
    micro = build_microblock(k1.hash, 20.0, TxPayload(txs), LEADER)
    k2 = _key(micro.hash, NEXT, 110.0, miner=2)
    client = LightClient(GENESIS)
    client.add_header(k1.header, GENESIS.hash)
    client.add_header(k2.header, k1.hash)
    return client, k1, micro, k2, txs


def test_valid_proof_verifies(scenario):
    client, k1, micro, k2, txs = scenario
    proof = build_inclusion_proof(micro, txs[2].txid, k1.hash)
    assert client.verify(proof, min_key_depth=1)


def test_depth_requirement(scenario):
    client, k1, micro, k2, txs = scenario
    proof = build_inclusion_proof(micro, txs[0].txid, k1.hash)
    assert client.verify(proof, min_key_depth=1)
    assert not client.verify(proof, min_key_depth=2)  # only K2 buries it


def test_wrong_txid_fails(scenario):
    client, k1, micro, k2, txs = scenario
    proof = build_inclusion_proof(micro, txs[0].txid, k1.hash)
    forged = InclusionProof(
        txid=_tx(99).txid,
        merkle_branch=proof.merkle_branch,
        micro_header=proof.micro_header,
        micro_signature=proof.micro_signature,
        key_block_hash=proof.key_block_hash,
    )
    assert not client.verify(forged)


def test_signature_from_wrong_epoch_fails(scenario):
    client, k1, micro, k2, txs = scenario
    # Re-sign the microblock with the *next* leader's key: a proof
    # pointing at k1's epoch must fail.
    resigned = build_microblock(
        k1.hash, 20.0, micro.payload, NEXT
    )
    proof = build_inclusion_proof(resigned, txs[0].txid, k1.hash)
    assert not client.verify(proof)


def test_unknown_epoch_fails(scenario):
    client, k1, micro, k2, txs = scenario
    proof = build_inclusion_proof(micro, txs[0].txid, b"\x55" * 32)
    assert not client.verify(proof)


def test_off_chain_epoch_fails(scenario):
    client, k1, micro, k2, txs = scenario
    # A competing key fork grows heavier; k1's chain loses.
    fork1 = _key(GENESIS.hash, NEXT, 11.0, miner=3)
    fork2 = _key(fork1.hash, NEXT, 111.0, miner=3)
    fork3 = _key(fork2.hash, NEXT, 211.0, miner=3)
    client.add_header(fork1.header, GENESIS.hash)
    client.add_header(fork2.header, fork1.hash)
    client.add_header(fork3.header, fork2.hash)
    assert client.best_hash == fork3.hash
    proof = build_inclusion_proof(micro, txs[0].txid, k1.hash)
    assert not client.verify(proof)
    assert client.burial_depth(k1.hash) == -1


def test_proof_construction_errors(scenario):
    client, k1, micro, k2, txs = scenario
    with pytest.raises(SpvError):
        build_inclusion_proof(micro, b"\x00" * 32, k1.hash)
    from repro.bitcoin.blocks import SyntheticPayload

    synthetic = build_microblock(
        k1.hash, 20.0, SyntheticPayload(n_tx=3, salt=b"s"), LEADER
    )
    with pytest.raises(SpvError):
        build_inclusion_proof(synthetic, txs[0].txid, k1.hash)


def test_header_sync_errors(scenario):
    client, k1, *_ = scenario
    with pytest.raises(SpvError):
        client.add_header(k1.header, b"\x00" * 32)  # unknown parent
    assert not client.add_header(k1.header, GENESIS.hash)  # duplicate


def test_equal_work_fork_keeps_the_first_header(scenario):
    # Most work wins; on a tie the header seen first stays best.
    client, k1, _micro, k2, _txs = scenario
    rival = _key(k1.hash, LEADER, 111.0, miner=3)
    assert rival.header.work == k2.header.work
    assert not client.add_header(rival.header, k1.hash)
    assert client.best_hash == k2.hash


def test_header_chain_growth_is_key_rate_only(scenario):
    # The SPV selling point: 2 key headers for a whole epoch of
    # microblocks.
    client, *_ = scenario
    assert client.height() == 2
