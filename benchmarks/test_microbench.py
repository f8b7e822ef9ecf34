"""Micro-benchmarks of the core primitives.

Not a paper artifact — performance baselines for the substrates, so
regressions in the hot paths (ECDSA, hashing, UTXO updates, the event
loop) are visible in CI.  These run pytest-benchmark in its natural
multi-round mode, unlike the single-shot figure regenerations.
"""

from repro.bitcoin.blocks import SyntheticPayload, build_block, make_genesis
from repro.bitcoin.chain import BlockTree
from repro.crypto.hashing import sha256d
from repro.crypto.keys import PrivateKey
from repro.crypto.merkle import merkle_root
from repro.ledger.transactions import OutPoint, Transaction, TxInput, TxOutput
from repro.ledger.utxo import UtxoSet
from repro.net.simulator import Simulator

KEY = PrivateKey.from_seed("bench")
MSG = b"\x42" * 32
SIG = KEY.sign(MSG)
PUB = KEY.public_key()
LEAVES = [sha256d(bytes([i])) for i in range(256)]


def test_ecdsa_sign(benchmark):
    result = benchmark(KEY.sign, MSG)
    assert len(result) == 64


def test_ecdsa_verify(benchmark):
    assert benchmark(PUB.verify, MSG, SIG)


def test_sha256d_1kb(benchmark):
    data = b"\x00" * 1024
    assert len(benchmark(sha256d, data)) == 32


def test_merkle_root_256_leaves(benchmark):
    root = benchmark(merkle_root, LEAVES)
    assert len(root) == 32


def test_transaction_roundtrip(benchmark):
    tx = Transaction(
        inputs=(TxInput(OutPoint(b"\x01" * 32, 0)),),
        outputs=(TxOutput(5, bytes(20)),),
        padding=b"p" * 100,
    )

    def roundtrip():
        return Transaction.deserialize(tx.serialize())

    assert benchmark(roundtrip) == tx


def test_utxo_apply_undo(benchmark):
    def apply_undo():
        utxo = UtxoSet(coinbase_maturity=0)
        prev = None
        for i in range(50):
            if prev is None:
                from repro.ledger.transactions import make_coinbase

                tx = make_coinbase([(bytes(20), 100)], tag=bytes([i]))
            else:
                tx = Transaction(
                    inputs=(TxInput(OutPoint(prev, 0)),),
                    outputs=(TxOutput(100, bytes(20)),),
                )
            utxo.apply(tx, i + 200)
            prev = tx.txid
        return len(utxo)

    assert benchmark(apply_undo) == 1


def test_event_loop_throughput(benchmark):
    def pump():
        sim = Simulator(seed=0)
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 5000:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count

    assert benchmark(pump) == 5000


def test_block_tree_insert_100(benchmark):
    genesis = make_genesis()
    blocks = []
    prev = genesis.hash
    for i in range(100):
        block = build_block(
            prev_hash=prev,
            payload=SyntheticPayload(n_tx=0, salt=bytes([i])),
            timestamp=float(i),
            bits=0x207FFFFF,
            miner_id=0,
            reward=0,
        )
        blocks.append(block)
        prev = block.hash

    def insert_all():
        tree = BlockTree(genesis)
        for block in blocks:
            tree.add_block(block)
        return len(tree)

    assert benchmark(insert_all) == 101
