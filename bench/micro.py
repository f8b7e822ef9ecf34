"""Micro-loops: one public function of one layer, timed from outside.

These give the ``*.us_per_call`` and ``pump`` rows of the per-layer
ledger.  Each figure is the median of ``BATCHES`` batches, and every
loop consumes what it computes inside the timed region.
"""

from __future__ import annotations

import random
import statistics
import time
from collections.abc import Callable

from repro.crypto.hashing import sha256d
from repro.crypto.keys import PrivateKey
from repro.crypto.merkle import merkle_root
from repro.ledger.transactions import (
    COIN,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.ledger.utxo import UtxoSet
from repro.net.gossip import INV_SIZE
from repro.net.latency import default_histogram
from repro.net.network import Message, Network
from repro.net.simulator import Simulator
from repro.net.topology import random_topology

BATCHES = 5
PUMP_EVENTS = 200_000


def _us_per_call(
    batch: Callable[[], int], between: Callable[[], None] | None = None
) -> float:
    """Median host microseconds per call; ``batch`` runs one batch and
    returns how many calls it made, ``between`` tidies up untimed."""
    costs = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        calls = batch()
        costs.append((time.perf_counter() - started) / calls * 1e6)
        if between is not None:
            between()
    return statistics.median(costs)


def _noop() -> None:
    pass


def pump_events_per_s() -> float:
    """The bare dispatch loop over ``PUMP_EVENTS`` no-op events."""
    rates = []
    for _ in range(3):
        sim = Simulator(seed=0)
        for index in range(PUMP_EVENTS):
            sim.schedule_at(index * 1e-3, _noop)
        started = time.perf_counter()
        sim.run()
        rates.append(sim.events_processed / (time.perf_counter() - started))
    return statistics.median(rates)


def multicast_us() -> float:
    """One inv fan-out from each node of a 1000-node paper topology.

    No handler is attached, so draining the queue between batches costs
    almost nothing and every batch pushes onto an empty heap.
    """
    sim = Simulator(seed=0)
    topology = random_topology(1000, min_degree=5, rng=random.Random(1))
    network = Network(
        sim, topology, default_histogram(), latency_rng=random.Random(2)
    )
    message = Message("inv", (b"\x00" * 32, "micro"), INV_SIZE)

    def batch() -> int:
        for src in range(1000):
            network.multicast(src, message)
        return 1000

    return _us_per_call(batch, between=sim.run)


def crypto_us() -> dict[str, float]:
    key = PrivateKey.from_seed("bench-micro")
    public = key.public_key()
    digests = [sha256d(bytes([i])) for i in range(16)]
    signatures = [key.sign(digest) for digest in digests]
    kilobyte = bytes(range(256)) * 4
    leaves = [sha256d(i.to_bytes(2, "big")) for i in range(256)]

    def sign() -> int:
        for digest in digests:
            key.sign(digest)
        return len(digests)

    def verify() -> int:
        for digest, signature in zip(digests[:8], signatures):
            if not public.verify(digest, signature):
                raise RuntimeError("a good signature failed to verify")
        return 8

    def hash_1kb() -> int:
        for _ in range(2000):
            sha256d(kilobyte)
        return 2000

    def root() -> int:
        for _ in range(20):
            merkle_root(leaves)
        return 20

    return {
        "crypto.ecdsa.sign.us_per_call": _us_per_call(sign),
        "crypto.ecdsa.verify.us_per_call": _us_per_call(verify),
        "crypto.sha256d_1kb.us_per_call": _us_per_call(hash_1kb),
        "crypto.merkle_root_256.us_per_call": _us_per_call(root),
    }


def ledger_us() -> dict[str, float]:
    owner = b"\x11" * 20
    utxo = UtxoSet()
    spends = []
    for index in range(50):
        outpoint = OutPoint(sha256d(index.to_bytes(2, "big")), 0)
        utxo.credit(TxOutput(COIN, owner), outpoint)
        spends.append(
            Transaction(
                inputs=(TxInput(outpoint),),
                outputs=(TxOutput(COIN // 2, owner), TxOutput(COIN // 4, owner)),
            )
        )
    signed = spends[0].sign_input(0, PrivateKey.from_seed("bench-micro"))
    wire = signed.serialize()

    def apply_undo() -> int:
        for _ in range(20):
            records = [utxo.apply(tx, 1) for tx in spends]
            for record in reversed(records):
                utxo.undo(record)
        return 20

    def roundtrip() -> int:
        for _ in range(500):
            if Transaction.deserialize(wire).serialize() != wire:
                raise RuntimeError("transaction did not round-trip")
        return 500

    return {
        "ledger.utxo.apply_undo_50.us_per_call": _us_per_call(apply_undo),
        "ledger.tx.roundtrip.us_per_call": _us_per_call(roundtrip),
    }


def micro_metrics() -> dict[str, float]:
    """Every micro-loop figure, by per-layer metric name."""
    return {
        "net.simulator.pump.events_per_s": pump_events_per_s(),
        "net.network.multicast.us_per_call": multicast_us(),
        **crypto_us(),
        **ledger_us(),
    }
