"""The sanitizer: invariant checkers, digest streams, and the bisector.

Three layers of coverage:

* hand-built violating states — each broken invariant trips exactly its
  own INV code and nothing else;
* the runtime — stride sweeps, per-``(code, node)`` dedupe, trace
  emission, digest capture, and clean end-to-end checked runs for all
  three protocols;
* divergence bisection — unit cases cross-checked against a linear
  scan, plus deliberately injected nondeterminism that the bisector
  must pinpoint to the first divergent event and node.
"""

from types import SimpleNamespace

import pytest

from repro.bitcoin.blocks import SyntheticPayload
from repro.bitcoin.chain import TieBreak
from repro.core.blocks import build_key_block, build_microblock
from repro.core.chain import NGChain
from repro.core.genesis import make_ng_genesis
from repro.core.params import NGParams
from repro.core.remuneration import build_ng_coinbase, split_fee
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.experiments import ExperimentConfig, run_experiment
from repro.ledger.mempool import Mempool
from repro.ledger.transactions import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
)
from repro.ledger.utxo import UtxoSet
from repro.mining.scheduler import MiningScheduler
from repro.sanitizer import (
    DigestSnapshot,
    NodeDigest,
    SanitizerRuntime,
    find_divergence,
    ng_checkers,
    node_digest,
)
from repro.sanitizer.checkers import TipMonotonicity
from repro.sanitizer.digests import load_stream, save_stream

PARAMS = NGParams(key_block_interval=100.0, min_microblock_interval=10.0)
GENESIS = make_ng_genesis()
ALICE = PrivateKey.from_seed("alice")
BOB = PrivateKey.from_seed("bob")
FEE_PER_TX = 1_000
PKH = hash160(b"payee")


def _key(prev, key, t, miner=1, coinbase=None):
    if coinbase is None:
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


def _micro(prev, key, t, salt=b"m", n_tx=3):
    return build_microblock(
        prev_hash=prev,
        timestamp=t,
        payload=SyntheticPayload(n_tx=n_tx, salt=salt),
        leader_key=key,
    )


def _node(chain, params=PARAMS):
    """A minimal NG-shaped node: exactly what the checkers duck-type."""
    return SimpleNamespace(
        node_id=0,
        chain=chain,
        params=params,
        policy=SimpleNamespace(synthetic_fee_per_tx=FEE_PER_TX),
        mempool=Mempool(),
        utxo=UtxoSet(),
        poisons_published=[],
        poison_registry=None,
    )


def _sweep(node):
    """Run the full NG catalog over one node, mirroring the runtime walk."""
    checkers = ng_checkers()
    chain = node.chain
    records = []
    cursor = chain.tip_record
    while cursor is not None:
        records.append(cursor)
        cursor = chain.get(cursor.parent_hash)
    violations = []
    for record in reversed(records):
        for checker in checkers:
            violations.extend(checker.check_block(node, 0, record, 99.0))
    for checker in checkers:
        violations.extend(checker.check_state(node, 0, 99.0))
    return violations


def _codes(violations):
    return {violation.code for violation in violations}


def _epoch_chain(coinbase2=None):
    """genesis -> key1(ALICE) -> microblock (3 tx) -> key2(BOB).

    ``coinbase2`` overrides key2's coinbase; the default one honestly
    closes the epoch (subsidy plus 3 tx of fees, 40% to ALICE).
    """
    chain = NGChain(GENESIS, PARAMS, tie_break=TieBreak.FIRST_SEEN)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    micro = _micro(key1.hash, ALICE, 20.0)
    chain.add_block(micro, 20.0)
    if coinbase2 is None:
        coinbase2 = build_ng_coinbase(
            miner_id=2,
            timestamp=30.0,
            self_pubkey_hash=hash160(BOB.public_key().to_bytes()),
            prev_leader_pubkey_hash=hash160(ALICE.public_key().to_bytes()),
            prev_epoch_fees=3 * FEE_PER_TX,
            params=PARAMS,
        )
    key2 = _key(micro.hash, BOB, 30.0, miner=2, coinbase=coinbase2)
    chain.add_block(key2, 30.0)
    return chain


# -- invariant checkers against hand-built states -----------------------------


def test_honest_epoch_chain_is_clean():
    assert _sweep(_node(_epoch_chain())) == []


def test_overpaying_fee_split_trips_only_inv102():
    # Total minted value is conserved, but 500 satoshis of BOB's 60%
    # share were shifted to ALICE — INV102 without INV101.
    fees = 3 * FEE_PER_TX
    prev_cut, self_cut = split_fee(fees, PARAMS.leader_fee_fraction)
    coinbase = make_coinbase(
        [
            (hash160(BOB.public_key().to_bytes()),
             PARAMS.key_block_reward + self_cut - 500),
            (hash160(ALICE.public_key().to_bytes()), prev_cut + 500),
        ],
        tag=b"overpay",
    )
    violations = _sweep(_node(_epoch_chain(coinbase)))
    assert _codes(violations) == {"INV102"}
    snapshot = dict(violations[0].snapshot)
    assert snapshot["paid"] == prev_cut + 500
    assert snapshot["expected"] == prev_cut


def test_inflating_coinbase_trips_only_inv101():
    # The previous leader's share is exact, but the new leader mints 7
    # satoshis out of thin air — INV101 without INV102.
    fees = 3 * FEE_PER_TX
    prev_cut, self_cut = split_fee(fees, PARAMS.leader_fee_fraction)
    coinbase = make_coinbase(
        [
            (hash160(BOB.public_key().to_bytes()),
             PARAMS.key_block_reward + self_cut + 7),
            (hash160(ALICE.public_key().to_bytes()), prev_cut),
        ],
        tag=b"inflate",
    )
    violations = _sweep(_node(_epoch_chain(coinbase)))
    assert _codes(violations) == {"INV101"}
    snapshot = dict(violations[0].snapshot)
    assert snapshot["minted"] == snapshot["expected"] + 7


def test_premature_coinbase_spend_trips_only_inv103():
    node = _node(NGChain(GENESIS, PARAMS))
    coinbase = make_coinbase([(PKH, 5_000)], tag=b"fresh")
    node.utxo.apply(coinbase, height=0)
    # Mempool.add does not validate maturity — that is the hole the
    # sanitizer's state sweep covers.
    spend = Transaction(
        inputs=(TxInput(OutPoint(coinbase.txid, 0)),),
        outputs=(TxOutput(4_000, PKH),),
    )
    node.mempool.add(spend, fee=1_000)
    violations = _sweep(node)
    assert _codes(violations) == {"INV103"}
    assert dict(violations[0].snapshot)["maturity"] == 100


def test_wrong_key_microblock_trips_only_inv104():
    chain = NGChain(GENESIS, PARAMS)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    forged = _micro(key1.hash, BOB, 20.0)
    chain.add_block(forged, 20.0, check_signature=False)
    assert _codes(_sweep(_node(chain))) == {"INV104"}


def test_fast_microblocks_trip_only_inv105():
    # The chain itself is permissive; the node's protocol params are
    # not — the checker judges by what the node claims to enforce.
    loose = NGParams(key_block_interval=100.0, min_microblock_interval=0.5)
    chain = NGChain(GENESIS, loose)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    chain.add_block(_micro(key1.hash, ALICE, 11.0), 11.0)
    assert _codes(_sweep(_node(chain))) == {"INV105"}


def test_oversized_microblock_trips_only_inv106():
    chain = NGChain(GENESIS, PARAMS)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    micro = _micro(key1.hash, ALICE, 20.0)
    chain.add_block(micro, 20.0)
    strict = NGParams(
        key_block_interval=100.0,
        min_microblock_interval=10.0,
        max_microblock_bytes=micro.size - 1,
    )
    assert _codes(_sweep(_node(chain, params=strict))) == {"INV106"}


def test_corrupted_chain_weight_trips_only_inv107():
    chain = _epoch_chain()
    chain.tip_record.cumulative_work += 5
    assert _codes(_sweep(_node(chain))) == {"INV107"}


def test_bogus_poison_proof_trips_only_inv108():
    node = _node(_epoch_chain())
    node.poisons_published = [
        SimpleNamespace(
            proof=SimpleNamespace(
                pruned_micro=SimpleNamespace(hash=b"\x07" * 32),
                verify=lambda: False,
            )
        )
    ]
    assert _codes(_sweep(node)) == {"INV108"}


def test_tip_weight_decrease_trips_inv109():
    long_chain = NGChain(GENESIS, PARAMS)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    long_chain.add_block(key1, 10.0)
    key2 = _key(key1.hash, BOB, 30.0, miner=2)
    long_chain.add_block(key2, 30.0)
    short_chain = NGChain(GENESIS, PARAMS)
    short_chain.add_block(key1, 10.0)

    checker = TipMonotonicity()
    node = _node(long_chain)
    assert checker.check_state(node, 0, 30.0) == []
    node.chain = short_chain  # a rollback no fork-choice rule allows
    violations = checker.check_state(node, 0, 31.0)
    assert _codes(violations) == {"INV109"}
    snapshot = dict(violations[0].snapshot)
    assert snapshot["weight"] < snapshot["previous"]


def test_missing_fee_record_trips_only_inv110():
    node = _node(_epoch_chain())
    node.utxo.credit(TxOutput(9_000, PKH), OutPoint(b"\x01" * 32, 0))
    spend = Transaction(
        inputs=(TxInput(OutPoint(b"\x01" * 32, 0)),),
        outputs=(TxOutput(8_000, PKH),),
    )
    node.mempool.add(spend, fee=1_000)
    assert _sweep(node) == []  # consistent pool is clean
    del node.mempool._fees[spend.txid]
    assert _codes(_sweep(node)) == {"INV110"}


# -- the runtime --------------------------------------------------------------


class _FakeSim:
    """The clock and the observer seam; ``probe()`` stands for one event."""

    def __init__(self):
        self.now = 0.0
        self.observers = []

    def attach(self, observer):
        self.observers.append(observer)

    def detach(self, observer):
        self.observers.remove(observer)

    def probe(self):
        heappop, probe = None, None
        for observer in self.observers:
            heappop, probe = observer.wrap_dispatch(heappop, probe)
        if probe is not None:
            probe()


class _Recorder:
    def __init__(self):
        self.events = []

    def emit(self, ev, t, **fields):
        self.events.append((ev, t, fields))


def _forged_micro_node():
    chain = NGChain(GENESIS, PARAMS)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    chain.add_block(_micro(key1.hash, BOB, 20.0), 20.0, check_signature=False)
    return _node(chain)


def test_runtime_dedupes_and_emits_trace_events():
    sim = _FakeSim()
    recorder = _Recorder()
    runtime = SanitizerRuntime(ng_checkers(), stride=1, tracer=recorder)
    runtime.install(sim, [_forged_micro_node()])
    sim.probe()
    sim.probe()  # same broken state swept twice
    assert [violation.code for violation in runtime.violations] == ["INV104"]
    traced = [event for event in recorder.events if event[0] == "invariant_violation"]
    assert len(traced) == 1
    assert traced[0][2]["code"] == "INV104"
    runtime.finalize()
    assert sim.observers == []  # detached


def test_runtime_captures_digests_on_stride_and_finalize():
    sim = _FakeSim()
    chain = _epoch_chain()
    runtime = SanitizerRuntime((), stride=1, digest_stride=2)
    runtime.install(sim, [_node(chain)])
    for _ in range(5):
        sim.probe()
    runtime.finalize()
    assert [snapshot.index for snapshot in runtime.digests] == [2, 4, 5]
    digest = runtime.digests[-1].digests[0]
    assert digest.weight == chain.tip_record.cumulative_work
    assert digest.height == 3


def test_node_digest_fingerprints_ledger_state():
    node = _node(_epoch_chain())
    before = node_digest(node, 0)
    node.utxo.credit(TxOutput(1_000, PKH), OutPoint(b"\x02" * 32, 0))
    after = node_digest(node, 0)
    assert before.tip == after.tip
    assert before.utxo != after.utxo
    assert before.mempool == after.mempool


CHECKED = dict(
    n_nodes=10,
    target_blocks=10,
    target_key_blocks=4,
    block_rate=0.2,
    block_size_bytes=5_000,
    key_block_rate=0.05,
    cooldown=10.0,
    seed=11,
)


@pytest.mark.parametrize("protocol", ["bitcoin", "bitcoin-ng", "ghost"])
def test_checked_run_is_clean(protocol):
    config = ExperimentConfig(
        protocol=protocol, check=True, check_stride=32, **CHECKED
    )
    result, _log = run_experiment(config)
    assert len(result.violations) == 0
    assert result.violations == ()


# -- digest streams -----------------------------------------------------------


def _digest(node, tip, weight=1):
    return NodeDigest(
        node=node, tip=tip, weight=weight, height=1, mempool="-", utxo="-"
    )


def _snap(index, *tips):
    return DigestSnapshot(
        index=index,
        time=float(index),
        digests=tuple(_digest(i, tip) for i, tip in enumerate(tips)),
    )


def test_stream_round_trips_through_jsonl(tmp_path):
    snapshots = [_snap(64, "aaa", "bbb"), _snap(128, "ccc", "ddd")]
    path = tmp_path / "missing" / "dir" / "stream.jsonl"  # parents made
    save_stream(path, snapshots, meta={"seed": 7})
    assert load_stream(path) == snapshots


def test_stream_rejects_foreign_and_empty_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_stream(empty)
    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text('{"kind": "trace"}\n')
    with pytest.raises(ValueError, match="not a digest stream"):
        load_stream(foreign)
    future = tmp_path / "future.jsonl"
    future.write_text('{"kind": "digest_stream", "v": 99}\n')
    with pytest.raises(ValueError, match="version"):
        load_stream(future)


# -- the bisector -------------------------------------------------------------


def test_identical_streams_have_no_divergence():
    stream = [_snap(i * 64, "aaa", "bbb") for i in range(6)]
    assert find_divergence(stream, list(stream)) is None


def test_length_mismatch_after_identical_prefix():
    stream = [_snap(i * 64, "aaa") for i in range(4)]
    divergence = find_divergence(stream, stream + [_snap(256, "aaa")])
    assert divergence is not None
    assert divergence.index == 4
    assert divergence.node == -1
    assert "different lengths" in divergence.format()


def test_mid_stream_divergence_names_snapshot_and_node():
    a = [_snap(i * 64, "aaa", "bbb") for i in range(6)]
    b = list(a)
    b[3] = DigestSnapshot(
        index=b[3].index,
        time=b[3].time,
        digests=(b[3].digests[0], _digest(1, "XXX")),
    )
    divergence = find_divergence(a, b)
    assert divergence is not None
    assert divergence.index == 3
    assert divergence.event_index == 3 * 64
    assert divergence.node == 1
    assert divergence.a.tip == "bbb"
    assert divergence.b.tip == "XXX"
    assert "node 1" in divergence.format()


def test_bisection_matches_linear_scan_for_every_split_point():
    length = 9
    for first_bad in range(length):
        a = [_snap(i * 64, "aaa", "bbb") for i in range(length)]
        b = [
            _snap(i * 64, "aaa", "bbb" if i < first_bad else "zzz")
            for i in range(length)
        ]
        linear = next(i for i in range(length) if a[i] != b[i])
        divergence = find_divergence(a, b)
        assert divergence is not None
        assert divergence.index == linear == first_bad
        assert divergence.node == 1


# -- injected nondeterminism, end to end --------------------------------------


def _digest_stream(config, stride=16):
    runtime = SanitizerRuntime((), digest_stride=stride)
    run_experiment(config, sanitizer=runtime)
    return runtime.digests


def test_injected_nondeterminism_is_bisected_to_event_and_node(monkeypatch):
    config = ExperimentConfig(protocol="bitcoin-ng", **CHECKED)
    clean = _digest_stream(config)
    assert len(clean) > 3
    assert find_divergence(clean, _digest_stream(config)) is None

    # Inject a race: from the third block on, a different miner wins.
    # Event timing is untouched, so the bisector must localize the
    # divergence through state digests, not timestamps.
    original = MiningScheduler._pick_winner
    wins = {"count": 0}

    def racy(self):
        wins["count"] += 1
        winner = original(self)
        if wins["count"] >= 3:
            winner = (winner + 1) % len(self._powers)
        return winner

    monkeypatch.setattr(MiningScheduler, "_pick_winner", racy)
    tampered = _digest_stream(config)

    divergence = find_divergence(clean, tampered)
    assert divergence is not None
    linear = next(
        i
        for i in range(min(len(clean), len(tampered)))
        if clean[i] != tampered[i]
    )
    assert divergence.index == linear
    assert divergence.node >= 0
    assert divergence.event_index == clean[linear].index
    assert divergence.a is not None and divergence.b is not None
    assert divergence.a != divergence.b
