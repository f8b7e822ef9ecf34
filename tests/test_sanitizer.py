"""The sanitizer: invariant checkers and end-of-run state fingerprints.

Three layers of coverage:

* hand-built violating states — each broken invariant trips exactly its
  own INV code and nothing else;
* the runtime — stride sweeps, per-``(code, node)`` dedupe, trace
  emission, and clean end-to-end checked runs for all three protocols;
* state fingerprints — two same-seed runs fingerprint equal, and
  deliberately injected nondeterminism changes the fingerprint.
"""

from types import SimpleNamespace

import pytest

from repro.bitcoin.blocks import SyntheticPayload
from repro.bitcoin.chain import BlockTree
from repro.bitcoin.node import ChainNode
from repro.core.blocks import build_key_block, build_microblock
from repro.core.chain import NGChain
from repro.core.genesis import make_ng_genesis
from repro.core.node import NGNode
from repro.core.params import NGParams
from repro.core.remuneration import build_ng_coinbase, split_fee
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.experiments import ExperimentConfig, run_experiment
from repro.ledger.mempool import Mempool
from repro.ledger.transactions import OutPoint, TxOutput, make_coinbase
from repro.ledger.utxo import UtxoSet
from repro.mining.scheduler import MiningScheduler
from repro.protocols import Protocol
from repro.sanitizer import (
    SanitizerRuntime,
    ng_checkers,
    node_digest,
    sanitizer_for,
    state_fingerprint,
)
from repro.sanitizer.checkers import TipMonotonicity

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
    blocks = []
    cursor = chain.tip_block
    while cursor is not None:
        blocks.append(cursor)
        cursor = chain.get(cursor.header.prev_hash)
    violations = []
    for block in reversed(blocks):
        for checker in checkers:
            violations.extend(checker.check_block(node, 0, block, 99.0))
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
    chain = NGChain(GENESIS, PARAMS)
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


def test_wrong_key_microblock_trips_only_inv104():
    chain = NGChain(GENESIS, PARAMS)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    forged = _micro(key1.hash, BOB, 20.0)
    chain.add_block(forged, 20.0, check_signature=False)
    assert _codes(_sweep(_node(chain))) == {"INV104"}


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


@pytest.mark.parametrize("protocol", [p.value for p in Protocol])
def test_checked_run_is_clean(protocol):
    """A clean run, and the typed sanitizer's precondition: every node
    the adapter builds is a ``ChainNode`` over a ``BlockTree`` (an
    ``NGNode`` under NG), which ``install`` and ``state_fingerprint``
    read with no fallback."""
    config = ExperimentConfig(
        protocol=protocol, check=True, check_stride=32, **CHECKED
    )
    runtime = sanitizer_for(config)
    result, _log = run_experiment(config, sanitizer=runtime)
    assert len(result.violations) == 0
    assert result.violations == ()
    node_type = NGNode if config.protocol is Protocol.BITCOIN_NG else ChainNode
    assert len(runtime.nodes) == config.n_nodes
    for node in runtime.nodes:
        assert isinstance(node, node_type)
        assert isinstance(node.chain, BlockTree)
    tips, state = state_fingerprint(runtime.nodes)
    assert tips and len(state) == 16


# -- injected nondeterminism, end to end --------------------------------------


def _final_fingerprint(config):
    runtime = SanitizerRuntime(())
    run_experiment(config, sanitizer=runtime)
    runtime.finalize()
    return state_fingerprint(runtime.nodes)


def test_injected_nondeterminism_changes_the_state_fingerprint(monkeypatch):
    config = ExperimentConfig(protocol="bitcoin-ng", **CHECKED)
    clean = _final_fingerprint(config)
    assert clean == _final_fingerprint(config)

    # Inject a race: from the third block on, a different miner wins.
    # Event timing is untouched, so only the node state can tell.
    original = MiningScheduler._pick_winner
    wins = {"count": 0}

    def racy(self):
        wins["count"] += 1
        winner = original(self)
        if wins["count"] >= 3:
            winner = (winner + 1) % len(self._powers)
        return winner

    monkeypatch.setattr(MiningScheduler, "_pick_winner", racy)
    assert _final_fingerprint(config) != clean
