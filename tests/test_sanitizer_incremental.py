"""The incremental sanitizer: dirty tracking, the signature cache, audits.

Four layers of coverage:

* every hand-built violating state from ``tests/test_sanitizer.py`` is
  caught by the runtime's sweep (a node is swept when its tip moved,
  through the shared signature cache), including INV109's cross-sweep
  rollback;
* the :class:`~repro.sanitizer.checkers.SignatureCache` — exactly-once
  verification, negative-verdict caching, and the reorg story: a
  microblock re-judged under a different epoch leader is a different
  cache key, never a stale verdict;
* the audit machinery — ``mode="audit"`` cross-checks the sweep with
  from-scratch walks by independent replica checkers and surfaces
  anything missed as a ``SAN901`` audit-divergence alongside the
  finding itself;
* :func:`~repro.sanitizer.runtime.sanitizer_for` (config → runtime) and
  the end-to-end equivalences: incremental ≡ audit checked runs, both
  bit-identical to bare runs, with the leader-crash scenario clean
  under incremental checking.
"""

from types import SimpleNamespace

import pytest

from repro.bitcoin.blocks import SyntheticPayload
from repro.core.blocks import build_key_block, build_microblock
from repro.core.chain import NGChain
from repro.core.genesis import make_ng_genesis
from repro.core.params import NGParams
from repro.core.remuneration import build_ng_coinbase, split_fee
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey, PublicKey
from repro.experiments import (
    ExperimentConfig,
    resolve_check_mode,
    run_experiment,
)
from repro.ledger.mempool import Mempool
from repro.ledger.transactions import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
)
from repro.ledger.utxo import UtxoSet
from repro.protocols import get_adapter
from repro.sanitizer import (
    InvariantChecker,
    SanitizerRuntime,
    SignatureCache,
    ng_checkers,
    sanitizer_for,
)
from repro.sanitizer.checkers import (
    MicroblockSignature,
    shared_signature_cache,
)
from repro.scenarios import load_scenario

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


def _incremental_codes(node, mode="incremental", sweeps=1):
    """Sweep one node through a fresh incremental runtime; return codes."""
    sim = _FakeSim()
    runtime = SanitizerRuntime(ng_checkers(), stride=1, mode=mode)
    runtime.install(sim, [node])
    for _ in range(sweeps):
        sim.probe()
    runtime.finalize()
    return {violation.code for violation in runtime.violations}


def _epoch_chain(coinbase2=None):
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


# -- every violation fixture, through the sweep -------------------------------


def _fixture_inflating_coinbase():
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
    return _node(_epoch_chain(coinbase)), "INV101"


def _fixture_overpaying_fee_split():
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
    return _node(_epoch_chain(coinbase)), "INV102"


def _fixture_forged_microblock():
    chain = NGChain(GENESIS, PARAMS)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    chain.add_block(_micro(key1.hash, BOB, 20.0), 20.0, check_signature=False)
    return _node(chain), "INV104"


FIXTURES = [
    _fixture_inflating_coinbase,
    _fixture_overpaying_fee_split,
    _fixture_forged_microblock,
]


@pytest.mark.parametrize(
    "fixture", FIXTURES, ids=[f.__name__.removeprefix("_fixture_") for f in FIXTURES]
)
def test_every_violation_fixture_caught_incrementally(fixture):
    node, expected = fixture()
    assert _incremental_codes(node) == {expected}


@pytest.mark.parametrize(
    "fixture", FIXTURES, ids=[f.__name__.removeprefix("_fixture_") for f in FIXTURES]
)
def test_every_violation_fixture_caught_in_audit_mode(fixture):
    node, expected = fixture()
    # Audit mode must catch the same violations — and, since the
    # incremental path already reported them, file no SAN901.
    assert _incremental_codes(node, mode="audit", sweeps=2) == {expected}


def test_rollback_between_sweeps_trips_inv109_incrementally():
    long_chain = NGChain(GENESIS, PARAMS)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    long_chain.add_block(key1, 10.0)
    key2 = _key(key1.hash, BOB, 30.0, miner=2)
    long_chain.add_block(key2, 30.0)
    short_chain = NGChain(GENESIS, PARAMS)
    short_chain.add_block(key1, 10.0)

    sim = _FakeSim()
    node = _node(long_chain)
    runtime = SanitizerRuntime(ng_checkers(), stride=1, mode="incremental")
    runtime.install(sim, [node])
    sim.probe()
    assert runtime.violations == []
    node.chain = short_chain  # a rollback no fork-choice rule allows
    sim.probe()  # tip hash changed -> chain dirty -> INV109 re-checked
    assert {v.code for v in runtime.violations} == {"INV109"}


def test_incremental_skips_provably_clean_nodes():
    calls = []

    class Counting(InvariantChecker):
        code = "INV998"

        def check_state(self, node, node_id, now):
            calls.append(node_id)
            return []

    sim = _FakeSim()
    node = _node(_epoch_chain())
    runtime = SanitizerRuntime([Counting()], stride=1, mode="incremental")
    runtime.install(sim, [node])
    sim.probe()  # first sweep: everything dirty
    assert calls == [0]
    sim.probe()
    sim.probe()  # tip did not move: clean, state check skipped
    assert calls == [0]
    node.chain.add_block(
        _key(node.chain.tip, ALICE, 130.0, miner=3), 130.0
    )
    sim.probe()  # tip moved -> dirty -> re-checked
    assert calls == [0, 0]


def test_audit_stride_one_rechecks_every_sweep():
    """The audit replica is the never-skipping reference: with
    ``audit_stride=1`` it re-runs the state check on every sweep, while
    the live checker runs only when the node's tip moved."""
    calls = []

    class Counting(InvariantChecker):
        code = "INV998"

        def check_state(self, node, node_id, now):
            calls.append(self)
            return []

    live = Counting()
    sim = _FakeSim()
    runtime = SanitizerRuntime([live], stride=1, mode="audit", audit_stride=1)
    runtime.install(sim, [_node(_epoch_chain())])
    sim.probe()
    sim.probe()
    sim.probe()
    assert runtime.audits == 3
    assert [checker is live for checker in calls] == [
        True, False, False, False,
    ]
    assert len({id(checker) for checker in calls}) == 2  # one replica, reused


# -- the signature cache ------------------------------------------------------


def test_cache_verifies_each_pair_exactly_once():
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    micro = _micro(key1.hash, ALICE, 20.0)
    cache = SignatureCache()
    leader = ALICE.public_key().to_bytes()
    assert cache.verify(micro, leader) is True
    assert cache.verify(micro, leader) is True
    assert (cache.misses, cache.hits, len(cache)) == (1, 1, 1)


def test_cache_stores_negative_verdicts():
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    forged = _micro(key1.hash, BOB, 20.0)  # signed by BOB, not ALICE
    cache = SignatureCache()
    leader = ALICE.public_key().to_bytes()
    assert cache.verify(forged, leader) is False
    assert cache.verify(forged, leader) is False
    assert (cache.misses, cache.hits) == (1, 1)


def test_reorg_to_new_leader_is_a_fresh_verification_not_a_stale_serve():
    # The reorg story: a microblock signed by ALICE is valid while the
    # chain says ALICE leads its epoch.  After a reorg that puts BOB's
    # key block in front, INV104 looks the same microblock up under
    # BOB's key — a *different* cache key, so the cached True verdict
    # for ALICE is unused (not stale-served) and the new pair verifies
    # fresh to False.
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    micro = _micro(key1.hash, ALICE, 20.0)
    cache = SignatureCache()
    alice_pub = ALICE.public_key().to_bytes()
    bob_pub = BOB.public_key().to_bytes()
    assert cache.verify(micro, alice_pub) is True
    assert cache.verify(micro, bob_pub) is False
    assert cache.misses == 2  # second lookup was NOT a cache hit
    assert cache.hits == 0
    assert len(cache) == 2
    # Reorg back: the original verdict is still there and still right.
    assert cache.verify(micro, alice_pub) is True
    assert cache.hits == 1


def test_cache_key_includes_the_signature_itself():
    # The microblock header hash deliberately excludes the signature, so
    # two blocks with identical headers but different signature bytes
    # must occupy distinct cache entries.
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    micro = _micro(key1.hash, ALICE, 20.0)
    tampered = SimpleNamespace(
        hash=micro.hash,
        signature=b"\x00" * 64,
        verify_signature=lambda pub: False,
    )
    cache = SignatureCache()
    leader = ALICE.public_key().to_bytes()
    assert cache.verify(micro, leader) is True
    assert cache.verify(tampered, leader) is False
    assert len(cache) == 2


def test_cache_bounds_its_size_by_clearing():
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    cache = SignatureCache(max_entries=2)
    leader = ALICE.public_key().to_bytes()
    micros = [_micro(key1.hash, ALICE, 20.0 + i, salt=bytes([i])) for i in range(3)]
    for micro in micros:
        cache.verify(micro, leader)
    assert len(cache) == 1  # full at 2, cleared, third re-inserted
    assert cache.misses == 3


def test_invalid_factory_mode_is_rejected():
    # The factories select nothing any more: any mode argument is refused.
    with pytest.raises(TypeError):
        ng_checkers("incremental")
    with pytest.raises(TypeError):
        get_adapter("bitcoin-ng").invariant_checkers(mode="incremental")
    for mode in ("bogus", "full"):
        with pytest.raises(ValueError, match="unknown sanitizer mode"):
            SanitizerRuntime((), mode=mode)


def test_live_inv104_shares_the_cache_and_the_audit_replica_does_not():
    live = [c for c in ng_checkers() if isinstance(c, MicroblockSignature)]
    assert live[0].cache is shared_signature_cache()
    runtime = SanitizerRuntime(ng_checkers(), mode="audit")
    replicas = [
        c for c in runtime._audit_replicas()
        if isinstance(c, MicroblockSignature)
    ]
    assert len(runtime._audit_replicas()) == len(runtime.checkers)
    # No SignatureCache of any kind: the replica asks the block itself.
    assert replicas[0].cache is None


# -- the audit ----------------------------------------------------------------


class _Buggy(InvariantChecker):
    """Breaks the sweep's contract: reads the mempool, whose changes
    leave the tip alone, so the incremental path never re-checks it."""

    code = "INV999"
    name = "buggy"

    def check_state(self, node, node_id, now):
        from repro.sanitizer.violations import make_violation

        if len(node.mempool):
            return [make_violation(self, node_id, now, "pool not empty")]
        return []


def test_audit_surfaces_what_the_incremental_path_missed():
    sim = _FakeSim()
    node = _node(_epoch_chain())
    runtime = SanitizerRuntime(
        [_Buggy()], stride=1, mode="audit", audit_stride=1
    )
    runtime.install(sim, [node])
    sim.probe()  # clean node: nothing to find anywhere
    assert runtime.violations == []
    node.mempool.add(
        Transaction(
            inputs=(TxInput(OutPoint(b"\x04" * 32, 0)),),
            outputs=(TxOutput(1_000, PKH),),
        ),
        fee=100,
    )
    sim.probe()  # pool changed, tip did not: skipped...
    # ...and the same sweep's audit catches it from scratch.
    codes = [v.code for v in runtime.violations]
    assert codes == ["INV999", "SAN901"]
    marker = runtime.violations[1]
    assert dict(marker.snapshot)["missed_code"] == "INV999"
    assert runtime.audits >= 1


def _unjudged_micro_node(signer):
    """key block by ALICE + one microblock the chain did not verify."""
    chain = NGChain(GENESIS, PARAMS)
    key1 = _key(GENESIS.hash, ALICE, 10.0)
    chain.add_block(key1, 10.0)
    micro = _micro(key1.hash, signer, 20.0)
    chain.add_block(micro, 20.0, check_signature=False)
    return _node(chain), micro


def test_repeat_audits_verify_each_microblock_once(count_calls):
    """The replica has no cache, yet N audits cost one ECDSA verify per
    (microblock, leader key): the block memoises its own verdict."""
    node, _ = _unjudged_micro_node(ALICE)
    verifies = count_calls(PublicKey, "verify")
    sim = _FakeSim()
    runtime = SanitizerRuntime(
        [MicroblockSignature(cache=SignatureCache())],
        stride=1, mode="audit", audit_stride=1,
    )
    runtime.install(sim, [node])
    for _ in range(4):
        sim.probe()
    runtime.finalize()
    assert runtime.audits >= 5
    assert runtime.violations == []
    assert len(verifies) == 1


def test_audit_reports_a_forgery_the_live_cache_vouched_for():
    """A wrong verdict in the live checker's cache cannot reach the
    audit: its replica consults no cache and reports the forgery."""
    node, forged = _unjudged_micro_node(BOB)
    lying = SignatureCache()
    leader = ALICE.public_key().to_bytes()
    lying._verdicts[(leader, forged.hash, forged.signature)] = True
    sim = _FakeSim()
    runtime = SanitizerRuntime(
        [MicroblockSignature(cache=lying)],
        stride=1, mode="audit", audit_stride=1,
    )
    runtime.install(sim, [node])
    sim.probe()
    assert [v.code for v in runtime.violations] == ["INV104", "SAN901"]


def test_audit_is_silent_when_incremental_found_everything():
    node, expected = _fixture_forged_microblock()
    codes = _incremental_codes(node, mode="audit", sweeps=3)
    assert codes == {expected}  # no SAN901


def test_incremental_mode_never_audits():
    sim = _FakeSim()
    runtime = SanitizerRuntime(ng_checkers(), stride=1, mode="incremental")
    runtime.install(sim, [_node(_epoch_chain())])
    for _ in range(50):
        sim.probe()
    runtime.finalize()
    assert runtime.audits == 0


# -- sanitizer_for: the runtime a config asks for -----------------------------


def test_sanitizer_for_unchecked_builds_no_sanitizer():
    assert sanitizer_for(ExperimentConfig(protocol="bitcoin-ng")) is None


def test_sanitizer_for_builds_runtime_in_requested_mode():
    for mode in ("incremental", "audit"):
        config = ExperimentConfig(
            protocol="bitcoin-ng", check=True, check_mode=mode, check_stride=32
        )
        runtime = sanitizer_for(config)
        assert runtime.mode == mode
        assert runtime.stride == 32
        assert len(runtime.checkers) == len(ng_checkers())


def test_resolve_check_mode_resolution_order():
    assert resolve_check_mode(None, "") is None
    assert resolve_check_mode(None, "0") is None
    assert resolve_check_mode(None, "1") == "incremental"
    assert resolve_check_mode(None, "incremental") == "incremental"
    assert resolve_check_mode(None, "audit") == "audit"
    assert resolve_check_mode("incremental", "audit") == "incremental"  # flag wins
    assert resolve_check_mode("audit", "") == "audit"


@pytest.mark.parametrize("value", ["audti", "full", "true", "2"])
def test_resolve_check_mode_rejects_unknown_env_values(value):
    # A typo (or the retired ``full``) must not silently run the
    # default, weaker-than-asked-for incremental mode.
    with pytest.raises(ValueError, match="incremental, audit"):
        resolve_check_mode(None, value)


def test_config_rejects_unknown_check_mode():
    for mode in ("bogus", "full"):
        with pytest.raises(ValueError, match="check_mode"):
            ExperimentConfig(check_mode=mode)


# -- end-to-end equivalence ---------------------------------------------------

CHECKED = dict(
    n_nodes=10,
    target_blocks=10,
    target_key_blocks=4,
    block_rate=0.2,
    block_size_bytes=5_000,
    key_block_rate=0.05,
    cooldown=10.0,
    seed=11,
    protocol="bitcoin-ng",
)


def test_checked_modes_are_bit_identical_to_bare():
    bare, _ = run_experiment(ExperimentConfig(**CHECKED))
    reference = None
    for mode in ("incremental", "audit"):
        config = ExperimentConfig(
            check=True, check_mode=mode, check_stride=32, **CHECKED
        )
        result, _log = run_experiment(config)
        assert result.violations == ()
        assert result.as_row() == bare.as_row(), mode
        assert result.blocks_generated == bare.blocks_generated, mode
        assert result.events_processed == bare.events_processed, mode
        assert result.messages_delivered == bare.messages_delivered, mode
        if reference is None:
            reference = result
        else:
            assert result.as_row() == reference.as_row(), mode


def test_leader_crash_scenario_clean_under_incremental_check():
    scenario = load_scenario("examples/leader_crash.json")
    config = ExperimentConfig(
        protocol="bitcoin-ng",
        n_nodes=10,
        target_blocks=50,
        target_key_blocks=6,
        block_rate=0.2,
        block_size_bytes=5_000,
        key_block_rate=0.05,
        cooldown=10.0,
        seed=11,
        check=True,
        check_mode="incremental",
        check_stride=32,
        scenario=scenario,
    )
    result, _log = run_experiment(config)
    assert result.faults_injected >= 1  # the crash actually fired
    assert result.violations == ()


def test_state_checks_follow_an_independent_poll_of_moved_tips(monkeypatch):
    """On a checked NG run every sweep calls the state checkers on
    exactly the nodes whose tip hash moved since the last sweep, as a
    poll of ``node.chain.tip`` taken here finds them, and a
    sweep in which no tip moved calls no checker."""
    checked = []

    class Counting(InvariantChecker):
        code = "INV997"

        def check_state(self, node, node_id, now):
            checked.append(node_id)
            return []

    last_tips = {}
    sweeps = []
    sweep = SanitizerRuntime._sweep_incremental

    def polled_sweep(runtime):
        moved = []
        for node in runtime.nodes:
            tip = node.chain.tip
            if last_tips.get(node.node_id) != tip:
                last_tips[node.node_id] = tip
                moved.append(node.node_id)
        before = len(checked)
        sweep(runtime)
        sweeps.append((moved, checked[before:]))

    monkeypatch.setattr(SanitizerRuntime, "_sweep_incremental", polled_sweep)
    config = ExperimentConfig(check=True, check_stride=1, **CHECKED)
    runtime = SanitizerRuntime(
        [*get_adapter(config.protocol).invariant_checkers(), Counting()],
        stride=config.check_stride,
    )
    result, _log = run_experiment(config, sanitizer=runtime)
    assert result.violations == ()
    assert len(sweeps) == runtime.sweeps
    for moved, calls in sweeps:
        assert calls == moved
    quiet = sum(not moved for moved, _ in sweeps)
    assert 0 < quiet < len(sweeps)
    assert len(checked) == sum(len(moved) for moved, _ in sweeps)
