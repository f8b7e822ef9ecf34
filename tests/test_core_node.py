"""The NG node: leadership, microblock generation, delivery."""

import pytest

import repro.core.node as node_mod
from repro.bitcoin.blocks import SyntheticPayload, TxPayload
from repro.core.blocks import KeyBlock, build_microblock
from repro.core.genesis import make_ng_genesis
from repro.core.node import KIND_KEY, KIND_MICRO, MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.metrics.collector import ObservationLog
from repro.crypto.hashing import hash160
from repro.crypto.keys import PrivateKey
from repro.ledger.transactions import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.net.gossip import StoredObject
from repro.net.latency import constant_histogram
from repro.net.network import Message, Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.sanitizer.digests import utxo_root

PARAMS = NGParams(key_block_interval=100.0, min_microblock_interval=10.0)
GENESIS = make_ng_genesis()


def _cluster(n=3, params=PARAMS, log=None, check_signatures=True, interval=None):
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(n), constant_histogram(0.05), 1e6)
    log = log or ObservationLog(n)
    nodes = [
        NGNode(
            i,
            sim,
            net,
            GENESIS,
            params,
            log=log,
            policy=MicroblockPolicy(target_bytes=4760),
            microblock_interval=interval,
            check_signatures=check_signatures,
        )
        for i in range(n)
    ]
    return sim, net, nodes


def test_ghost_fork_choice_selects_the_key_fork_rule():
    # Plain NG runs the heaviest key chain; the flag swaps in GHOST over
    # key blocks.  The two agree on most runs (one coin breaks a tie in
    # both), so only the tree type tells a swapped flag.
    from repro.core.chain import NGChain
    from repro.core.ghost_ng import GhostNGChain

    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.05), 1e6)
    for flag, tree in ((False, NGChain), (True, GhostNGChain)):
        node = NGNode(
            0, sim, net, GENESIS, PARAMS, log=ObservationLog(2),
            ghost_fork_choice=flag,
        )
        assert type(node.chain) is tree
        assert node.chain.rng is sim.rng


def test_key_block_propagates_and_elects_leader():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    sim.run(until=1.0)
    assert nodes[0].is_leader()
    for node in nodes:
        assert node.tip == key.hash
        assert node.chain.tip_block.leader_pubkey == nodes[0].pubkey_bytes


def test_leader_generates_microblocks_at_interval():
    sim, _, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=35.0)
    # Microblocks at t=10, 20, 30.
    assert nodes[0].microblocks_generated == 3
    for node in nodes:
        assert node.chain.tip_block.height == 4  # key + 3 micros


def test_non_leader_never_generates_microblocks():
    sim, _, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=50.0)
    assert nodes[1].microblocks_generated == 0
    assert nodes[2].microblocks_generated == 0


def test_leadership_transfers_on_new_key_block():
    sim, _, nodes = _cluster()
    nodes[0].generate_key_block()
    sim.run(until=25.0)
    nodes[1].generate_key_block()
    sim.run(until=26.0)
    assert not nodes[0].is_leader()
    assert nodes[1].is_leader()
    count_before = nodes[0].microblocks_generated
    sim.run(until=60.0)
    # The deposed leader generated nothing further.
    assert nodes[0].microblocks_generated == count_before
    assert nodes[1].microblocks_generated > 0


def test_microblocks_signed_and_verified():
    sim, _, nodes = _cluster(check_signatures=True)
    nodes[0].generate_key_block()
    sim.run(until=25.0)
    assert all(node.blocks_rejected == 0 for node in nodes)
    tip = nodes[1].chain.tip_block
    assert not tip.is_key
    assert tip.verify_signature(nodes[0].pubkey_bytes)


def test_observation_log_kinds():
    log = ObservationLog(3)
    sim, _, nodes = _cluster(log=log)
    nodes[0].generate_key_block()
    sim.run(until=25.0)
    kinds = {info.kind for info in log.index.all_blocks()}
    assert kinds == {KIND_KEY, KIND_MICRO}


def test_microblock_interval_respects_protocol_minimum():
    with pytest.raises(ValueError):
        _cluster(interval=5.0)  # below the 10 s protocol floor


def test_custom_interval_slower_than_minimum():
    sim, _, nodes = _cluster(interval=20.0)
    nodes[0].generate_key_block()
    sim.run(until=45.0)
    assert nodes[0].microblocks_generated == 2  # t=20, 40


def test_coinbase_pays_previous_leader_fee_share():
    params = NGParams(key_block_interval=100.0, min_microblock_interval=10.0)
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.05), 1e6)
    policy = MicroblockPolicy(
        target_bytes=4760, synthetic_fee_per_tx=100
    )
    log = ObservationLog(2)
    nodes = [
        NGNode(i, sim, net, GENESIS, params, log=log, policy=policy)
        for i in range(2)
    ]
    nodes[0].generate_key_block()
    sim.run(until=25.0)  # two microblocks, 10 tx each
    key2 = nodes[1].generate_key_block()
    # Previous epoch fees: 20 tx × 100 = 2000 → 40% = 800 to node 0.
    values = {out.pubkey_hash: out.value for out in key2.coinbase.outputs}
    assert values[nodes[0].pubkey_hash] == 800
    assert values[nodes[1].pubkey_hash] == params.key_block_reward + 1200


def test_equivocating_leader_poisoned_by_next():
    # A Byzantine node signs two microblocks on one parent; the next
    # leader publishes a poison for it.
    sim, _, nodes = _cluster()
    cheater = nodes[0]
    cheater.generate_key_block()
    sim.run(until=15.0)  # one legitimate microblock out
    # Forge a conflicting sibling by signing manually.
    from repro.bitcoin.blocks import SyntheticPayload
    from repro.core.blocks import build_microblock

    tip_parent = cheater.chain.tip_block.header.prev_hash
    fork = build_microblock(
        tip_parent,
        timestamp=10.0,
        payload=SyntheticPayload(n_tx=2, salt=b"evil"),
        leader_key=cheater.key,
    )
    cheater.announce(fork.hash, KIND_MICRO, fork, fork.size)
    sim.run(until=16.0)
    assert any(len(node.chain.equivocations()) > 0 for node in nodes)
    # The next leader claims the bounty.
    nodes[1].generate_key_block()
    sim.run(until=40.0)
    assert len(nodes[1].poisons_published) == 1
    assert (
        nodes[1].poisons_published[0].offender_pubkey == cheater.pubkey_bytes
    )


class _RecordingTracer:
    def __init__(self):
        self.events = []

    def emit(self, name, t, **fields):
        self.events.append(name)

    def block_arrival(self, t, node, hash, kind):
        self.events.append("block_arrival")

    def tip_change(self, t, node, tip, height):
        self.events.append("tip_change")


def test_mined_key_blocks_are_counted():
    sim, _, nodes = _cluster()
    nodes[0].generate_key_block()
    assert nodes[0].key_blocks_mined == 1


def test_tampered_key_block_from_peer_rejected_and_counted():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    # Same header, different coinbase: the payload-root commitment no
    # longer matches, so structural validation must veto the relay.
    tampered = KeyBlock(header=key.header, coinbase=GENESIS.coinbase)
    assert nodes[1]._receive(tampered, KIND_KEY, sender=0) is False
    assert nodes[1].blocks_rejected == 1
    assert tampered.hash not in nodes[1].chain


def test_oversized_microblock_from_peer_rejected_and_counted():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    sim.run(until=1.0)
    big = build_microblock(
        key.hash,
        11.0,
        SyntheticPayload(n_tx=1000, salt=b"big"),
        nodes[0].key,
    )
    assert big.size > PARAMS.max_microblock_bytes
    assert nodes[1]._receive(big, KIND_MICRO, sender=0) is False
    assert nodes[1].blocks_rejected == 1
    assert big.hash not in nodes[1].chain


def test_wrongly_signed_microblock_rejected_at_the_chain_layer():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    sim.run(until=1.0)
    forged = build_microblock(
        key.hash, 11.0, SyntheticPayload(n_tx=1, salt=b"f"), nodes[1].key
    )
    assert nodes[2]._receive(forged, KIND_MICRO, sender=1) is False
    assert nodes[2].blocks_rejected == 1


def test_block_arrival_traced_only_for_relayed_blocks():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    tracer = _RecordingTracer()
    nodes[1].log.tracer = tracer
    nodes[1]._receive(key, KIND_KEY, sender=0)
    assert tracer.events.count("block_arrival") == 1
    # Self-generated objects (sender None) are not arrivals.
    tracer2 = _RecordingTracer()
    nodes[2].log.tracer = tracer2
    nodes[2]._receive(key, KIND_KEY, sender=None)
    assert tracer2.events.count("block_arrival") == 0


def test_microblock_arrival_traced_only_for_relayed_blocks():
    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    sim.run(until=1.0)
    micro = build_microblock(
        key.hash, 11.0, SyntheticPayload(n_tx=1, salt=b"t"), nodes[0].key
    )
    tracer = _RecordingTracer()
    nodes[1].log.tracer = tracer
    nodes[1]._receive(micro, KIND_MICRO, sender=0)
    assert tracer.events.count("block_arrival") == 1
    tracer2 = _RecordingTracer()
    nodes[2].log.tracer = tracer2
    nodes[2]._receive(micro, KIND_MICRO, sender=None)
    assert tracer2.events.count("block_arrival") == 0


def test_deliver_routes_tx_objects_to_admission(monkeypatch):
    sim, _, nodes = _cluster()
    admitted = []
    monkeypatch.setattr(
        nodes[1], "_accept_relayed_transaction", admitted.append
    )
    obj = StoredObject(obj_id=b"\x01" * 32, kind="tx", data="tx-1", size=1)
    assert nodes[1].deliver(obj, sender=0) is None
    assert admitted == ["tx-1"]
    # Locally submitted transactions were already admitted by
    # submit_transaction; the self-delivery must not re-admit.
    assert nodes[1].deliver(obj, sender=None) is None
    assert admitted == ["tx-1"]
    junk = StoredObject(obj_id=b"\x02" * 32, kind="junk", data=None, size=1)
    assert nodes[1].deliver(junk, sender=0) is False


def test_abdicate_clears_leadership_and_tolerates_non_leaders():
    sim, _, nodes = _cluster()
    nodes[1].abdicate()  # never led: a no-op, not an error
    nodes[0].generate_key_block()
    assert nodes[0].is_leader()
    nodes[0].abdicate()
    assert not nodes[0].is_leader()
    sim.run(until=35.0)
    assert nodes[0].microblocks_generated == 0


def test_tx_admission_validates_at_the_next_height(monkeypatch):
    sim, _, nodes = _cluster()
    heights = []

    def fake_validate(tx, utxo, height, check_signatures=True):
        heights.append(height)
        return 0

    monkeypatch.setattr(node_mod, "validate_spend", fake_validate)
    tx_a = Transaction(inputs=(), outputs=(TxOutput(1, bytes(20)),))
    tx_b = Transaction(inputs=(), outputs=(TxOutput(2, bytes(20)),))
    nodes[0].submit_transaction(tx_a)
    nodes[0]._accept_relayed_transaction(tx_b)
    # A transaction admitted now can first appear in the *next* block.
    assert heights == [1, 1]


def test_connect_and_disconnect_roundtrip_for_tx_microblocks():
    sim, _, nodes = _cluster()
    node = nodes[0]
    owner = PrivateKey.from_seed("roundtrip-owner")
    pkh = hash160(owner.public_key().to_bytes())
    outpoint = OutPoint(b"\xee" * 32, 0)
    node.utxo.credit(TxOutput(100, pkh), outpoint, height=0)
    key = node.generate_key_block()
    assert node.tip == key.hash
    tx = Transaction(
        inputs=(TxInput(outpoint),), outputs=(TxOutput(90, bytes(20)),)
    ).sign_input(0, owner)
    micro = build_microblock(key.hash, 10.0, TxPayload((tx,)), node.key)
    node._receive(micro, KIND_MICRO, sender=None)
    assert node.tip == micro.hash
    assert node._fees_by_micro[micro.hash] == 10
    assert outpoint not in node.utxo
    node._disconnect_block(micro)
    # The undo restores the spent coin and the entries return to the
    # mempool for re-placement.
    assert outpoint in node.utxo
    assert tx.txid in node.mempool


def test_invalid_poison_is_skipped_but_any_other_failure_surfaces(monkeypatch):
    from repro.core.poison import InvalidPoison

    sim, _, nodes = _cluster()
    cheater = nodes[0]
    cheater.generate_key_block()
    sim.run(until=15.0)
    fork = build_microblock(
        cheater.chain.tip_block.header.prev_hash,
        timestamp=10.0,
        payload=SyntheticPayload(n_tx=2, salt=b"evil"),
        leader_key=cheater.key,
    )
    cheater.announce(fork.hash, KIND_MICRO, fork, fork.size)
    sim.run(until=16.0)
    reporter = nodes[1]
    assert reporter.chain.equivocations()

    def refuse(chain, poison, placement_key_height):
        raise InvalidPoison("poison placed before the subsequent key block")

    monkeypatch.setattr(reporter.poison_registry, "register", refuse)
    reporter._publish_poisons()  # an unplaceable poison is just not published
    assert reporter.poisons_published == []

    def broken(chain, poison, placement_key_height):
        raise RuntimeError("registry bug")

    monkeypatch.setattr(reporter.poison_registry, "register", broken)
    with pytest.raises(RuntimeError, match="registry bug"):
        reporter._publish_poisons()


def test_receivers_reject_one_faulty_block_object_for_the_cost_of_one_check(
    monkeypatch, count_calls
):
    import repro.core.blocks as blocks_mod
    from repro.core.blocks import InvalidNGBlock, Microblock

    sim, _, nodes = _cluster()
    key = nodes[0].generate_key_block()
    sim.run(until=1.0)
    bad_key_block = KeyBlock(header=key.header, coinbase=GENESIS.coinbase)
    good_micro = build_microblock(
        key.hash, 11.0, SyntheticPayload(n_tx=1, salt=b"ok"), nodes[0].key
    )
    bad_micro = Microblock(
        good_micro.header,
        good_micro.signature,
        SyntheticPayload(n_tx=2, salt=b"swapped"),
    )

    verdicts = []
    for name in ("check_key_block", "check_microblock_structure"):
        real = getattr(node_mod, name)

        def recording(*args, _real=real, **kwargs):
            try:
                _real(*args, **kwargs)
            except InvalidNGBlock as exc:
                verdicts.append(str(exc))
                raise

        monkeypatch.setattr(node_mod, name, recording)
    hashed = count_calls(blocks_mod, "sha256d")
    roots = count_calls(SyntheticPayload, "root")

    for receiver in nodes[1:]:
        assert receiver._receive(bad_key_block, KIND_KEY, sender=0) is False
        assert receiver._receive(bad_micro, KIND_MICRO, sender=0) is False
        assert receiver.blocks_rejected == 2
    assert verdicts == [
        "coinbase commitment mismatch",
        "entries root does not match payload",
    ] * 2
    assert len(hashed) == 1 and roots == [(bad_micro.payload,)]


# -- a leader's microblock whose spends do not connect ------------------------


def _object_message(micro):
    stored = StoredObject(micro.hash, KIND_MICRO, micro, micro.size)
    return Message("object", stored, micro.size)


def _phantom_spend(owner):
    return Transaction(
        inputs=(TxInput(OutPoint(b"\xdd" * 32, 0)),),
        outputs=(TxOutput(1, bytes(20)),),
    ).sign_input(0, owner)


def test_signed_microblock_spending_an_unknown_coin_is_refused_not_a_crash():
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(3), constant_histogram(0.05), 1e6)
    policy = MicroblockPolicy(target_bytes=4760, synthetic=False)
    log = ObservationLog(3)
    nodes = [
        NGNode(i, sim, net, GENESIS, PARAMS, log=log, policy=policy)
        for i in range(3)
    ]
    leader, node = nodes[0], nodes[1]
    key = leader.generate_key_block()
    sim.run(until=1.0)
    root_before = utxo_root(node.utxo)
    # Validly signed by the epoch's leader, structurally sound — only
    # the ledger can tell that the coin it spends does not exist.
    owner = PrivateKey.from_seed("nobody")
    bad = build_microblock(key.hash, 10.0, TxPayload((_phantom_spend(owner),)), leader.key)
    node.on_message(0, _object_message(bad))  # used to raise InvalidNGBlock
    sim.run(until=5.0)
    assert node.blocks_rejected == 1
    assert bad.hash not in node.chain
    assert node.tip == key.hash and node.chain.tip_block.is_key
    assert utxo_root(node.utxo) == root_before
    assert bad.hash not in node._fees_by_micro
    assert node.misbehavior == {0: node.invalid_object_penalty}
    assert not node.knows(bad.hash) and not nodes[2].knows(bad.hash)
    node.chain.assert_consistent()
    # The honest node outlives the leader's bad microblock: the epoch's
    # next (valid) microblock extends the key block as if nothing was sent.
    good = build_microblock(
        key.hash, 10.0, SyntheticPayload(n_tx=1, salt=b"ok"), leader.key
    )
    assert node._receive(good, KIND_MICRO, sender=0) is None
    assert node.tip == good.hash


def test_connect_records_what_a_microblock_paid_and_nothing_for_the_rest():
    sim, _, nodes = _cluster()
    node = nodes[0]
    owner = PrivateKey.from_seed("fee-owner")
    pkh = hash160(owner.public_key().to_bytes())
    paying, free = OutPoint(b"\xee" * 32, 0), OutPoint(b"\xee" * 32, 1)
    node.utxo.credit(TxOutput(100, pkh), paying, height=0)
    node.utxo.credit(TxOutput(100, pkh), free, height=0)
    key = node.generate_key_block()

    def spend(outpoint, value):
        return Transaction(
            inputs=(TxInput(outpoint),), outputs=(TxOutput(value, bytes(20)),)
        ).sign_input(0, owner)

    m1 = build_microblock(key.hash, 10.0, TxPayload((spend(paying, 93),)), node.key)
    m2 = build_microblock(m1.hash, 20.0, TxPayload((spend(free, 100),)), node.key)
    m3 = build_microblock(m2.hash, 30.0, SyntheticPayload(n_tx=1, salt=b"s"), node.key)
    for micro in (m1, m2, m3):
        node._receive(micro, KIND_MICRO, sender=None)
    assert node.tip == m3.hash
    # Only a microblock that paid something is on record; every reader
    # takes a missing entry as zero.
    assert node._fees_by_micro == {m1.hash: 7}
    assert node._epoch_fees_behind(m3.hash) == 7
