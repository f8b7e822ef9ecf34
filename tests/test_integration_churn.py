"""Robustness integration tests: churn and partitions.

The paper claims Bitcoin-NG "is robust to extreme churn"; these tests
take nodes offline mid-run and verify the survivors keep consensus and
returning nodes catch up through gossip.
"""

from repro.bitcoin.blocks import make_genesis
from repro.bitcoin.node import BitcoinNode, BlockPolicy
from repro.core.genesis import make_ng_genesis
from repro.core.node import MicroblockPolicy, NGNode
from repro.core.params import NGParams
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

from .conftest import nothing_armed


def _bitcoin_cluster(n=5):
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(n), constant_histogram(0.05), 1e6)
    genesis = make_genesis()
    log = ObservationLog(n)
    nodes = [
        BitcoinNode(
            i, sim, net, genesis, log=log, policy=BlockPolicy(max_block_bytes=2000)
        )
        for i in range(n)
    ]
    return sim, net, nodes


def test_offline_node_catches_up_via_ancestor_backfill():
    sim, net, nodes = _bitcoin_cluster()
    nodes[0].generate_block()
    sim.run()
    net.set_offline(4)
    b2 = nodes[1].generate_block()
    sim.run()
    assert nodes[4].tip != b2.hash
    net.set_offline(4, offline=False)
    # The next block reaches node 4 as an orphan; the node requests the
    # missing parent from the sender and heals automatically.
    b3 = nodes[1].generate_block()
    sim.run()
    assert nodes[4].tip == b3.hash
    assert b2.hash in nodes[4].chain


def test_backfill_recovers_multi_block_gap():
    sim, net, nodes = _bitcoin_cluster()
    net.set_offline(4)
    missed = [nodes[0].generate_block() for _ in range(4)]
    sim.run()
    net.set_offline(4, offline=False)
    tip = nodes[1].generate_block()
    sim.run()
    # Recursive backfill walks the whole gap parent by parent.
    assert nodes[4].tip == tip.hash
    for block in missed:
        assert block.hash in nodes[4].chain


def test_majority_keeps_consensus_under_churn():
    sim, net, nodes = _bitcoin_cluster()
    for round_ in range(6):
        net.set_offline(4, offline=(round_ % 2 == 0))
        nodes[round_ % 3].generate_block()
        sim.run()
    net.set_offline(4, offline=False)
    tips = {nodes[i].tip for i in range(4)}
    assert len(tips) == 1


def test_offline_node_resyncs_via_tip_solicitation_without_new_block():
    # Regression: a node that was down across several blocks used to
    # stay behind until the *next* block happened to arrive as an
    # orphan.  request_tips() pulls peers' tips immediately; recursive
    # parent backfill then heals the whole gap with no new mining.
    sim, net, nodes = _bitcoin_cluster()
    net.set_offline(4)
    missed = [nodes[0].generate_block() for _ in range(3)]
    sim.run()
    net.set_online(4)
    assert nodes[4].tip != missed[-1].hash
    nodes[4].reset_relay_state()
    nodes[4].request_tips()
    sim.run()
    assert nodes[4].tip == missed[-1].hash
    for block in missed:
        assert block.hash in nodes[4].chain


def test_reset_relay_state_clears_stale_request_wedge():
    # Regression: if a node crashed while a getdata was outstanding,
    # the object id stayed in _requested, so fresh invs for exactly the
    # block it was missing were shelved as alternate sources until the
    # 120 s request timer expired.
    sim, net, nodes = _bitcoin_cluster()
    nodes[0].generate_block()
    sim.run()
    block = nodes[0].generate_block()
    # Let the inv and node 4's getdata go out, then kill the node before
    # the object arrives — the delivery is dropped by churn.
    sim.run(until=sim.now + 0.12)
    assert nodes[4].has_requested(block.hash)
    assert not nodes[4].knows(block.hash)
    net.set_offline(4)
    # Stay well inside the 120 s request timeout: the wedge is only
    # cleared by that timer, which is exactly the problem.
    sim.run(until=sim.now + 10.0)
    net.set_online(4)
    # Stale bookkeeping survives the outage...
    assert nodes[4].has_requested(block.hash)
    nodes[4].reset_relay_state()
    assert not nodes[4].has_requested(block.hash)
    assert nothing_armed(nodes[4])
    # ...and once cleared, the tip solicitation heals the node now
    # rather than after the request timeout.
    nodes[4].request_tips()
    sim.run()
    assert nodes[4].tip == block.hash


def test_gettip_from_fresh_node_is_harmless():
    # A gettip to a node whose best object is not in its relay store
    # (genesis only) is simply not answered.
    sim, net, nodes = _bitcoin_cluster()
    nodes[4].request_tips()
    sim.run()
    assert all(node.tip == nodes[0].tip for node in nodes)


def test_ng_leader_crash_epoch_ends_with_next_key_block():
    # "a benign leader that crashes during his epoch of leadership will
    # publish no microblocks.  Their influence ends once the next leader
    # publishes his key block."
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(4), constant_histogram(0.05), 1e6)
    params = NGParams(key_block_interval=50.0, min_microblock_interval=10.0)
    genesis = make_ng_genesis()
    log = ObservationLog(4)
    nodes = [
        NGNode(
            i, sim, net, genesis, params, log=log,
            policy=MicroblockPolicy(target_bytes=2000),
        )
        for i in range(4)
    ]
    nodes[0].generate_key_block()
    sim.run(until=15.0)
    # Leader 0 crashes.
    net.set_offline(0)
    count_at_crash = nodes[1].chain.tip_block.height
    sim.run(until=45.0)
    # No new microblocks reach anyone.
    assert nodes[1].chain.tip_block.height == count_at_crash
    # The next key block restores service.
    nodes[1].generate_key_block()
    sim.run(until=80.0)
    assert nodes[1].is_leader()
    assert nodes[1].microblocks_generated > 0
    assert nodes[2].chain.tip_block.height > count_at_crash


def test_ng_node_backfills_missed_epoch():
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(4), constant_histogram(0.05), 1e6)
    params = NGParams(key_block_interval=50.0, min_microblock_interval=10.0)
    genesis = make_ng_genesis()
    log = ObservationLog(4)
    nodes = [
        NGNode(
            i, sim, net, genesis, params, log=log,
            policy=MicroblockPolicy(target_bytes=2000),
        )
        for i in range(4)
    ]
    nodes[0].generate_key_block()
    sim.run(until=25.0)
    net.set_offline(3)
    sim.run(until=45.0)  # node 3 misses microblocks at t=30, 40
    net.set_offline(3, offline=False)
    sim.run(until=56.0)  # the t=50 microblock arrives as an orphan
    # Backfill walks the missed microblocks; all tips agree.
    assert len({node.tip for node in nodes}) == 1
    assert nodes[3].chain.tip_block.height == nodes[0].chain.tip_block.height
