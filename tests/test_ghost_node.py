"""GHOST nodes over the simulated network."""

from repro.bitcoin.blocks import make_genesis
from repro.bitcoin.node import BlockPolicy
from repro.ghost.node import GhostNode
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

GENESIS = make_genesis()


def _cluster(n=3, log=None):
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(n), constant_histogram(0.05), 1e6)
    nodes = [
        GhostNode(i, sim, net, GENESIS, log=log, policy=BlockPolicy(max_block_bytes=5000))
        for i in range(n)
    ]
    return sim, nodes


def test_block_propagates():
    sim, nodes = _cluster()
    block = nodes[0].generate_block()
    sim.run()
    assert all(node.tip == block.hash for node in nodes)


def test_one_miner_extends_its_own_block():
    sim, nodes = _cluster()
    first = nodes[0].generate_block()
    second = nodes[0].generate_block()
    sim.run()
    assert second.header.prev_hash == first.hash
    assert all(node.tip == second.hash for node in nodes)
    assert [node.blocks_mined for node in nodes] == [2, 0, 0]


def test_fork_resolution_by_subtree():
    sim, nodes = _cluster()
    a = nodes[0].generate_block()
    b = nodes[1].generate_block()
    sim.run()
    # Extend whichever branch node 2 follows; everyone converges.
    block3 = nodes[2].generate_block()
    sim.run()
    assert all(node.tip == block3.hash for node in nodes)


def test_pruned_blocks_still_relayed():
    # GHOST requires propagating all blocks: the losing fork block must
    # reach everyone, since it affects subtree weight.
    sim, nodes = _cluster()
    a = nodes[0].generate_block()
    b = nodes[1].generate_block()
    sim.run()
    for node in nodes:
        assert a.hash in node.tree
        assert b.hash in node.tree


def test_observation_log():
    log = ObservationLog(3)
    sim, nodes = _cluster(log=log)
    block = nodes[0].generate_block()
    sim.run()
    assert block.hash in log.index
    assert log.index.info(block.hash).kind == "block"
