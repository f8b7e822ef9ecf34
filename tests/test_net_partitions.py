"""Partition controller and partition-driven chain splits."""

import pytest

from repro.bitcoin.blocks import make_genesis
from repro.bitcoin.node import BitcoinNode, BlockPolicy
from repro.metrics.collector import ObservationLog
from repro.net.latency import constant_histogram
from repro.net.network import Message, Network
from repro.net.partitions import PartitionController
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology


def _cluster(n=6):
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


def test_blocked_link_drops_messages():
    sim, net, nodes = _cluster(2)
    net.block_link(0, 1)
    block = nodes[0].generate_block()
    sim.run()
    assert nodes[1].tip != block.hash
    net.unblock_link(0, 1)
    assert not net.link_blocked(0, 1)


def test_split_counts_cut_edges():
    sim, net, nodes = _cluster(6)
    partition = PartitionController(net)
    cut = partition.split([{0, 1, 2}, {3, 4, 5}])
    assert cut == 9  # complete graph: 3×3 cross edges
    assert partition.active


def test_split_creates_diverging_chains_and_heal_merges():
    sim, net, nodes = _cluster(6)
    partition = PartitionController(net)
    partition.split([{0, 1, 2}, {3, 4, 5}])
    # Each side mines its own history; side B mines more.
    nodes[0].generate_block()
    sim.run()
    nodes[3].generate_block()
    sim.run()
    b2 = nodes[4].generate_block()
    sim.run()
    assert nodes[1].tip != nodes[4].tip  # split brains
    partition.heal()
    # Re-announce side B's chain to side A.
    for block_hash in nodes[3].chain.main_chain()[1:]:
        stored = nodes[3].get_object(block_hash)
        net.send(3, 0, Message("object", stored, stored.size))
    sim.run()
    # Side A reorgs onto the heavier branch and relays it internally.
    assert nodes[0].tip == b2.hash
    assert nodes[1].tip == b2.hash
    assert nodes[2].tip == b2.hash


def test_double_split_rejected():
    sim, net, nodes = _cluster(4)
    partition = PartitionController(net)
    partition.split([{0, 1}])
    with pytest.raises(RuntimeError):
        partition.split([{2, 3}])
    partition.heal()
    partition.split([{2, 3}])  # fine after healing


def test_overlapping_groups_rejected():
    sim, net, nodes = _cluster(4)
    partition = PartitionController(net)
    with pytest.raises(ValueError):
        partition.split([{0, 1}, {1, 2}])
