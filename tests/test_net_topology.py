"""Random topology construction (the paper's ≥5-degree graph)."""

import random

import pytest

from repro.net.topology import (
    Topology,
    complete_topology,
    random_topology,
    ring_topology,
)


def test_random_topology_min_degree():
    topo = random_topology(50, min_degree=5, rng=random.Random(3))
    for node in range(50):
        assert topo.degree(node) >= 5


def test_random_topology_connected():
    for seed in range(5):
        topo = random_topology(30, rng=random.Random(seed))
        assert topo.is_connected()


def test_random_topology_deterministic():
    a = random_topology(20, rng=random.Random(7))
    b = random_topology(20, rng=random.Random(7))
    assert a.edges == b.edges


def test_random_topology_validation():
    with pytest.raises(ValueError):
        random_topology(1)
    with pytest.raises(ValueError):
        random_topology(5, min_degree=5)


def test_neighbors_sorted_and_symmetric():
    topo = random_topology(20, rng=random.Random(1))
    adjacency = {node: topo.neighbors(node) for node in range(topo.n_nodes)}
    for node, peers in adjacency.items():
        assert peers == sorted(peers)
        for peer in peers:
            assert node in adjacency[peer]


def test_no_self_loops():
    topo = Topology(3)
    with pytest.raises(ValueError):
        topo.add_edge(1, 1)


def test_edge_bounds():
    topo = Topology(3)
    with pytest.raises(ValueError):
        topo.add_edge(0, 3)


def test_ring_topology_shape():
    ring = ring_topology(10)
    assert all(ring.degree(i) == 2 for i in range(10))
    assert ring.is_connected()
    assert ring.diameter_bound() == 5


def test_complete_topology_shape():
    full = complete_topology(6)
    assert all(full.degree(i) == 5 for i in range(6))
    assert full.diameter_bound() == 1


def test_disconnected_graph_detected():
    topo = Topology(4)
    topo.add_edge(0, 1)
    topo.add_edge(2, 3)
    assert not topo.is_connected()


def test_diameter_bound_small_world():
    # Random 5-degree graphs have logarithmic diameter.
    topo = random_topology(200, rng=random.Random(0))
    assert topo.diameter_bound() <= 6
