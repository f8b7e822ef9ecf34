"""Random peer-to-peer topologies.

"Lacking an existing model of the system, we construct a random network
by connecting each node to at least 5 other nodes, chosen uniformly at
random" (Section 7).  :func:`random_topology` reproduces exactly that
construction and retries until the graph is connected (it almost always
is at degree >= 5).

The adjacency is served from a cached CSR (compressed sparse row)
layout: one flat ``indices`` array of sorted neighbors and an
``indptr`` offset array, built once per edge set.  The position of a
neighbor inside ``indices`` doubles as the *directed edge id* the
network layer keys its per-link arrays by, so every ``neighbors()`` /
``degree()`` call — and every relay fan-out in
:class:`~repro.net.network.Network` — is an O(degree) slice instead of
an O(E) scan over the edge set.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

#: How many random graphs :func:`random_topology` draws before giving up
#: on a connected one.
MAX_ATTEMPTS = 100


@dataclass
class Topology:
    """An undirected graph over node ids ``0..n_nodes-1``."""

    n_nodes: int
    edges: set[frozenset[int]] = field(default_factory=set)
    # Cached CSR adjacency: (indptr, indices, edge_count_at_build).
    # The edge-count stamp makes the cache self-invalidating — adding
    # an edge changes len(edges), so a stale CSR is never served.
    _csr: tuple[list[int], list[int], int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("self loops are not allowed")
        if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes):
            raise ValueError(f"edge ({a}, {b}) references unknown node")
        self.edges.add(frozenset((a, b)))

    def csr(self) -> tuple[list[int], list[int]]:
        """The cached CSR adjacency: ``(indptr, indices)``.

        ``indices[indptr[v]:indptr[v + 1]]`` is node ``v``'s sorted
        neighbor list; the flat position of each entry is the directed
        edge id ``v -> indices[k]`` used by the network's per-edge
        arrays.  Built once and reused until the edge set grows.
        """
        cached = self._csr
        if cached is not None and cached[2] == len(self.edges):
            return cached[0], cached[1]
        rows: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for edge in self.edges:
            a, b = sorted(edge)
            rows[a].append(b)
            rows[b].append(a)
        indptr = [0] * (self.n_nodes + 1)
        indices: list[int] = []
        for node, row in enumerate(rows):
            row.sort()
            indices.extend(row)
            indptr[node + 1] = len(indices)
        self._csr = (indptr, indices, len(self.edges))
        return indptr, indices

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Undirected edges as sorted ``(a, b)`` pairs, ascending.

        This is the canonical edge enumeration order: the network layer
        draws the k-th pair latency for the k-th entry of this list
        (pinned in ``tests/test_net_network.py``), so the order must
        never depend on set/hash layout.
        """
        return sorted(tuple(sorted(edge)) for edge in self.edges)

    def neighbors(self, node: int) -> list[int]:
        """Sorted neighbor list (sorted for determinism)."""
        indptr, indices = self.csr()
        return indices[indptr[node] : indptr[node + 1]]

    def degree(self, node: int) -> int:
        indptr, _ = self.csr()
        return indptr[node + 1] - indptr[node]

    def is_connected(self) -> bool:
        """BFS reachability from node 0."""
        if self.n_nodes == 0:
            return True
        indptr, indices = self.csr()
        seen = {0}
        frontier = deque([0])
        while frontier:
            node = frontier.popleft()
            for peer in indices[indptr[node] : indptr[node + 1]]:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == self.n_nodes

    def diameter_bound(self) -> int:
        """Eccentricity of node 0 — a cheap lower bound on the diameter."""
        indptr, indices = self.csr()
        depth = {0: 0}
        frontier = deque([0])
        while frontier:
            node = frontier.popleft()
            for peer in indices[indptr[node] : indptr[node + 1]]:
                if peer not in depth:
                    depth[peer] = depth[node] + 1
                    frontier.append(peer)
        return max(depth.values()) if depth else 0


def random_topology(
    n_nodes: int,
    min_degree: int = 5,
    rng: random.Random | None = None,
) -> Topology:
    """Build the paper's random graph: each node picks >= ``min_degree`` peers.

    Each node draws ``min_degree`` distinct peers uniformly at random (so
    final degrees exceed the minimum, as in the real Bitcoin network
    where inbound connections raise degree).  Retries until connected.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if min_degree >= n_nodes:
        raise ValueError("min_degree must be below node count")
    rng = rng or random.Random(0)
    for _ in range(MAX_ATTEMPTS):
        topo = Topology(n_nodes)
        add_edge = topo.add_edge
        # ``others`` is the population minus the current node.  Rebuilt
        # per node it is O(n^2) allocations; instead it is maintained
        # incrementally: for node i the list is [0..i-1, i+1..n-1], and
        # stepping i -> i+1 only changes position i (i+1 becomes i).
        # The list contents at every step are identical to the rebuilt
        # version, so the `rng.sample` draw sequence is preserved
        # exactly.
        others = list(range(1, n_nodes))
        for node in range(n_nodes):
            if node > 0:
                others[node - 1] = node - 1
            for peer in rng.sample(others, min_degree):
                add_edge(node, peer)
        if topo.is_connected():
            return topo
    raise RuntimeError(
        f"failed to build a connected topology in {MAX_ATTEMPTS} attempts"
    )


def ring_topology(n_nodes: int) -> Topology:
    """A simple ring — worst-case diameter, useful in propagation tests."""
    if n_nodes < 3:
        raise ValueError("a ring needs at least three nodes")
    topo = Topology(n_nodes)
    for node in range(n_nodes):
        topo.add_edge(node, (node + 1) % n_nodes)
    return topo


def complete_topology(n_nodes: int) -> Topology:
    """Every pair connected — zero-hop relay, for analytical tests."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    topo = Topology(n_nodes)
    for a in range(n_nodes):
        for b in range(a + 1, n_nodes):
            topo.add_edge(a, b)
    return topo
