"""Network partitions: split the topology into isolated groups and heal.

Used by the scenario engine's ``partition`` fault: a partition cuts
every edge crossing group boundaries, each side keeps mining its own
chain, and healing lets the heaviest-chain rule merge history — the
scenario behind the paper's coinbase-maturity rule ("to avoid
non-mergeable transactions following a fork").
"""

from __future__ import annotations

from .network import Network


class PartitionController:
    """Applies and removes group partitions on a :class:`Network`."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._cut_links: list[tuple[int, int]] = []

    @property
    def active(self) -> bool:
        return bool(self._cut_links)

    def split(self, groups: list[set[int]]) -> int:
        """Partition nodes into ``groups``; returns cut edge count.

        Every topology edge whose endpoints land in different groups is
        blocked.  Nodes in no group form an implicit extra group.
        Raises if a node appears in two groups or a split is active.
        """
        if self.active:
            raise RuntimeError("a partition is already active; heal() first")
        assignment: dict[int, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node in assignment:
                    raise ValueError(f"node {node} is in two groups")
                assignment[node] = index
        implicit = len(groups)
        cut = 0
        # Sorted edge order keeps _cut_links (and any tracing hung off
        # block_link) independent of edge-set hash layout.
        for a, b in self.network.topology.sorted_edges():
            if assignment.get(a, implicit) != assignment.get(b, implicit):
                self.network.block_link(a, b)
                self._cut_links.append((a, b))
                cut += 1
        return cut

    def heal(self) -> None:
        """Remove every cut; traffic flows again (history then merges)."""
        for a, b in self._cut_links:
            self.network.unblock_link(a, b)
        self._cut_links.clear()
