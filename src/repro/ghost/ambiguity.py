"""Appendix A: no single GHOST node may know the main chain.

The paper constructs three nodes, each seeing the chain 0→1→2→3→4 plus
*one* of three sibling branches 2′→3′, 2′→3″, 2′→3‴.  Locally each node
computes subtree(2) = 3 blocks > subtree(2′) = 2 blocks and follows the
chain through block 4 — yet globally subtree(2′) = 4 blocks wins, so
every node is wrong and none can know it.  This module reproduces the
exact construction and the checks the appendix argues from.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bitcoin.blocks import Block, SyntheticPayload, build_block
from .chain import GhostTree


def _block(prev: Block, label: str) -> Block:
    """A unit-work block whose salt encodes the appendix's label."""
    return build_block(
        prev_hash=prev.hash,
        payload=SyntheticPayload(n_tx=0, salt=label.encode("utf-8")),
        timestamp=0.0,
        bits=0x207FFFFF,
        miner_id=0,
        reward=0,
    )


@dataclass(frozen=True)
class AppendixAScenario:
    """The full block set of Figure 9 plus each node's partial view."""

    blocks: dict[str, Block]
    global_tree: GhostTree
    node_views: tuple[GhostTree, GhostTree, GhostTree]

    def global_main_chain_labels(self) -> list[str]:
        by_hash = {block.hash: label for label, block in self.blocks.items()}
        return [by_hash[h] for h in self.global_tree.main_chain()]

    def view_main_chain_labels(self, node: int) -> list[str]:
        by_hash = {block.hash: label for label, block in self.blocks.items()}
        return [by_hash[h] for h in self.node_views[node].main_chain()]


def build_appendix_a() -> AppendixAScenario:
    """Construct Figure 9's trees: the global one and the three views."""
    genesis = build_block(
        prev_hash=bytes(32),
        payload=SyntheticPayload(n_tx=0, salt=b"0"),
        timestamp=0.0,
        bits=0x207FFFFF,
        miner_id=-1,
        reward=0,
    )
    b1 = _block(genesis, "1")
    b2 = _block(b1, "2")
    b3 = _block(b2, "3")
    b4 = _block(b3, "4")
    b2p = _block(b1, "2'")
    b3p = _block(b2p, "3'")
    b3pp = _block(b2p, "3''")
    b3ppp = _block(b2p, "3'''")
    blocks = {
        "0": genesis,
        "1": b1,
        "2": b2,
        "3": b3,
        "4": b4,
        "2'": b2p,
        "3'": b3p,
        "3''": b3pp,
        "3'''": b3ppp,
    }

    def tree_with(labels: list[str]) -> GhostTree:
        tree = GhostTree(genesis)
        for label in labels:
            tree.add_block(blocks[label])
        return tree

    common = ["1", "2", "3", "4", "2'"]
    global_tree = tree_with(common + ["3'", "3''", "3'''"])
    views = (
        tree_with(common + ["3'"]),
        tree_with(common + ["3''"]),
        tree_with(common + ["3'''"]),
    )
    return AppendixAScenario(blocks, global_tree, views)


def no_view_matches_global(scenario: AppendixAScenario) -> bool:
    """The appendix's claim: every partial view picks the wrong chain."""
    global_chain = scenario.global_main_chain_labels()
    return all(
        scenario.view_main_chain_labels(node) != global_chain
        for node in range(3)
    )
