"""GHOST-augmented Bitcoin-NG: the paper's Section 9 future work.

"Such a practical implementation of GHOST can be used to complement
Bitcoin-NG and allow for a higher frequency of key blocks."

Plain Bitcoin-NG resolves competing key blocks by the heaviest *chain*
of key work; at high key-block frequency that reproduces Bitcoin's
fork-rate pathology on the leader-election plane.  This variant applies
the GHOST rule to key blocks: at a fork, follow the branch whose
subtree contains the most aggregate key-block work.  Microblocks remain
weightless (Section 5.1's requirement stands) and within a branch the
latest microblock extension is followed as usual.
"""

from __future__ import annotations

from ..ghost.chain import HeaviestSubtree
from .chain import NGChain


class GhostNGChain(HeaviestSubtree, NGChain):
    """An NG chain whose key-block fork choice is heaviest-subtree.

    Under NG only key blocks add to a chain's work, so a block's subtree
    work is the aggregate *key* work under it.
    """
