"""Canonical per-node state digests for determinism checks.

A :class:`NodeDigest` compresses everything that makes two same-seed
runs "the same node state" — main-chain tip, chain weight, height, a
mempool fingerprint, and a UTXO root — into a few short hex strings.
:func:`state_fingerprint` folds every node's digest into one short hash,
the end-of-run fingerprint the golden-equivalence pins and the mutation
probe compare.

Digest computation is read-only and draws no randomness, so taking
digests never perturbs a run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import sha256
from typing import TYPE_CHECKING, Iterable

from ..obs.trace import short_hash

if TYPE_CHECKING:
    from ..bitcoin.node import ChainNode
    from ..ledger.mempool import Mempool
    from ..ledger.utxo import UtxoSet

#: Hex characters kept from each sha256 fingerprint.
DIGEST_HEX = 12


@dataclass(frozen=True)
class NodeDigest:
    """One node's canonical state fingerprint."""

    node: int
    tip: str  #: main-chain tip hash, 12 hex chars
    weight: int  #: cumulative key-block work at the tip
    height: int  #: main-chain height at the tip
    mempool: str  #: sha256 over sorted pool txids, 12 hex chars
    utxo: str  #: sha256 over the sorted coin map, 12 hex chars

    def format(self) -> str:
        return (
            f"tip={self.tip} weight={self.weight} height={self.height} "
            f"mempool={self.mempool} utxo={self.utxo}"
        )


def mempool_fingerprint(mempool: Mempool) -> str:
    """Order-independent fingerprint of the pool's transaction ids."""
    hasher = sha256()
    for txid in sorted(mempool.txids()):
        hasher.update(txid)
    return hasher.hexdigest()[:DIGEST_HEX]


def utxo_root(utxo: UtxoSet) -> str:
    """Order-independent fingerprint of the full coin map."""
    hasher = sha256()
    coins = utxo.snapshot()
    for outpoint in sorted(coins, key=lambda op: (op.txid, op.index)):
        coin = coins[outpoint]
        hasher.update(outpoint.serialize())
        hasher.update(struct.pack("<qi?", coin.output.value, coin.height, coin.is_coinbase))
        hasher.update(coin.output.pubkey_hash)
    return hasher.hexdigest()[:DIGEST_HEX]


def node_digest(node: ChainNode, node_id: int) -> NodeDigest:
    """Compute one node's digest from its live state.

    Every node keeps a ledger (in experiments it stays empty for
    Bitcoin and GHOST, whose synthetic blocks carry no ledger entries).
    """
    tip = node.chain.tip_block
    return NodeDigest(
        node=node_id,
        tip=short_hash(tip.hash),
        weight=tip.cumulative_work,
        height=tip.height,
        mempool=mempool_fingerprint(node.mempool),
        utxo=utxo_root(node.utxo),
    )


def state_fingerprint(nodes: Iterable[ChainNode]) -> tuple[list[str], str]:
    """(sorted distinct tips, 16-hex sha256 over every node's digest).

    Nodes are hashed in the order given, each under its ``node_id``, as
    one :meth:`NodeDigest.format` line per node.
    """
    state = sha256()
    tips = set()
    for node in nodes:
        digest = node_digest(node, node.node_id)
        state.update(digest.format().encode())
        tips.add(digest.tip)
    return sorted(tips), state.hexdigest()[:16]
