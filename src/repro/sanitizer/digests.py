"""Canonical per-node state digests for divergence detection.

A :class:`NodeDigest` compresses everything that makes two same-seed
runs "the same node state" — main-chain tip, chain weight, height, a
mempool fingerprint, and a UTXO root — into a few short hex strings.
A :class:`DigestSnapshot` is one capture of every node's digest at a
known event index, and a stream of snapshots (JSONL, schema v1) is what
``repro check diverge`` bisects.

Digest computation is read-only and draws no randomness, so capturing
digests never perturbs a run.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Iterable, Sequence

from ..obs.trace import short_hash
from .checkers import chain_of

#: Stream format version; bump on any incompatible field change.
STREAM_VERSION = 1
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

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "tip": self.tip,
            "weight": self.weight,
            "height": self.height,
            "mempool": self.mempool,
            "utxo": self.utxo,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NodeDigest":
        return cls(
            node=int(data["node"]),
            tip=str(data["tip"]),
            weight=int(data["weight"]),
            height=int(data["height"]),
            mempool=str(data["mempool"]),
            utxo=str(data["utxo"]),
        )

    def format(self) -> str:
        return (
            f"tip={self.tip} weight={self.weight} height={self.height} "
            f"mempool={self.mempool} utxo={self.utxo}"
        )


@dataclass(frozen=True)
class DigestSnapshot:
    """Every node's digest at one point in a run."""

    index: int  #: simulator events processed when captured
    time: float  #: virtual time when captured
    digests: tuple[NodeDigest, ...]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "time": self.time,
            "digests": [digest.to_dict() for digest in self.digests],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DigestSnapshot":
        return cls(
            index=int(data["index"]),
            time=float(data["time"]),
            digests=tuple(
                NodeDigest.from_dict(entry) for entry in data["digests"]
            ),
        )


def mempool_fingerprint(mempool: object) -> str:
    """Order-independent fingerprint of the pool's transaction ids."""
    hasher = sha256()
    for txid in sorted(mempool.txids()):  # type: ignore[attr-defined]
        hasher.update(txid)
    return hasher.hexdigest()[:DIGEST_HEX]


def utxo_root(utxo: object) -> str:
    """Order-independent fingerprint of the full coin map."""
    hasher = sha256()
    coins = utxo.snapshot()  # type: ignore[attr-defined]
    for outpoint in sorted(coins, key=lambda op: (op.txid, op.index)):
        coin = coins[outpoint]
        hasher.update(outpoint.serialize())
        hasher.update(struct.pack("<qi?", coin.output.value, coin.height, coin.is_coinbase))
        hasher.update(coin.output.pubkey_hash)
    return hasher.hexdigest()[:DIGEST_HEX]


def node_digest(node: object, node_id: int) -> NodeDigest:
    """Compute one node's digest from its live state.

    Every in-tree node keeps a ledger (in experiments it stays empty
    for Bitcoin and GHOST, whose synthetic blocks carry no ledger
    entries).  A node from a registered adapter that has none digests as
    ``"-"`` for the mempool/UTXO fields — constant, so divergence can
    still only come from fields the node actually has.
    """
    tip_record = chain_of(node).tip_record  # type: ignore[attr-defined]
    mempool = getattr(node, "mempool", None)
    utxo = getattr(node, "utxo", None)
    return NodeDigest(
        node=node_id,
        tip=short_hash(tip_record.hash),
        weight=tip_record.cumulative_work,
        height=tip_record.height,
        mempool=mempool_fingerprint(mempool) if mempool is not None else "-",
        utxo=utxo_root(utxo) if utxo is not None else "-",
    )


def save_stream(
    path: str | Path,
    snapshots: Sequence[DigestSnapshot],
    meta: dict | None = None,
) -> None:
    """Write a digest stream as JSONL: one header line, one per snapshot,
    creating missing parent directories."""
    header = {"v": STREAM_VERSION, "kind": "digest_stream"}
    if meta:
        header.update(meta)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for snapshot in snapshots:
            handle.write(json.dumps(snapshot.to_dict(), sort_keys=True) + "\n")


def load_stream(path: str | Path) -> list[DigestSnapshot]:
    """Read a digest stream; raises ValueError on the wrong format."""
    with open(path, "r", encoding="utf-8") as handle:
        lines: Iterable[str] = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty digest stream")
    header = json.loads(lines[0])
    if header.get("kind") != "digest_stream":
        raise ValueError(f"{path}: not a digest stream")
    if header.get("v") != STREAM_VERSION:
        raise ValueError(
            f"{path}: unsupported digest stream version {header.get('v')}"
        )
    return [DigestSnapshot.from_dict(json.loads(line)) for line in lines[1:]]
