"""Observation-log export/import: persist executions for later analysis.

An :class:`~repro.metrics.collector.ObservationLog` captures everything
the metrics need; exporting it as JSON lets experiments be archived,
diffed across code versions, or analyzed with external tooling without
re-running the simulation.  Hashes are hex-encoded; the format is
versioned for forward compatibility.
"""

from __future__ import annotations

import json
from pathlib import Path

from .collector import BlockInfo, ObservationLog

FORMAT_VERSION = 1


class TraceFormatError(Exception):
    """Raised when an imported trace cannot be understood."""


def log_to_dict(log: ObservationLog) -> dict:
    """Serializable representation of a finalized observation log."""
    return {
        "version": FORMAT_VERSION,
        "n_nodes": log.n_nodes,
        "start_time": log.start_time,
        "end_time": log.end_time,
        "blocks": [
            {
                "hash": info.hash.hex(),
                "parent": info.parent.hex(),
                "miner": info.miner,
                "gen_time": info.gen_time,
                "work": info.work,
                "kind": info.kind,
                "n_tx": info.n_tx,
                "size": info.size,
            }
            for info in log.index.all_blocks()
        ],
        "arrivals": [
            {h.hex(): t for h, t in node_arrivals.items()}
            for node_arrivals in log.arrivals
        ],
        "tips": [
            {
                "times": history.times,
                "tips": [h.hex() for h in history.tips],
            }
            for history in log.tip_histories
        ],
    }


def log_from_dict(data: dict) -> ObservationLog:
    """Rebuild an observation log exported by :func:`log_to_dict`."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"unsupported trace version {version!r}")
    try:
        log = ObservationLog(int(data["n_nodes"]))
        log.start_time = float(data["start_time"])
        for entry in data["blocks"]:
            log.index.add(
                BlockInfo(
                    hash=bytes.fromhex(entry["hash"]),
                    parent=bytes.fromhex(entry["parent"]),
                    miner=int(entry["miner"]),
                    gen_time=float(entry["gen_time"]),
                    work=int(entry["work"]),
                    kind=str(entry["kind"]),
                    n_tx=int(entry["n_tx"]),
                    size=int(entry["size"]),
                )
            )
        for node, node_arrivals in enumerate(data["arrivals"]):
            for hex_hash, time in node_arrivals.items():
                log.record_arrival(node, bytes.fromhex(hex_hash), float(time))
        for node, history in enumerate(data["tips"]):
            for time, hex_hash in zip(history["times"], history["tips"]):
                log.record_tip(node, bytes.fromhex(hex_hash), float(time))
        log.finalize(float(data["end_time"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"malformed trace: {exc}") from exc
    return log


def save_trace(log: ObservationLog, path: str | Path) -> None:
    """Write a finalized log as JSON, creating missing parent directories."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(log_to_dict(log)), encoding="utf-8")


def load_trace(path: str | Path) -> ObservationLog:
    """Read a log written by :func:`save_trace`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from exc
    return log_from_dict(data)
