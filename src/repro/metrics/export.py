"""Observation-log export: persist executions for later analysis.

An :class:`~repro.metrics.collector.ObservationLog` captures everything
the metrics need; exporting it as JSON (``repro run --save-trace``)
lets experiments be archived or analyzed with external tooling.
Hashes are hex-encoded and the format is versioned.  Nothing in the
package reads a saved log back.
"""

from __future__ import annotations

import json
from pathlib import Path

from .collector import ObservationLog

FORMAT_VERSION = 1


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


def save_trace(log: ObservationLog, path: str | Path) -> None:
    """Write a finalized log as JSON, creating missing parent directories."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(log_to_dict(log)), encoding="utf-8")

