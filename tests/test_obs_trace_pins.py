"""The bytes of a trace are pinned: a faster writer must write the same file.

Small Bitcoin, Bitcoin-NG and GHOST runs under a scenario that fires all
seven fault kinds (a crash with restart, a degrade and restore, a
partition and heal, a lossy window) write every record type a run can
produce outside checked mode: ``send``, ``deliver``, ``drop``,
``gossip_retry``, ``block_*``, ``tip_change``, ``epoch_*`` (NG),
``sample_*`` and the fault records.  Each file's sha256 is compared to
a committed value.  A pin moves only when what is simulated or what a
record holds changes on purpose, and then it is re-pinned with the
reason stated.  The same files, read back, must give the run's six
Section 6 metrics exactly.
"""

import hashlib
import json

import pytest

from repro.experiments import ExperimentConfig, Protocol, run_experiment
from repro.obs import config_slug
from repro.obs.trace import CHUNK, JsonlSink

BASE = ExperimentConfig(n_nodes=20, block_size_bytes=8000, cooldown=300.0, seed=9)
SHAPES = {
    Protocol.BITCOIN: dict(target_blocks=12, block_rate=0.1),
    Protocol.GHOST: dict(target_blocks=12, block_rate=0.1),
    Protocol.BITCOIN_NG: dict(
        target_blocks=30, target_key_blocks=4, block_rate=0.4, key_block_rate=0.025
    ),
}
PINS = {
    Protocol.BITCOIN: (
        "560cb37c3040e91f738f762c2e1407628c74a93868468e48c0e995fde4173782",
        575420,
    ),
    Protocol.BITCOIN_NG: (
        "2f3afbe7a8ef2eb9a8badaeaed619306bf2083ec58dfbacb53daea79b8fcafc0",
        5587469,
    ),
    # Re-pinned when GHOST broke ties with one draw instead of keeping
    # the first seen (from 4cd5c169…e7ed, 593,721 bytes).  The run now
    # matches Bitcoin's line for line except ``trace_start``'s protocol
    # name: no fork in it sets the heaviest subtree against the heaviest
    # chain, and both rules spend the same draw on each tie.
    Protocol.GHOST: (
        "ad464478b20003f25653dc1720e60888b2736a6a457c47773002a870e9cba742",
        575418,
    ),
}
FAULTS = {
    "node_crash", "node_restart", "link_degrade", "link_restore",
    "partition", "heal", "msg_loss",
}


def _schedule(duration: float) -> dict:
    return {
        "version": 1,
        "name": "every-fault",
        "faults": [
            {"at": 0.15 * duration, "kind": "crash", "node": 3,
             "down_for": 0.30 * duration},
            {"at": 0.2 * duration, "kind": "degrade", "latency_mult": 2.0,
             "bandwidth_mult": 0.5},
            {"at": 0.3 * duration, "kind": "restore"},
            {"at": 0.375 * duration, "kind": "partition", "split": "halves"},
            {"at": 0.65 * duration, "kind": "heal"},
            {"at": 0.75 * duration, "kind": "loss", "rate": 0.05},
            {"at": 0.95 * duration, "kind": "loss", "rate": 0.0},
        ],
    }


@pytest.mark.parametrize("protocol", tuple(Protocol), ids=lambda p: p.value)
def test_trace_bytes_are_pinned(tmp_path, protocol, check_trace_metrics):
    config = BASE.with_(protocol=protocol, **SHAPES[protocol])
    config = config.with_(scenario=_schedule(config.duration), obs_dir=str(tmp_path))
    result, log = run_experiment(config)
    data = (tmp_path / f"{config_slug(config)}.trace.jsonl").read_bytes()
    records = [json.loads(line) for line in data.splitlines()]
    events = {r["ev"] for r in records}
    assert {"send", "deliver", "drop", "block_gen", "block_arrival",
            "tip_change", "sample_links", "sample_mempool",
            "sample_forks"} | FAULTS <= events
    if protocol is not Protocol.GHOST:
        assert "gossip_retry" in events
    if protocol is Protocol.BITCOIN_NG:
        assert {"epoch_start", "epoch_end"} <= events
    assert (hashlib.sha256(data).hexdigest(), len(data)) == PINS[protocol]
    check_trace_metrics(records, result, log)


class _CountingFile:
    """A trace file that counts the ``write`` calls it is handed."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return self.handle.write(text)

    def close(self):
        self.handle.close()


def test_trace_is_written_a_chunk_per_call(tmp_path, monkeypatch):
    """The NG pin run's file gets one ``write`` per chunk of rows, plus
    the partial chunk flushed before ``trace_end`` and ``trace_end``'s
    own: a count, so it holds on any host."""
    opened = []
    real_open = JsonlSink._open

    def counting_open(sink):
        sink._file = _CountingFile(real_open(sink))
        opened.append(sink._file)
        return sink._file

    monkeypatch.setattr(JsonlSink, "_open", counting_open)
    protocol = Protocol.BITCOIN_NG
    config = BASE.with_(protocol=protocol, **SHAPES[protocol])
    config = config.with_(scenario=_schedule(config.duration), obs_dir=str(tmp_path))
    run_experiment(config)
    data = (tmp_path / f"{config_slug(config)}.trace.jsonl").read_bytes()
    records = data.count(b"\n")
    [trace_file] = opened
    assert records > 10 * CHUNK
    assert trace_file.writes <= -(-records // CHUNK) + 2
