"""Each block event has one reporter: the observation log.

A node tells :class:`~repro.metrics.collector.ObservationLog` that a
block was generated, that it learned of a block, or that its tip moved,
and the log writes the trace row for it: ``emit("block_gen", …)``, and
the tracer's typed ``block_arrival`` and ``tip_change`` calls.  A second
writer of the same row from anywhere else in ``src/repro`` would let the
trace and the six Section 6 metrics drift apart, so only the log's file
may write one.
"""

import re
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"

BLOCK_EVENT_EMIT = re.compile(
    r"\.emit\(\s*[\"'](block_gen|block_arrival|tip_change)[\"']"
    r"|\.(block_arrival|tip_change)\("
)


def test_only_the_observation_log_emits_block_events():
    emitters = {
        path.relative_to(SRC).as_posix(): sorted(set(found))
        for path in SRC.rglob("*.py")
        if (
            found := [
                emitted or typed
                for emitted, typed in BLOCK_EVENT_EMIT.findall(
                    path.read_text(encoding="utf-8")
                )
            ]
        )
    }
    assert emitters == {
        "metrics/collector.py": ["block_arrival", "block_gen", "tip_change"]
    }
