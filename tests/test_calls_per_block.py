"""Calls per simulated block, as a ratchet.

A wall-clock claim needs ten alternating pairs on a quiet host; a count
of Python-level calls needs neither.  This counts every call into a
function defined under ``src/repro`` during one ``run_experiment`` (so
a CPython patch release, which moves calls inside the standard library,
does not move it) and compares it with the table below.  The runs are
deterministic, and so is the count: under any ``PYTHONHASHSEED`` and in
any process.

The table only tightens.  A rise fails; a change that means one (a new
hook, a check on the hot path) re-pins its row with the reason in
CHANGES.md, as a golden is re-pinned.  A drop fails too, until it is
re-pinned, so the next rise is measured from the new floor.  The count
screens a prototype in seconds; it never stands in for the ten pairs a
speed claim needs.

The configurations are the quick sizes of three benchmark workloads,
spelled out here; CI's ``scale-smoke`` job checks :data:`SCALE_SMOKE`,
its own 1000-node run, against :data:`SCALE_SMOKE_CALLS`.
"""

from __future__ import annotations

import sys
from pathlib import Path

import repro
from repro.experiments import ExperimentConfig, run_experiment
from repro.protocols import Protocol

SRC = str(Path(repro.__file__).resolve().parent)

_SCALE = dict(
    target_blocks=16,
    target_key_blocks=2,
    block_rate=0.4,
    key_block_rate=0.05,
    block_size_bytes=8000,
    cooldown=15.0,
    seed=7,
    latency_seed=11,
)
CONFIGS = {
    "ng_micro_60": ExperimentConfig(
        protocol=Protocol.BITCOIN_NG,
        n_nodes=20,
        target_blocks=40,
        target_key_blocks=3,
        block_rate=0.4,
        key_block_rate=0.02,
        block_size_bytes=8000,
        cooldown=15.0,
        seed=7,
        latency_seed=11,
    ),
    "ng_scale_1000": ExperimentConfig(
        protocol=Protocol.BITCOIN_NG, n_nodes=150, **_SCALE
    ),
    "btc_scale_1000": ExperimentConfig(
        protocol=Protocol.BITCOIN, n_nodes=150, **_SCALE
    ),
}

#: ``(calls, blocks generated)`` per configuration.  Pinned when a
#: received block became one pass through the tree (each fell
#: 27-31%, from 89,173, 216,561 and 325,008; see CHANGES.md).
PINNED = {
    "ng_micro_60": (63_702, 63),
    "ng_scale_1000": (149_622, 20),
    "btc_scale_1000": (235_764, 31),
}

#: CI's 1000-node ``scale-smoke`` run, and its pinned count.
SCALE_SMOKE = ExperimentConfig(
    protocol=Protocol.BITCOIN_NG,
    n_nodes=1000,
    seed=7,
    target_blocks=16,
    target_key_blocks=2,
    block_rate=0.4,
    key_block_rate=0.05,
    block_size_bytes=8000,
)
SCALE_SMOKE_CALLS = (1_266_482, 26)


def count_calls(config: ExperimentConfig) -> tuple[int, int]:
    """``(calls into src/repro, blocks generated)`` for one run.

    The counted run is the second of two: the first pays what a process
    pays once (lazy imports, the latency histogram's cache), whatever
    ran before it.
    """
    run_experiment(config)
    ours: dict[object, bool] = {}
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            mine = ours.get(code)
            if mine is None:
                mine = ours[code] = code.co_filename.startswith(SRC)
            if mine:
                calls += 1

    sys.setprofile(profile)
    try:
        result, _ = run_experiment(config)
    finally:
        sys.setprofile(None)
    return calls, result.blocks_generated


def verdict(name: str, counted: tuple[int, int], pinned: tuple[int, int]) -> str:
    """One line on a count against its pin."""
    calls, blocks = counted
    per_block = calls / blocks
    line = f"{name}: {calls:,} calls for {blocks} blocks ({per_block:,.1f} per block)"
    if counted == pinned:
        return line + ", as pinned"
    direction = "rose" if counted > pinned else "fell"
    return (
        f"{line} {direction} from the pinned {pinned[0]:,} for {pinned[1]}; "
        "re-pin the row with the reason in CHANGES.md"
    )


def test_calls_per_block_match_the_table():
    counted = {name: count_calls(config) for name, config in CONFIGS.items()}
    moved = [
        verdict(name, counted[name], PINNED[name])
        for name in CONFIGS
        if counted[name] != PINNED[name]
    ]
    assert not moved, "\n".join(moved)
