"""Calls per simulated block, as a ratchet.

A wall-clock claim needs ten alternating pairs on a quiet host; a count
of Python-level calls needs neither.  This counts every call into a
function defined under ``src/repro`` during one ``run_experiment`` (so
a CPython patch release, which moves calls inside the standard library,
does not move it), and every call that code makes into code generated
at import (a ``NamedTuple``'s ``__new__``, a dataclass's ``__init__``,
both filed as ``<string>``), and compares it with the table below.  The runs are
deterministic, and so is the count: under any ``PYTHONHASHSEED`` and in
any process.

The table only tightens.  A rise fails; a change that means one (a new
hook, a check on the hot path) re-pins its row with the reason in
CHANGES.md, as a golden is re-pinned.  A drop fails too, until it is
re-pinned, so the next rise is measured from the new floor.  The count
screens a prototype in seconds; it never stands in for the ten pairs a
speed claim needs.

The configurations are the quick sizes of five benchmark workloads,
spelled out here: three plain runs, a checked and observed run under a
crash/partition/loss scenario, and two cells of Figure 8a's sweep run
serially.  CI's ``scale-smoke`` job checks :data:`SCALE_SMOKE`, its own
1000-node run, against :data:`SCALE_SMOKE_CALLS`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

import repro
from repro.experiments import ExperimentConfig, frequency_sweep, run_experiment
from repro.protocols import Protocol

SRC = str(Path(repro.__file__).resolve().parent)
#: The file name of code compiled from a string at import.
GENERATED = "<string>"

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

#: The instrumented workload's bare twin; :func:`instrumented` turns
#: the sanitizer and the trace on and adds its fault scenario.
INSTRUMENTED = ExperimentConfig(
    protocol=Protocol.BITCOIN_NG,
    n_nodes=30,
    target_blocks=60,
    target_key_blocks=4,
    block_rate=0.4,
    key_block_rate=0.025,
    block_size_bytes=8000,
    cooldown=30.0,
    seed=7,
    latency_seed=11,
)

#: The sweep's base cell; :func:`sweep_cells` runs it at one frequency
#: for both protocols.
SWEEP = ExperimentConfig(
    n_nodes=12,
    target_blocks=10,
    target_key_blocks=3,
    cooldown=30.0,
    seed=7,
    latency_seed=11,
)


def instrumented(obs_dir: Path) -> ExperimentConfig:
    """Checked, traced into ``obs_dir``, with a leader crash, a
    partition and a lossy window placed as shares of the mining time."""
    duration = INSTRUMENTED.duration
    scenario = {
        "version": 1,
        "name": "crash-partition-loss",
        "faults": [
            {
                "at": 0.15 * duration,
                "kind": "crash",
                "node": "leader",
                "down_for": 0.30 * duration,
            },
            {"at": 0.375 * duration, "kind": "partition", "split": "halves"},
            {"at": 0.65 * duration, "kind": "heal"},
            {"at": 0.75 * duration, "kind": "loss", "rate": 0.05},
            {"at": 0.95 * duration, "kind": "loss", "rate": 0.0},
        ],
    }
    return INSTRUMENTED.with_(scenario=scenario, check=True, obs_dir=str(obs_dir))


def sweep_cells() -> int:
    """Blocks generated by two serial cells of Figure 8a's sweep."""
    grid = frequency_sweep(SWEEP, frequencies=(0.1,), seeds=(SWEEP.seed,), jobs=1)
    return sum(
        result.blocks_generated for point in grid.points for result in point.results
    )


#: ``(calls, blocks generated)`` per configuration.  Re-pinned when
#: frames of code generated at import came to be counted (every row
#: rose, from 58,509, 137,918, 217,503, 173,072 and 28,810) and, in the
#: same change, the heap's compaction, the per-timeout timer queues and
#: each node's cached neighbor list were deleted (every row fell again;
#: see CHANGES.md).
PINNED = {
    "ng_micro_60": (59_273, 63),
    "ng_scale_1000": (139_313, 20),
    "btc_scale_1000": (217_898, 31),
    "ng_instrumented_100": (174_161, 62),
    "fig8_sweep_60": (29_494, 47),
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
SCALE_SMOKE_CALLS = (1_174_172, 26)


def count_calls(config: ExperimentConfig) -> tuple[int, int]:
    """``(calls into src/repro, blocks generated)`` for one run."""
    return count_run(lambda: run_experiment(config)[0].blocks_generated)


def count_run(run: Callable[[], int]) -> tuple[int, int]:
    """``(calls into src/repro, blocks generated)`` for ``run()``, which
    returns the blocks it generated.

    The counted run is the second of two: the first pays what a process
    pays once (lazy imports, the latency histogram's cache, the
    sanitizer's signature verdicts), whatever ran before it.  A frame
    of generated code counts when the frame that called it is ours.
    """
    run()
    # Per code object: True under src/repro, False elsewhere, None for
    # generated code (ours when the caller is).
    ours: dict[object, bool | None] = {}
    unseen = object()
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            mine = ours.get(code, unseen)
            if mine is unseen:
                filename = code.co_filename
                mine = ours[code] = (
                    None if filename == GENERATED else filename.startswith(SRC)
                )
            if mine is None:
                caller = frame.f_back
                mine = caller is not None and caller.f_code.co_filename.startswith(
                    SRC
                )
            if mine:
                calls += 1

    sys.setprofile(profile)
    try:
        blocks = run()
    finally:
        sys.setprofile(None)
    return calls, blocks


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


def test_calls_per_block_match_the_table(tmp_path):
    counted = {name: count_calls(config) for name, config in CONFIGS.items()}
    counted["ng_instrumented_100"] = count_calls(instrumented(tmp_path))
    counted["fig8_sweep_60"] = count_run(sweep_cells)
    moved = [
        verdict(name, counted[name], PINNED[name])
        for name in PINNED
        if counted[name] != PINNED[name]
    ]
    assert not moved, "\n".join(moved)


def test_a_run_cancels_at_most_one_event(tmp_path, monkeypatch):
    """A cancelled heap entry stays until it reaches the top; nothing
    compacts the heap.  That holds up while a run cancels next to
    nothing: each quick configuration, and each cell of the sweep,
    cancels at most one event (the mining scheduler's pending draw, at
    ``stop``).  A change that starts cancelling in bulk fails here, and
    whether the heap needs compacting is then decided again on measured
    traffic."""
    from repro.experiments import parallel
    from repro.net.events import Event

    cancels = 0
    cancel = Event.cancel

    def counting(self):
        nonlocal cancels
        cancels += 1
        cancel(self)

    per_run: list[int] = []

    def counted(config):
        nonlocal cancels
        cancels = 0
        outcome = run_experiment(config)
        per_run.append(cancels)
        return outcome

    monkeypatch.setattr(Event, "cancel", counting)
    monkeypatch.setattr(parallel, "run_experiment", counted)
    for config in [*CONFIGS.values(), instrumented(tmp_path)]:
        counted(config)
    frequency_sweep(SWEEP, frequencies=(0.1,), seeds=(SWEEP.seed,), jobs=1)
    assert len(per_run) == len(CONFIGS) + 1 + 2
    assert max(per_run) <= 1, per_run
