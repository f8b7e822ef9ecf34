"""The six workloads: inputs from a seed, one execution, its checks.

Every workload's *shape* — node count, block parameters and the
simulation seed that drives the mining lottery — is fixed here.  The
lottery decides how much work a run is (at 1000 nodes the event count
varies fourfold with the simulation seed, and one seed in seven elects
no leader at all), so it belongs to the workload's definition, sized
once so that no operation fails.  The benchmark ``--seed`` re-draws the
inputs around that shape: the network's link latencies everywhere, and
for the payments workload also the topology, the first leader and the
whole payment schedule.  See ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import shutil
import sys
import tempfile
import time
import traceback
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.experiments import parallel
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.sweeps import (
    FREQUENCY_POINTS,
    SIZE_POINTS,
    frequency_sweep,
    size_sweep,
)
from repro.metrics import (
    consensus_delay,
    fairness,
    mining_power_utilization,
    time_to_prune,
    time_to_win,
    transaction_frequency,
)
from repro.net.simulator import Simulator
from repro.obs.facade import config_slug
from repro.prof.runtime import ProfilerRuntime

from . import OUT_DIR, payments
from .spans import SpanRecorder

# The simulation seed all sizing was done at (events, walls and failure
# counts quoted in the README are for it).
LOTTERY_SEED = 7

PAPER_METRICS = (
    "consensus_delay",
    "fairness",
    "mining_power_utilization",
    "time_to_prune",
    "time_to_win",
    "transaction_frequency",
)
# The same six as per-layer metric names (simulated seconds say so).
STATISTIC_NAMES = (
    "metrics.consensus_delay_sim_s",
    "metrics.fairness",
    "metrics.mining_power_utilization",
    "metrics.time_to_prune_sim_s",
    "metrics.time_to_win_sim_s",
    "metrics.transaction_frequency",
)


@dataclass
class Tracing:
    """What a traced execution fills in: spans and one profile per simulation."""

    recorder: SpanRecorder
    profiles: list = field(default_factory=list)
    # The networks built while tracing (``bytes_delivered`` is read off them).
    networks: list = field(default_factory=list)


@dataclass
class Sample:
    """One timed execution of a workload."""

    wall_s: float
    setup_s: float
    simulate_s: float
    blocks: int
    attempted: int
    # One entry per failed operation, saying why.
    failures: list[str]
    # What was simulated: equal whichever observers were on.
    outcome: Any
    # Exact counts and simulated statistics, by per-layer metric name;
    # with ``outcome``, equal between executions of the same inputs.
    counts: dict[str, float]
    # Host seconds of named parts of ``wall_s``, where a workload has any.
    part_walls: dict[str, float] = field(default_factory=dict)


# Metrics, operations attempted, failure reasons.
Extras = tuple[dict[str, float], int, list[str]]


def _failed_sample(wall_s: float, attempted: int, reason: str) -> Sample:
    """An execution that raised: every operation in it failed."""
    return Sample(wall_s, 0.0, 0.0, 0, attempted, [reason] * attempted, None, {})


def outcome_of(result: ExperimentResult) -> tuple:
    """Everything simulated about a run — no config, no host times, and
    no event count, which includes the observers' own sampler events."""
    return (
        tuple(getattr(result, name) for name in PAPER_METRICS),
        result.blocks_generated,
        result.main_chain_length,
        result.duration,
        result.messages_delivered,
        result.faults_injected,
        result.violations,
    )


def result_failures(result: ExperimentResult, faults: int = 0) -> list[str]:
    """Why this simulation counts as a failed operation: one entry
    naming every reason, or nothing when it passed."""
    reasons = [
        f"{name} is NaN"
        for name in PAPER_METRICS
        if math.isnan(getattr(result, name))
    ]
    if result.blocks_generated == 0:
        reasons.append("no block generated")
    if result.main_chain_length == 0:
        reasons.append("empty main chain")
    if result.violations:
        reasons.append(f"{len(result.violations)} invariant violations")
    if result.faults_injected != faults:
        reasons.append(
            f"{result.faults_injected} faults fired, scenario has {faults}"
        )
    return ["; ".join(reasons)] if reasons else []


def statistics_of(results: list[ExperimentResult]) -> dict[str, float]:
    """Simulated statistics of one execution: means over its simulations
    for the six paper metrics, sums for the counts."""
    blocks = sum(r.blocks_generated for r in results)
    messages = sum(r.messages_delivered for r in results)
    return {
        **{
            statistic: sum(getattr(r, name) for r in results) / len(results)
            for statistic, name in zip(STATISTIC_NAMES, PAPER_METRICS)
        },
        "metrics.blocks_generated": blocks,
        "metrics.main_chain_length": sum(r.main_chain_length for r in results),
        "net.simulator.events": sum(r.events_processed for r in results),
        "net.network.messages_delivered": messages,
        "net.network.messages_per_block": messages / blocks if blocks else 0.0,
        "scenarios.faults_fired": sum(r.faults_injected for r in results),
        "sanitizer.violations": sum(len(r.violations) for r in results),
    }


def _run_span(tracing: Tracing | None) -> contextlib.AbstractContextManager:
    """The root span of one traced execution; nothing when untraced."""
    if tracing is None:
        return contextlib.nullcontext()
    return tracing.recorder.span("run")


def _profiled(
    config: ExperimentConfig, tracing: Tracing | None
) -> tuple[ExperimentResult, Any]:
    """``run_experiment``; when tracing, under a fresh profiler whose
    profile is kept."""
    if tracing is None:
        return run_experiment(config)
    profiler = ProfilerRuntime()
    result, log = run_experiment(config, profiler=profiler)
    tracing.profiles.append(
        profiler.build_profile(
            {},
            result.wall_setup_seconds,
            result.wall_simulate_seconds,
            result.events_processed,
            end_time=result.duration,
        )
    )
    return result, log


def run_config(
    config: ExperimentConfig, tracing: Tracing | None = None, faults: int = 0
) -> Sample:
    """One ``run_experiment`` as a sample.  With ``tracing`` the run
    carries a :class:`ProfilerRuntime` and sits under a ``run`` span."""
    started = time.perf_counter()
    try:
        with _run_span(tracing):
            result, _log = _profiled(config, tracing)
    except Exception:  # a failed operation, reported and counted
        traceback.print_exc(file=sys.stderr)
        return _failed_sample(
            time.perf_counter() - started, 1, "run_experiment raised"
        )
    wall = time.perf_counter() - started
    return Sample(
        wall_s=wall,
        setup_s=result.wall_setup_seconds,
        simulate_s=result.wall_simulate_seconds,
        blocks=result.blocks_generated,
        attempted=1,
        failures=result_failures(result, faults),
        outcome=outcome_of(result),
        counts=statistics_of([result]),
    )


class _SetUpDone(Exception):
    """Raised in place of the first ``Simulator.run``: set-up is over."""


def set_up_wall(config: ExperimentConfig) -> float:
    """Host seconds ``run_experiment`` spends before it simulates.

    The harness has no set-up-only entry point, so its first
    ``Simulator.run`` is swapped for one that raises, and put back; what
    is timed is entry to that call, i.e. ``wall_setup_seconds`` plus
    ``scheduler.start()``.
    """

    def stop(*_args: Any, **_kwargs: Any) -> None:
        raise _SetUpDone

    original = Simulator.run
    Simulator.run = stop
    started = time.perf_counter()
    try:
        run_experiment(config)
    except _SetUpDone:
        return time.perf_counter() - started
    finally:
        Simulator.run = original
    raise RuntimeError("run_experiment returned without simulating")


class Workload:
    """What the command needs of a workload: ``inputs(seed, quick)``,
    ``execute(inputs, tracing)`` and, for traced runs, ``extras``."""

    def __init__(self, name: str, why: str) -> None:
        self.name = name
        self.why = why

    def set_up_only(self, inputs: Any) -> float | None:
        """Host seconds of one more set-up with nothing run after it,
        where a workload can do that; ``None`` where it cannot."""
        return None

    def extras(self, inputs: Any, reference: Sample) -> Extras:
        """Per-layer metrics only this workload can measure, with the
        operations attempted and failed to get them."""
        return {}, 0, []


class ExperimentWorkload(Workload):
    """One ``ExperimentConfig`` through ``run_experiment``."""

    def __init__(
        self, name: str, why: str, full: dict, quick: dict
    ) -> None:
        super().__init__(name, why)
        self._full = full
        self._quick = {**full, **quick}

    def inputs(self, seed: int, quick: bool = False) -> ExperimentConfig:
        params = self._quick if quick else self._full
        return ExperimentConfig(
            seed=LOTTERY_SEED, latency_seed=seed, **params
        )

    def set_up_only(self, inputs: ExperimentConfig) -> float | None:
        return set_up_wall(inputs)

    def execute(
        self, inputs: ExperimentConfig, tracing: Tracing | None = None
    ) -> Sample:
        return run_config(inputs, tracing)


def scenario_for(duration: float) -> dict:
    """Leader crash, a partition and a lossy window, placed as shares of
    the mining time (60/150/300 s of the full workload's 400 s)."""
    return {
        "version": 1,
        "name": "bench-crash-partition-loss",
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


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A directory under ``bench/out`` (never outside the checkout) that
    is gone again afterwards."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix="obs-", dir=OUT_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _trace_file(path: str) -> tuple[int, int, bool]:
    """Records, bytes, and whether the last record is ``trace_end``."""
    records = size = 0
    last = b"{}"
    try:
        with open(path, "rb") as handle:
            for last in handle:
                records += 1
                size += len(last)
    except OSError:
        pass  # no file at all: no end record either
    try:
        ended = json.loads(last).get("ev") == "trace_end"
    except ValueError:  # a run that raised leaves a torn last line
        ended = False
    return records, size, ended


class InstrumentedWorkload(ExperimentWorkload):
    """Sanitizer, observability and a fault scenario on at once.

    ``inputs`` is the bare twin — the same simulation with only the
    scenario, which changes what is simulated; ``execute`` switches the
    two pure observers on, so its outcome must equal the twin's.
    """

    def inputs(self, seed: int, quick: bool = False) -> ExperimentConfig:
        bare = super().inputs(seed, quick)
        return bare.with_(scenario=scenario_for(bare.duration))

    def set_up_only(self, inputs: ExperimentConfig) -> float:
        with scratch_dir() as obs_dir:
            return set_up_wall(inputs.with_(check=True, obs_dir=obs_dir))

    def execute(
        self,
        inputs: ExperimentConfig,
        tracing: Tracing | None = None,
        check: bool = True,
        obs: bool = True,
    ) -> Sample:
        faults = len(inputs.scenario["faults"])
        if not obs:
            return run_config(inputs.with_(check=check), tracing, faults)
        with scratch_dir() as obs_dir:
            config = inputs.with_(check=check, obs_dir=obs_dir)
            sample = run_config(config, tracing, faults)
            records, size, ended = _trace_file(
                f"{obs_dir}/{config_slug(config)}.trace.jsonl"
            )
            if not ended:
                # Still one failed operation, whatever else went wrong.
                sample.failures[:] = [
                    "; ".join(sample.failures + ["trace lacks its end record"])
                ]
            sample.counts["obs.trace.records"] = records
            sample.counts["obs.trace.bytes"] = size
        return sample

    def extras(self, inputs: ExperimentConfig, reference: Sample) -> Extras:
        """Each observer's cost against the bare twin, same process.

        ``reference`` is the untraced fully instrumented execution; the
        observers only watch, so every variant must simulate the same.
        """
        walls = {}
        failures = []
        for name, flags in (
            ("bare", dict(check=False, obs=False)),
            ("checked", dict(check=True, obs=False)),
            ("observed", dict(check=False, obs=True)),
        ):
            gc.collect()
            sample = self.execute(inputs, **flags)
            failures += sample.failures
            if sample.outcome != reference.outcome:
                failures.append(f"the {name} variant simulated something else")
            walls[name] = sample.wall_s
        bare = walls["bare"]
        ratios = {
            "sanitizer.checked_over_bare_ratio": walls["checked"] / bare,
            "obs.enabled_over_bare_ratio": walls["observed"] / bare,
            "instrumented_over_bare_ratio": reference.wall_s / bare,
        }
        return ratios, len(walls), failures


@contextlib.contextmanager
def _profiled_cells(tracing: Tracing | None) -> Iterator[None]:
    """While tracing, give every serial sweep cell its own profiler.

    The sweeps take no profiler, so the executor's ``run_experiment``
    is swapped for :func:`_profiled` and put back afterwards.
    """
    if tracing is None:
        yield
        return
    original = parallel.run_experiment
    parallel.run_experiment = lambda config: _profiled(config, tracing)
    try:
        yield
    finally:
        parallel.run_experiment = original


class SweepWorkload(ExperimentWorkload):
    """Figure 8's two grids, serially, as users regenerate them."""

    def set_up_only(self, inputs: ExperimentConfig) -> None:
        return None  # one execution is 24 set-ups already

    def execute(
        self, inputs: ExperimentConfig, tracing: Tracing | None = None
    ) -> Sample:
        grids = []
        part_walls = {}
        started = time.perf_counter()
        try:
            with _run_span(tracing), _profiled_cells(tracing):
                for sweep in (frequency_sweep, size_sweep):
                    sweep_started = time.perf_counter()
                    grids.append(sweep(inputs, seeds=(LOTTERY_SEED,), jobs=1))
                    part_walls[sweep.__name__] = (
                        time.perf_counter() - sweep_started
                    )
        except Exception:  # the whole grid is lost with one raising cell
            traceback.print_exc(file=sys.stderr)
            cells = 2 * (len(FREQUENCY_POINTS) + len(SIZE_POINTS))
            return _failed_sample(
                time.perf_counter() - started, cells, "a sweep cell raised"
            )
        wall = time.perf_counter() - started
        results = [
            result
            for grid in grids
            for point in grid.points
            for result in point.results
        ]
        failures = [
            f"cell {config_slug(result.config)}: {reasons}"
            for result in results
            for reasons in result_failures(result)
        ]
        counts = statistics_of(results)
        counts["experiments.sweep.cells"] = len(results)
        return Sample(
            wall_s=wall,
            setup_s=sum(r.wall_setup_seconds for r in results),
            simulate_s=sum(r.wall_simulate_seconds for r in results),
            blocks=sum(r.blocks_generated for r in results),
            attempted=len(results),
            failures=failures,
            outcome=tuple(outcome_of(result) for result in results),
            counts=counts,
            part_walls=part_walls,
        )

    def extras(self, inputs: ExperimentConfig, reference: Sample) -> Extras:
        """The reference execution's Figure 8a grid (one worker) over the
        same grid on two workers — measured only where a second CPU
        exists, else left out."""
        if len(os.sched_getaffinity(0)) < 2:
            return {}, 0, []
        gc.collect()
        started = time.perf_counter()
        grid = frequency_sweep(inputs, seeds=(LOTTERY_SEED,), jobs=2)
        wall = time.perf_counter() - started
        outcomes = tuple(
            outcome_of(result) for point in grid.points for result in point.results
        )
        failures = (
            []
            if outcomes == reference.outcome[: len(outcomes)]
            else ["the grid on two workers simulated something else"]
        )
        serial = reference.part_walls["frequency_sweep"]
        return {"experiments.parallel.jobs2_speedup": serial / wall}, 1, failures


class PaymentsWorkload(Workload):
    """Twelve full-validation NG nodes serializing signed payments."""

    def inputs(self, seed: int, quick: bool = False) -> payments.PaymentPlan:
        if quick:
            return payments.make_plan(
                seed, LOTTERY_SEED, n_nodes=6, n_wallets=4
            )
        return payments.make_plan(seed, LOTTERY_SEED)

    def set_up_only(self, inputs: payments.PaymentPlan) -> float:
        started = time.perf_counter()
        payments.build_world(inputs)
        return time.perf_counter() - started

    def execute(
        self, inputs: payments.PaymentPlan, tracing: Tracing | None = None
    ) -> Sample:
        profiler = ProfilerRuntime() if tracing is not None else None
        n_payments = len(inputs.payments)
        started = time.perf_counter()
        try:
            with _run_span(tracing):
                world = payments.build_world(inputs)
                if profiler is not None:
                    profiler.install(world.sim, inputs.n_nodes)
                set_up = time.perf_counter()
                payments.run_world(world)
                simulated = time.perf_counter()
                log = world.log
                shares = [1.0 / inputs.n_nodes] * inputs.n_nodes
                paper = (
                    consensus_delay(log),
                    fairness(log, power_shares=shares),
                    mining_power_utilization(log),
                    time_to_prune(log),
                    time_to_win(log),
                    transaction_frequency(log),
                )
                main_chain = len(log.main_chain())
        except Exception:  # the simulation and all its payments failed
            traceback.print_exc(file=sys.stderr)
            return _failed_sample(
                time.perf_counter() - started,
                1 + n_payments,
                "the payments simulation raised",
            )
        wall = time.perf_counter() - started
        if tracing is not None and profiler is not None:
            tracing.profiles.append(
                profiler.build_profile(
                    {},
                    set_up - started,
                    simulated - set_up,
                    world.sim.events_processed,
                    end_time=inputs.horizon,
                )
            )
        committed = payments.committed_at(world)
        failures = payments.payment_failures(world, committed)
        if any(math.isnan(value) for value in paper):
            failures.append("a paper metric of the payments run is NaN")
        blocks = len(log.index)
        messages = world.network.messages_delivered
        counts = dict(zip(STATISTIC_NAMES, paper))
        counts.update(
            {
                "metrics.blocks_generated": blocks,
                "metrics.main_chain_length": main_chain,
                "metrics.commit_latency_sim_s": payments.commit_latency(
                    world, committed
                ),
                "net.simulator.events": world.sim.events_processed,
                "net.network.messages_delivered": messages,
                "net.network.messages_per_block": messages / blocks,
                "payments.committed": len(committed),
            }
        )
        return Sample(
            wall_s=wall,
            setup_s=set_up - started,
            simulate_s=simulated - set_up,
            blocks=blocks,
            attempted=1 + n_payments,
            failures=failures,
            outcome=(
                paper,
                blocks,
                main_chain,
                world.sim.events_processed,
                messages,
                tuple(sorted(committed.items())),
            ),
            counts=counts,
        )


NG = Protocol.BITCOIN_NG
_SCALE = dict(
    n_nodes=1000,
    target_blocks=16,
    target_key_blocks=2,
    block_rate=0.4,
    key_block_rate=0.05,
    block_size_bytes=8000,
    cooldown=15.0,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ExperimentWorkload(
            "ng_scale_1000",
            "The paper's network size: gossip fan-out and event dispatch in "
            "net plus node construction in setup do most of the work; "
            "crypto and ledger are idle.",
            full=dict(protocol=NG, **_SCALE),
            quick=dict(n_nodes=150),
        ),
        ExperimentWorkload(
            "ng_micro_60",
            "A 200-block chain on a small net: core's microblock delivery "
            "and generation dominate, setup is 5%; a net fan-out gain "
            "should barely show.",
            full=dict(
                protocol=NG,
                n_nodes=60,
                target_blocks=120,
                target_key_blocks=8,
                block_rate=0.4,
                key_block_rate=0.02,
                block_size_bytes=8000,
                cooldown=15.0,
            ),
            quick=dict(n_nodes=20, target_blocks=40, target_key_blocks=3),
        ),
        ExperimentWorkload(
            "btc_scale_1000",
            "ng_scale_1000's network driven by bitcoin instead of core: a "
            "net gain must show here too, a core-only gain must not, and "
            "NG's 10x dearer setup shows by contrast.",
            full=dict(protocol=Protocol.BITCOIN, **_SCALE),
            quick=dict(n_nodes=150),
        ),
        PaymentsWorkload(
            "ng_payments_full_12",
            "Full validation, which the paper's testbed skipped: pure-Python "
            "ECDSA plus ledger, wallet and mempool are nearly all of the "
            "wall and net is under 1%; only here can signature caching show.",
        ),
        InstrumentedWorkload(
            "ng_instrumented_100",
            "Sanitizer, obs and a crash/partition/loss scenario on at once, "
            "plus gossip's timeout and resync paths: a bare-loop gain paid "
            "for by the hooked loop shows as a loss here.",
            full=dict(
                protocol=NG,
                n_nodes=100,
                target_blocks=160,
                target_key_blocks=10,
                block_rate=0.4,
                key_block_rate=0.025,
                block_size_bytes=8000,
                cooldown=30.0,
            ),
            quick=dict(n_nodes=30, target_blocks=60, target_key_blocks=4),
        ),
        SweepWorkload(
            "fig8_sweep_60",
            "Regenerating Figure 8: 24 short cells, so per-cell setup and "
            "metrics are paid 24 times; work moved into setup, or a cache "
            "that only pays off in long runs, shows as a loss here.",
            full=dict(
                n_nodes=60, target_blocks=60, target_key_blocks=6, cooldown=30.0
            ),
            quick=dict(n_nodes=12, target_blocks=10, target_key_blocks=3),
        ),
    )
}
