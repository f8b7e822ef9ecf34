"""Performance regression microbenchmarks (emits ``BENCH_simcore.json``).

Measurements, each written into a machine-readable JSON at the
repository root so every PR leaves a perf trajectory behind:

* **event core** — a 200k-event chained-timer pump: pure scheduler
  dispatch, no protocol logic.
* **single run** — one Bitcoin-NG experiment, reporting wall time and
  events/sec (:func:`best_of`).
* **1000-node scale** — the paper's full network size, gating that the
  array-core network layer retains at least a third of the 60-node
  dispatch rate at 16x the node count.
* **sweep dispatch** — a 4-seed sweep executed serially and through the
  parallel :class:`~repro.experiments.parallel.SweepExecutor` with four
  workers, asserting bit-identical results and recording the speedup.
* **code size** — non-blank, non-comment lines per top-level package
  and in total, so a code diet leaves a trajectory the way a speed-up
  does.  Recorded only; nothing gates on it.

The ``BASELINE`` numbers were measured on the pre-optimization tree
(commit bc0571a) on the same container these benchmarks run in, so the
JSON shows the improvement of this tree over that baseline.  Absolute
assertions are kept generous (they guard against pathological
regressions, not noise); the parallel speedup assertion only applies
when the machine actually has enough cores to parallelize.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import asdict, dataclass
from typing import Any

from repro.experiments import ExperimentConfig, Protocol, run_experiment
from repro.experiments.parallel import SweepExecutor
from repro.net.simulator import Simulator

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_simcore.json"


@dataclass(frozen=True)
class RunPerf:
    """Wall-clock performance counters for one simulation run."""

    wall_seconds: float
    events_processed: int
    messages_delivered: int
    events_per_sec: float
    messages_per_sec: float
    sim_seconds: float
    sim_seconds_per_wall_second: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def best_of(config: ExperimentConfig, repeats: int = 3) -> RunPerf:
    """The fastest of ``repeats`` measurements — least scheduler noise."""
    best: RunPerf | None = None
    for _ in range(repeats):
        start = time.perf_counter()
        result, _log = run_experiment(config)
        wall = max(time.perf_counter() - start, 1e-9)
        if best is None or wall < best.wall_seconds:
            best = RunPerf(
                wall_seconds=wall,
                events_processed=result.events_processed,
                messages_delivered=result.messages_delivered,
                events_per_sec=result.events_processed / wall,
                messages_per_sec=result.messages_delivered / wall,
                sim_seconds=result.duration,
                sim_seconds_per_wall_second=result.duration / wall,
            )
    assert best is not None
    return best


def update_bench(path: pathlib.Path, section: str, payload: Any) -> None:
    """Merge one section into the benchmark JSON (or create it), as
    stable, diff-friendly JSON."""
    data: dict[str, Any] = {}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data[section] = payload
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

# Pre-PR numbers, measured at commit bc0571a (seed tree) on this
# container (single CPU), best of repeated runs of the identical
# workloads below.
BASELINE = {
    "commit": "bc0571a",
    "event_core_events_per_sec": 641_693.0,
    "single_run": {
        "wall_seconds": 1.731,
        "events_processed": 171_946,
        "events_per_sec": 99_340.0,
    },
    "sweep_serial_wall_seconds": 1.390,
}

# Single-run workload: a Bitcoin-NG execution heavy enough to time
# stably (~170k events on the seed tree).
MICRO_CONFIG = ExperimentConfig(
    protocol=Protocol.BITCOIN_NG,
    n_nodes=60,
    target_blocks=120,
    target_key_blocks=8,
    block_rate=0.4,
    key_block_rate=0.02,
    block_size_bytes=8000,
    cooldown=15.0,
    seed=7,
)

# Full-scale workload: the paper's 1000-node network, sized so one
# repeat finishes in a few seconds (the array core sustains well over
# 100k events/sec at this size on the baseline container).
SCALE_CONFIG = ExperimentConfig(
    protocol=Protocol.BITCOIN_NG,
    n_nodes=1000,
    target_blocks=16,
    target_key_blocks=2,
    block_rate=0.4,
    key_block_rate=0.05,
    block_size_bytes=8000,
    cooldown=15.0,
    seed=7,
)

# Sweep workload: four seeds of one moderate cell.
SWEEP_BASE = ExperimentConfig(
    protocol=Protocol.BITCOIN_NG,
    n_nodes=40,
    target_blocks=60,
    target_key_blocks=6,
    block_rate=0.2,
    key_block_rate=0.02,
    block_size_bytes=8000,
    cooldown=15.0,
)
SWEEP_SEEDS = (0, 1, 2, 3)
SWEEP_WORKERS = 4

# Generous wall-clock ceilings: ~20x the expected numbers, so only a
# pathological regression (or a dead machine) trips them.
SINGLE_RUN_WALL_CEILING = 40.0
SWEEP_WALL_CEILING = 60.0
PUMP_EVENTS = 200_000

# The sanitizer gate: a cold-cache checked 60-node NG run must stay
# within this multiple of the bare run's wall time (sweeping every node
# with an uncached INV104 cost 20-30x on the same workload).
INCREMENTAL_RATIO_CEILING = 3.0


def _pump_round(observer: Any = None) -> float:
    """One pass of the self-rescheduling pump: events per wall second."""
    sim = Simulator(seed=0)
    if observer is not None:
        sim.attach(observer)
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < PUMP_EVENTS:
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run()
    return PUMP_EVENTS / (time.perf_counter() - start)


def _pump_events_per_sec() -> float:
    """Dispatch rate of the bare event loop (no network, no protocol)."""
    return max(_pump_round() for _ in range(3))


def test_event_core_dispatch_rate():
    rate = _pump_events_per_sec()
    update_bench(
        BENCH_JSON,
        "event_core",
        {
            "events": PUMP_EVENTS,
            "events_per_sec": round(rate, 1),
            "baseline_events_per_sec": BASELINE["event_core_events_per_sec"],
            "speedup_vs_baseline": round(
                rate / BASELINE["event_core_events_per_sec"], 3
            ),
        },
    )
    # The tuple-heap core more than doubled this on the baseline host;
    # the floor only guards against a wholesale regression.
    assert rate > 100_000, f"event core collapsed to {rate:,.0f} ev/s"


def test_single_run_event_rate():
    perf = best_of(MICRO_CONFIG, repeats=3)
    update_bench(
        BENCH_JSON,
        "single_run",
        {
            "config": {
                "protocol": MICRO_CONFIG.protocol.value,
                "n_nodes": MICRO_CONFIG.n_nodes,
                "block_rate": MICRO_CONFIG.block_rate,
                "block_size_bytes": MICRO_CONFIG.block_size_bytes,
                "seed": MICRO_CONFIG.seed,
            },
            **{k: round(v, 3) if isinstance(v, float) else v
               for k, v in perf.as_dict().items()},
            "baseline": BASELINE["single_run"],
            "wall_speedup_vs_baseline": round(
                BASELINE["single_run"]["wall_seconds"] / perf.wall_seconds, 3
            ),
            "events_per_sec_vs_baseline": round(
                perf.events_per_sec
                / BASELINE["single_run"]["events_per_sec"],
                3,
            ),
        },
    )
    assert perf.wall_seconds < SINGLE_RUN_WALL_CEILING
    assert perf.events_processed > 0


def test_scale_1000_event_rate():
    """The paper-scale network keeps >= 1/3 of the 60-node event rate.

    This is the array-core contract made into a perf gate: per-event
    cost in ``repro.net`` is O(neighbor degree) arithmetic over flat
    arrays, so growing the network 16x (60 -> 1000 nodes) may dilute
    the dispatch rate through cache pressure and deeper heaps, but must
    not collapse it the way per-edge hash lookups and tuple allocation
    did.  Both sides are measured fresh here (same ``best_of`` harness)
    so the ratio compares like with like on whatever machine runs this.
    """
    small = best_of(MICRO_CONFIG, repeats=2)
    big = best_of(SCALE_CONFIG, repeats=2)
    ratio = big.events_per_sec / small.events_per_sec
    update_bench(
        BENCH_JSON,
        "scale_1000",
        {
            "config": {
                "protocol": SCALE_CONFIG.protocol.value,
                "n_nodes": SCALE_CONFIG.n_nodes,
                "block_rate": SCALE_CONFIG.block_rate,
                "key_block_rate": SCALE_CONFIG.key_block_rate,
                "block_size_bytes": SCALE_CONFIG.block_size_bytes,
                "seed": SCALE_CONFIG.seed,
            },
            **{k: round(v, 3) if isinstance(v, float) else v
               for k, v in big.as_dict().items()},
            "small_run_events_per_sec": round(small.events_per_sec, 1),
            "scale_retention_vs_60_nodes": round(ratio, 3),
        },
    )
    assert big.events_processed > 100_000  # genuinely full-scale work
    assert ratio >= 1 / 3, (
        f"1000-node rate fell to {ratio:.1%} of the 60-node rate "
        f"({big.events_per_sec:,.0f} vs {small.events_per_sec:,.0f} ev/s)"
    )


def test_sweep_parallel_identical_and_timed():
    configs = [SWEEP_BASE.with_(seed=seed) for seed in SWEEP_SEEDS]

    start = time.perf_counter()
    serial = SweepExecutor(jobs=1).map(configs)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel = SweepExecutor(jobs=SWEEP_WORKERS).map(configs)
    parallel_wall = time.perf_counter() - start

    # Determinism across dispatch modes: the whole point of result
    # ordering being submission order.
    assert parallel == serial

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    speedup = serial_wall / max(parallel_wall, 1e-9)
    update_bench(
        BENCH_JSON,
        "sweep_dispatch",
        {
            "seeds": list(SWEEP_SEEDS),
            "workers": SWEEP_WORKERS,
            "cpus_available": cpus,
            "serial_wall_seconds": round(serial_wall, 3),
            "parallel_wall_seconds": round(parallel_wall, 3),
            "speedup_parallel_over_serial": round(speedup, 3),
            "baseline_serial_wall_seconds": BASELINE[
                "sweep_serial_wall_seconds"
            ],
            "serial_speedup_vs_baseline": round(
                BASELINE["sweep_serial_wall_seconds"] / max(serial_wall, 1e-9),
                3,
            ),
        },
    )
    update_bench(BENCH_JSON, "baseline", BASELINE)

    assert serial_wall < SWEEP_WALL_CEILING
    assert parallel_wall < SWEEP_WALL_CEILING
    if cpus >= SWEEP_WORKERS:
        # Four independent single-CPU simulations on >=4 cores: anything
        # under 2x means the pool is broken, not merely noisy.
        assert speedup >= 2.0, f"parallel dispatch only {speedup:.2f}x"


def test_obs_disabled_overhead():
    """What turning observability fully on costs a real run (unasserted).

    Records the enabled and disabled walls of one experiment for the
    docs.  There is no disabled-versus-bare gate: ``NULL_OBS.install``
    does nothing, so such a gate timed one loop against itself.
    """
    from repro.obs import Observability
    from repro.obs.trace import MemorySink, Tracer

    obs_config = SWEEP_BASE.with_(seed=0)
    start = time.perf_counter()
    run_experiment(obs_config)
    off_wall = time.perf_counter() - start

    start = time.perf_counter()
    run_experiment(obs_config, obs=Observability(tracer=Tracer(MemorySink())))
    on_wall = time.perf_counter() - start

    update_bench(
        BENCH_JSON,
        "obs_overhead",
        {
            "enabled_run_wall_seconds": round(on_wall, 3),
            "disabled_run_wall_seconds": round(off_wall, 3),
            "enabled_over_disabled_wall_ratio": round(
                on_wall / max(off_wall, 1e-9), 3
            ),
        },
    )


class _PassThroughObserver:
    """Attached, but asks for nothing: hands back the pair it was given."""

    def wrap_dispatch(self, heappop: Any, probe: Any) -> tuple[Any, Any]:
        return heappop, probe


def test_observer_seam_overhead():
    """Attaching to the dispatch seam costs nothing per event.

    ``Simulator.attach`` is how the sanitizer and the profiler watch the
    one dispatch loop: each observer is asked once per ``run()`` for the
    pop and the probe to use.  An observer that hands back what it was
    given leaves the loop on ``heapq.heappop`` with no probe — the very
    loop an unobserved run executes — so interleaved rounds of the
    200k-event pump, observed over bare, must stay within the 5% bound
    the observability layer honors.  The bound trips if per-event work
    ever lands in the seam itself rather than in what an observer asks
    for.  (What an observer that *does* ask costs is the gated
    ``sanitizer_incremental`` section and the ``profile`` section.)
    """
    bare_rate = 0.0
    observed_rate = 0.0
    for _ in range(9):  # best-of: noise only ever slows a round down
        bare_rate = max(bare_rate, _pump_round())
        observed_rate = max(observed_rate, _pump_round(_PassThroughObserver()))

    ratio = observed_rate / bare_rate
    update_bench(
        BENCH_JSON,
        "observer_seam",
        {
            "pump_events": PUMP_EVENTS,
            "bare_events_per_sec": round(bare_rate, 1),
            "pass_through_observer_events_per_sec": round(observed_rate, 1),
            "observed_over_bare_ratio": round(ratio, 4),
        },
    )
    assert ratio >= 0.95, (
        f"an attached pass-through observer cost {1 - ratio:.1%} of "
        f"dispatch rate (bound: 5%)"
    )


def test_sanitizer_incremental_speed():
    """Incremental checking keeps the 60-node NG run within 3x of bare.

    The gate the incremental design exists for: sweeping every node
    on every sweep cost 20-30x bare wall on this workload, almost
    entirely INV104 re-verifying every microblock signature on every
    node.  The runtime skips provably-clean nodes via the dirty-set
    tracker and memoizes signature verdicts in the process-wide
    :class:`~repro.sanitizer.checkers.SignatureCache`, so a *cold-cache*
    checked run must now land within ``INCREMENTAL_RATIO_CEILING`` of
    bare — and stay bit-identical to it.  A warm-cache repeat is
    recorded unasserted (that is the cost sweeps and repeated runs pay).
    """
    from repro.sanitizer.checkers import shared_signature_cache

    bare_wall = float("inf")
    bare_result = None
    for _ in range(2):
        start = time.perf_counter()
        bare_result, _ = run_experiment(MICRO_CONFIG)
        bare_wall = min(bare_wall, time.perf_counter() - start)

    checked_config = MICRO_CONFIG.with_(
        check=True, check_mode="incremental", check_stride=64
    )
    cache = shared_signature_cache()
    cache.clear()
    start = time.perf_counter()
    cold_result, _ = run_experiment(checked_config)
    cold_wall = time.perf_counter() - start
    cold_misses, cold_hits = cache.misses, cache.hits

    start = time.perf_counter()
    warm_result, _ = run_experiment(checked_config)
    warm_wall = time.perf_counter() - start

    # Checked runs observe, never perturb: bit-identical to bare.
    assert len(cold_result.violations) == 0
    assert cold_result.as_row() == bare_result.as_row()
    assert cold_result.events_processed == bare_result.events_processed
    assert cold_result.messages_delivered == bare_result.messages_delivered
    assert warm_result.as_row() == cold_result.as_row()

    cold_ratio = cold_wall / max(bare_wall, 1e-9)
    warm_ratio = warm_wall / max(bare_wall, 1e-9)
    update_bench(
        BENCH_JSON,
        "sanitizer_incremental",
        {
            "config": {
                "protocol": MICRO_CONFIG.protocol.value,
                "n_nodes": MICRO_CONFIG.n_nodes,
                "block_rate": MICRO_CONFIG.block_rate,
                "block_size_bytes": MICRO_CONFIG.block_size_bytes,
                "seed": MICRO_CONFIG.seed,
            },
            "bare_wall_seconds": round(bare_wall, 3),
            "checked_cold_wall_seconds": round(cold_wall, 3),
            "checked_warm_wall_seconds": round(warm_wall, 3),
            "checked_cold_over_bare_ratio": round(cold_ratio, 3),
            "checked_warm_over_bare_ratio": round(warm_ratio, 3),
            "signature_cache_misses_cold": cold_misses,
            "signature_cache_hits_cold": cold_hits,
            "ratio_ceiling": INCREMENTAL_RATIO_CEILING,
            "bit_identical_to_bare": True,
        },
    )
    assert cold_ratio <= INCREMENTAL_RATIO_CEILING, (
        f"incremental checked run cost {cold_ratio:.2f}x bare wall "
        f"(gate: {INCREMENTAL_RATIO_CEILING}x)"
    )


def test_scenario_disabled_overhead():
    """A run without a scenario pays nothing for the fault engine.

    ``run_experiment`` only constructs a :class:`ScenarioEngine` when
    ``config.scenario`` is set, and an empty scenario schedules zero
    events — so the no-scenario and empty-scenario executions must be
    result-identical, and their wall times statistically the same.  The
    bound trips if scenario dispatch ever leaks into the per-event hot
    path of bare runs.
    """
    bare_config = SWEEP_BASE.with_(seed=2)
    empty_config = bare_config.with_(
        scenario={"version": 1, "name": "empty", "faults": []}
    )

    bare_wall = float("inf")
    empty_wall = float("inf")
    bare_result = empty_result = None
    # Interleaved best-of rounds, like the obs A/B above.
    for _ in range(2):
        start = time.perf_counter()
        bare_result, _ = run_experiment(bare_config)
        bare_wall = min(bare_wall, time.perf_counter() - start)
        start = time.perf_counter()
        empty_result, _ = run_experiment(empty_config)
        empty_wall = min(empty_wall, time.perf_counter() - start)

    # Bit-identical executions (config differs, so compare the rows and
    # execution counters rather than the frozen result objects).
    assert empty_result.as_row() == bare_result.as_row()
    assert empty_result.events_processed == bare_result.events_processed
    assert empty_result.messages_delivered == bare_result.messages_delivered
    assert empty_result.faults_injected == 0

    ratio = empty_wall / max(bare_wall, 1e-9)
    update_bench(
        BENCH_JSON,
        "scenario_overhead",
        {
            "bare_wall_seconds": round(bare_wall, 3),
            "empty_scenario_wall_seconds": round(empty_wall, 3),
            "empty_over_bare_wall_ratio": round(ratio, 4),
            "events_processed": bare_result.events_processed,
            "identical_results": True,
        },
    )
    # Generous: the empty engine costs one validation + zero events, so
    # anything beyond noise means dispatch leaked into the hot path.
    assert ratio < 1.20, (
        f"empty scenario cost {ratio - 1:.1%} wall time over a bare run"
    )


def _phase_breakdown(profile, top: int = 10) -> dict:
    """Compact per-phase JSON rows for the trajectory file."""
    total = profile.wall_simulate_seconds
    return {
        phase: {
            "seconds": round(stat.seconds, 3),
            "share": round(stat.seconds / total, 4) if total else 0.0,
            "calls": stat.calls,
        }
        for phase, stat in profile.top_phases(top)
    }


def test_profiler_attribution():
    """Profiled runs stay bit-identical and attribute >= 95% of wall.

    Three real workloads feed the ``profile`` trajectory section: the
    60-node micro run (with an A/B bit-identicality check against a
    bare run), the paper's 1000-node network (gating the >= 95%
    attribution coverage the profiler promises), and a checked run
    whose per-INV1xx-checker costs answer "which invariant makes
    ``--check`` slow" with measured numbers.
    """
    from repro.prof import profile_experiment

    bare_result, _ = run_experiment(MICRO_CONFIG)
    start = time.perf_counter()
    prof_result, _, small = profile_experiment(MICRO_CONFIG)
    prof_wall = time.perf_counter() - start
    # Profiling measures, never perturbs.
    assert prof_result.as_row() == bare_result.as_row()
    assert prof_result.events_processed == bare_result.events_processed

    _, _, big = profile_experiment(SCALE_CONFIG)
    assert big.coverage >= 0.95, (
        f"1000-node profile attributes only {big.coverage:.1%} "
        f"of simulate wall (bound: 95%)"
    )

    checked_config = SWEEP_BASE.with_(seed=0, check=True, check_stride=64)
    _, _, checked = profile_experiment(checked_config)
    assert checked.checkers, "checked profiled run recorded no checker costs"
    checker_rows = {
        code: {
            "seconds": round(stat.seconds, 3),
            "share": round(
                stat.seconds / checked.wall_simulate_seconds, 4
            ),
            "calls": stat.calls,
        }
        for code, stat in sorted(
            checked.checkers.items(),
            key=lambda item: -item[1].seconds,
        )
    }

    update_bench(
        BENCH_JSON,
        "profile",
        {
            "micro_60": {
                "events_processed": small.events_processed,
                "wall_simulate_seconds": round(
                    small.wall_simulate_seconds, 3
                ),
                "coverage": round(small.coverage, 4),
                "bit_identical_to_bare": True,
                "phases": _phase_breakdown(small),
            },
            "scale_1000": {
                "events_processed": big.events_processed,
                "wall_simulate_seconds": round(big.wall_simulate_seconds, 3),
                "coverage": round(big.coverage, 4),
                "phases": _phase_breakdown(big),
            },
            "checked_40": {
                "events_processed": checked.events_processed,
                "wall_simulate_seconds": round(
                    checked.wall_simulate_seconds, 3
                ),
                "sanitize_share": round(
                    checked.phases["sanitize"].seconds
                    / checked.wall_simulate_seconds,
                    4,
                ),
                "checkers": checker_rows,
            },
            "profiled_run_wall_seconds": round(prof_wall, 3),
        },
    )


def test_lint_speed():
    """The static analyzer fits a pre-commit budget: src/ in under 10s.

    ``repro lint`` is wired into CI and meant for pre-commit hooks, so
    its wall time on the full tree is a perf surface like any other:
    the budget trips if a rule ever grows a quadratic pass.  The clean
    assertion doubles as the merged-tree invariant the CI lint job
    enforces — zero findings.
    """
    from repro.lint import RULES, lint_paths

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    report = lint_paths([src])
    wall = time.perf_counter() - start
    update_bench(
        BENCH_JSON,
        "lint",
        {
            "files_scanned": report.files_scanned,
            "rules": len(RULES),
            "wall_seconds": round(wall, 3),
            "findings": len(report.findings),
        },
    )
    assert report.findings == [], "\n".join(
        finding.format() for finding in report.findings
    )
    assert wall < 10.0, f"lint took {wall:.2f}s on src/ (budget: 10s)"


def test_mutate_speed(tmp_path):
    """A scoped mutation run fits CI and warm re-runs are near-free.

    Runs a small but real slice of the mutation pipeline — every tier,
    one anchor module, a dozen mutants — twice against the same verdict
    cache.  The cold pass pays for the baseline probe plus one shadow
    evaluation per mutant; the warm pass must be served almost entirely
    from the content-addressed cache (the steady state for PR-scoped CI
    runs and local re-runs), so its wall is gated at a tenth of cold.
    The emitted section carries the kill statistics for the trajectory.
    """
    from repro.mutate import MutationEngine, bench_section

    repo = pathlib.Path(__file__).resolve().parent.parent
    engine = MutationEngine(
        repo, cache_path=tmp_path / "mutate-cache.json"
    )
    scope = dict(
        only_files=["src/repro/core/incentives.py"], max_mutants=12
    )

    start = time.perf_counter()
    cold = engine.run(**scope)
    cold_wall = time.perf_counter() - start
    assert cold.cache_hits == 0

    warm_engine = MutationEngine(
        repo, cache_path=tmp_path / "mutate-cache.json"
    )
    start = time.perf_counter()
    warm = warm_engine.run(**scope)
    warm_wall = time.perf_counter() - start
    assert warm.cache_misses == 0
    assert [v.to_dict() for v in warm.verdicts] == [
        v.to_dict() for v in cold.verdicts
    ]

    ratio = warm_wall / max(cold_wall, 1e-9)
    update_bench(
        BENCH_JSON,
        "mutation",
        {
            **bench_section(cold),
            "scope": "src/repro/core/incentives.py (first 12 mutants)",
            "cold_wall_seconds": round(cold_wall, 3),
            "warm_wall_seconds": round(warm_wall, 3),
            "warm_over_cold_ratio": round(ratio, 4),
        },
    )
    assert len(cold.verdicts) > 0
    assert ratio < 0.10, (
        f"warm mutation re-run cost {ratio:.1%} of cold (gate: 10%)"
    )


def _code_lines(path: pathlib.Path) -> int:
    lines = map(str.strip, path.read_text(encoding="utf-8").splitlines())
    return sum(1 for text in lines if text and not text.startswith("#"))


def test_code_size():
    """Record how much code there is, per top-level ``repro.*`` package.

    "Least code" is a goal like speed is, so it gets a trajectory in the
    same file: non-blank, non-comment lines (docstrings count) summed
    per package, plus the total.  Recorded, not gated.
    """
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    packages: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        top = path.relative_to(root).parts[0].removesuffix(".py")
        name = "repro" if top.startswith("__") else f"repro.{top}"
        packages[name] = packages.get(name, 0) + _code_lines(path)
    update_bench(
        BENCH_JSON,
        "code_size",
        {
            "unit": "non-blank non-comment lines",
            "packages": packages,
            "total": sum(packages.values()),
        },
    )
    assert packages["repro.core"] > 0


def test_bench_json_is_valid():
    """The emitted trajectory file parses and has every section."""
    data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    for section in (
        "event_core",
        "single_run",
        "scale_1000",
        "sweep_dispatch",
        "obs_overhead",
        "observer_seam",
        "sanitizer_incremental",
        "scenario_overhead",
        "profile",
        "lint",
        "mutation",
        "code_size",
        "baseline",
    ):
        assert section in data, f"missing {section}"
