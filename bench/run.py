#!/usr/bin/env python3
"""The benchmark's one command.  See ``bench/README.md``.

One measured run, the form ``BENCHMARK.json``'s driver calls::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

The whole suite, each run in a fresh single-threaded subprocess, with a
stamped result file under ``bench/out/``::

    python3 bench/run.py [--seed 7] [--runs 1] [--workload W] [--traced]

Two result files against each other::

    python3 bench/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: make ``bench`` importable as the package it is.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import BENCH_DIR, OUT_DIR, ROOT, use_checkout_source
from bench.compare import compare, end_to_end_values, exact_unit
from bench.hostspeed import HostSpeedProbe
from bench.stats import quartiles, spread

SPEC_PATH = ROOT / "BENCHMARK.json"
# A run's ``setup_s`` is the median of at least this many set-ups.
MIN_SETUPS = 5


def load_spec() -> dict:
    """``BENCHMARK.json``: the one list of workloads, metrics and bounds."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=7, help="input seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measuring time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="do one measured run in this process: 0 times the end-to-end "
        "metrics, 1 traces the per-layer metrics",
    )
    parser.add_argument(
        "--runs", type=int, default=1, help="suite: runs per workload, seeds seed..seed+runs-1"
    )
    parser.add_argument(
        "--traced", action="store_true", help="suite: add a traced run per seed"
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sizes (for the tests)"
    )
    parser.add_argument(
        "--out", default=str(OUT_DIR), help="suite: directory for the result file"
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


# -- one measured run ---------------------------------------------------------


def measure(args: argparse.Namespace, spec: dict) -> int:
    """One run of one workload in this process; the result is the last line."""
    import_started = time.perf_counter()
    use_checkout_source()
    import repro.experiments.runner  # noqa: F401  (timed: the harness import)

    import_s = time.perf_counter() - import_started
    if ROOT not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"bench: imported repro from {repro.__file__}")
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"bench: unknown workload {args.workload!r} "
            f"(one of: {', '.join(WORKLOADS)})"
        )
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, quick=args.quick)
    print(
        f"bench {workload.name} seed={args.seed} trace={args.trace}"
        f"{' quick' if args.quick else ''}"
    )
    if args.trace:
        return _measure_layers(args, spec, workload, inputs, import_s)
    return _measure_end_to_end(args, spec, workload, inputs)


def _measure_end_to_end(args, spec, workload, inputs) -> int:
    # Imports, lazy set-up and first-call paths are paid here, on a
    # reduced copy of the workload, and discarded.
    workload.execute(workload.inputs(args.seed, quick=True))
    samples, windows, setups = [], [], []
    with HostSpeedProbe() as probe:
        deadline = time.perf_counter() + args.seconds
        while True:
            gc.collect()
            mark = probe.mark()
            samples.append(workload.execute(inputs))
            windows.append(probe.window(mark))
            # Stop when one more execution would not fit.
            if time.perf_counter() + windows[-1].wall_s > deadline:
                break
        # A workload too long to repeat often still sets up several
        # times, in one window long enough for the probe to fire in.
        mark = probe.mark()
        started = time.perf_counter()
        walls = []
        while len(samples) + len(walls) < MIN_SETUPS or (
            walls and time.perf_counter() - started < 0.1
        ):
            gc.collect()
            setup_s = workload.set_up_only(inputs)
            if setup_s is None:  # only whole executions set this one up
                break
            walls.append(setup_s)
        if walls:
            factor = probe.window(mark).factor
            setups = [setup_s * factor for setup_s in walls]
    failures = [reason for sample in samples for reason in sample.failures]
    if any(
        (sample.outcome, sample.counts) != (samples[0].outcome, samples[0].counts)
        for sample in samples
    ):
        failures.append("repeats of one input simulated different things")
    good = [
        (sample, window.factor)
        for sample, window in zip(samples, windows)
        if not sample.failures
    ]
    if not good:
        _nothing_to_report(failures)
    # Every wall is scaled by the host's speed while it was measured
    # (see hostspeed.py), so the figures are reference-host time.
    series = {
        "setup_s": [s.setup_s * f for s, f in good] + setups,
        "run_ms_per_block": [s.wall_s * f / s.blocks * 1e3 for s, f in good],
        "blocks_per_wall_s": [s.blocks / (s.simulate_s * f) for s, f in good],
        "peak_rss_mb": [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ],
    }
    values = {name: statistics.median(series[name]) for name in series}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    detail = {
        "repeats": len(samples),
        "samples": series,
        "host": {
            "speed": [window.speed for window in windows],
            "on_cpu_share": [window.on_cpu_share for window in windows],
            "probe_share": [window.probe_share for window in windows],
            "probes": sum(window.probes for window in windows),
            "raw_wall_s": [sample.wall_s for sample in samples],
        },
        "counts": {
            name: value
            for name, value in good[0][0].counts.items()
            if exact_unit(units.get(name, ""))
        },
        "failures": failures,
    }
    attempted = sum(sample.attempted for sample in samples)
    return _report(spec["end_to_end"], values, attempted, failures, detail, series)


def _measure_layers(args, spec, workload, inputs, import_s: float) -> int:
    from bench.trace import TracedRun

    run_id = f"{workload.name}-seed{args.seed}"
    run = TracedRun(workload, inputs, run_id)
    values = {"experiments.import.busy_s": import_s, **run.metrics}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"{workload.name}.trace.json"
    trace_path.write_text(
        json.dumps({"stamp": stamp(), **run.tracing.recorder.to_dict()}),
        encoding="utf-8",
    )
    print(run.ledger())
    print(f"  {len(run.tracing.recorder)} spans written to {trace_path}")
    if not run.metrics:
        _nothing_to_report(run.failures)
    named = {m["name"] for m in spec["per_layer"]}
    detail = {
        "repeats": 1,
        "extra_metrics": {
            name: value for name, value in values.items() if name not in named
        },
        "failures": run.failures,
    }
    return _report(spec["per_layer"], values, run.attempted, run.failures, detail)


def _nothing_to_report(failures: list[str]) -> None:
    """No execution succeeded: say why and exit without a result line."""
    for reason in failures:
        print(f"  FAILED: {reason}", file=sys.stderr)
    raise SystemExit("bench: every execution failed, nothing to report")


def _report(
    metrics: list[dict],
    values: dict[str, float],
    attempted: int,
    failures: list[str],
    detail: dict,
    series: dict[str, list[float]] | None = None,
) -> int:
    """Print every metric by name with its unit, then the result line."""
    for metric in metrics:
        name = metric["name"]
        line = f"  {name:<42}{values.get(name, 0.0):>16.6g} {metric['unit']}"
        if series and len(series.get(name, ())) > 1:
            q1, _, q3 = quartiles(series[name])
            line += f"   [q1 {q1:.6g}, q3 {q3:.6g}, n={len(series[name])}]"
        print(line)
    for reason in failures:
        print(f"  FAILED: {reason}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": min(len(failures), attempted),
                "metrics": {
                    m["name"]: {
                        "value": values.get(m["name"], 0.0),
                        "unit": m["unit"],
                    }
                    for m in metrics
                },
            }
        )
    )
    return 0


# -- the suite ----------------------------------------------------------------


def stamp() -> dict:
    """Where and on what these numbers were measured."""

    def git(*command: str) -> str | None:
        if not (ROOT / ".git").exists():
            return None  # an exported checkout: never look further up
        try:
            done = subprocess.run(
                ("git", "-C", str(ROOT), *command),
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus_in_affinity_mask": len(os.sched_getaffinity(0)),
        "git_commit": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def suite(args: argparse.Namespace, spec: dict) -> int:
    """Every selected workload, ``--runs`` seeds each, one subprocess per run."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            raise SystemExit(f"bench: unknown workload {args.workload!r}")
        names = [args.workload]
    results = []
    ok = True
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            for trace in (0, 1) if args.traced else (0,):
                command = [
                    sys.executable,
                    str(BENCH_DIR / "run.py"),
                    "--workload", name,
                    "--seed", str(seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ]  # fmt: skip
                if args.quick:
                    command.append("--quick")
                done = subprocess.run(
                    command, capture_output=True, text=True, cwd=ROOT, timeout=900
                )
                lines = done.stdout.splitlines()
                sys.stdout.write(
                    "".join(f"{line}\n" for line in lines[:-2] if line)
                )
                if done.returncode != 0 or len(lines) < 2:
                    sys.stderr.write(done.stderr)
                    print(f"bench: {name} seed {seed} exited {done.returncode}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                detail = json.loads(lines[-2].removeprefix("detail "))
                ok = ok and result["correct"]
                results.append(
                    {"workload": name, "seed": seed, "trace": trace}
                    | result
                    | detail
                )
    if args.runs > 1:
        _print_spreads(spec, results)
    out = {
        "stamp": stamp(),
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "quick": args.quick,
        "results": results,
    }
    target = Path(args.out)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"result-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    failed_share = sum(r["failed"] for r in results) / max(
        1, sum(r["attempted"] for r in results)
    )
    print(f"failed_share {failed_share:g} ratio; result written to {path}")
    return 0 if ok else 1


def _print_spreads(spec: dict, results: list[dict]) -> None:
    """Across the runs of each workload: median and the driver's spread."""
    print(f"{'workload':<22}{'metric':<20}{'median':>12}{'spread':>9}{'bound':>7}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values = end_to_end_values(results, workload, metric["name"])
            if len(values) > 1:
                print(
                    f"{workload:<22}{metric['name']:<20}"
                    f"{statistics.median(values):>12.5g}"
                    f"{spread(values):>9.3f}{metric['bound']:>7.2f}"
                )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.trace is not None:
        if not args.workload:
            raise SystemExit("bench: --trace needs --workload")
        return measure(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
