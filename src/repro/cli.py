"""Command-line interface: run experiments without writing code.

Examples::

    python -m repro run --protocol bitcoin-ng --nodes 100 \
        --block-rate 0.1 --block-size 20000
    python -m repro run --protocol bitcoin-ng --obs out/ --json
    python -m repro sweep frequency --nodes 60
    python -m repro sweep size --nodes 60 --seeds 0 1
    python -m repro propagation --nodes 60
    python -m repro incentives --alpha 0.25
    python -m repro trace summarize out/
    python -m repro trace timeline out/ --buckets 30
    python -m repro trace toptalkers out/ --top 10
    python -m repro lint src/ --json
    python -m repro lint --explain NG301
    python -m repro run --protocol bitcoin-ng --check
    python -m repro sweep frequency --check=audit
    python -m repro prof run --protocol bitcoin-ng --nodes 1000 --out prof/
    python -m repro prof report prof/bitcoin-ng-f0.2-b8000-seed0.prof.json
    python -m repro sweep frequency --nodes 60 --progress
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    CHECK_MODES,
    ExperimentConfig,
    NoBlocksMinedError,
    Protocol,
    format_propagation_table,
    format_sweep_table,
    frequency_sweep,
    propagation_study,
    resolve_check_mode,
    resolve_jobs,
    run_experiment,
    size_sweep,
)


def positive_int(text: str) -> int:
    """argparse ``type=`` for a row or bucket count: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def reject_non_directory(flag: str, path: str | None) -> None:
    """Exit before anything runs if an output directory ``path`` exists
    as a file, rather than in ``mkdir`` after the run."""
    if path and os.path.exists(path) and not os.path.isdir(path):
        raise SystemExit(f"error: {flag} {path}: not a directory")


def add_run_arguments(
    parser: argparse.ArgumentParser,
    *,
    protocol: bool = False,
    instrumentation: tuple[str, ...] = (),
    nodes: int = 100,
    blocks: int = 60,
    block_rate: float = 0.1,
    block_size: int = 20_000,
    key_block_rate: float = 0.01,
) -> None:
    """Declare the flags that describe a run — the one place they are.

    Every subcommand that runs an experiment gets ``--nodes``,
    ``--seed`` and ``--blocks``; ``protocol`` adds ``--protocol``, the
    block parameters and ``--key-blocks`` (the sweeps and the
    propagation study set those per cell); ``instrumentation`` names
    which of ``check``, ``obs`` and ``scenario`` the subcommand offers.
    The keyword defaults are the subcommand's workload.
    :func:`config_from_args` reads back whatever was declared.
    """
    parser.add_argument("--nodes", type=int, default=nodes, help="network size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--blocks", type=int, default=blocks, help="target blocks per run"
    )
    if protocol:
        parser.add_argument(
            "--protocol",
            choices=sorted(member.value for member in Protocol),
            default="bitcoin-ng",
        )
        parser.add_argument("--block-rate", type=float, default=block_rate)
        parser.add_argument("--block-size", type=int, default=block_size)
        parser.add_argument(
            "--key-block-rate", type=float, default=key_block_rate
        )
        parser.add_argument(
            "--key-blocks",
            type=int,
            default=None,
            metavar="N",
            help="target key blocks per run (run duration is whichever of "
            "--blocks/--key-blocks takes longer at its rate; lower this "
            "for short large-network smokes)",
        )
    if "check" in instrumentation:
        parser.add_argument(
            "--check",
            nargs="?",
            const="incremental",
            choices=CHECK_MODES,
            default=None,
            metavar="MODE",
            help="checked mode: sweep protocol invariants (repro.sanitizer) "
            "during the run(s); violations are reported and exit nonzero. "
            "MODE is incremental (default: dirty-set sweeps + the verified-"
            "signature cache) or audit (the same plus a periodic from-"
            "scratch cross-check with independent replica checkers).  "
            "Also enabled by REPRO_CHECK=1 or REPRO_CHECK=<mode>",
        )
    if "obs" in instrumentation:
        parser.add_argument(
            "--obs",
            metavar="DIR",
            default=None,
            help="enable the observability layer and write each run's "
            "event trace and metric snapshot into DIR (analyze with "
            "`repro trace`)",
        )
    if "scenario" in instrumentation:
        parser.add_argument(
            "--scenario",
            metavar="FILE",
            default=None,
            help="inject faults from a scenario JSON file (repro.scenarios) "
            "into every run; fault events land in the --obs trace",
        )


def config_from_args(
    args: argparse.Namespace, **overrides: object
) -> ExperimentConfig:
    """The :class:`ExperimentConfig` a parsed command line describes.

    The inverse of :func:`add_run_arguments`: flags a subcommand did not
    declare keep their config defaults, and ``overrides`` carries the
    fields a subcommand sets from flags of its own.  This is also the
    single place ``REPRO_CHECK`` is read (the CLI is a config entry
    point; see lint rule NG202), so it reaches every subcommand that
    runs an experiment, ``--check`` flag or not.  It accepts
    ``0``/empty (off), ``1`` (incremental) or a mode name; anything else
    exits with the valid values rather than silently running a weaker
    check than asked for.
    A flag value :class:`ExperimentConfig` rejects exits the same way.
    """
    try:
        mode = resolve_check_mode(
            getattr(args, "check", None), os.environ.get("REPRO_CHECK", "")
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    obs_dir = getattr(args, "obs", None)
    reject_non_directory("--obs", obs_dir)
    fields: dict = {
        "n_nodes": args.nodes,
        "seed": args.seed,
        "target_blocks": args.blocks,
        "check": mode is not None,
        "check_mode": mode or "incremental",
        "obs_dir": obs_dir,
    }
    if hasattr(args, "protocol"):
        fields.update(
            protocol=args.protocol,
            block_rate=args.block_rate,
            block_size_bytes=args.block_size,
            key_block_rate=args.key_block_rate,
        )
        if args.key_blocks is not None:
            fields["target_key_blocks"] = args.key_blocks
    if getattr(args, "scenario", None) is not None:
        from .scenarios import ScenarioError, load_scenario

        try:
            fields["scenario"] = load_scenario(args.scenario)
        except ScenarioError as exc:
            raise SystemExit(f"error: {exc}")
    try:
        return ExperimentConfig(**fields, **overrides)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    result, _log = run_experiment(config)
    # Event rate over the simulate phase only: topology construction is
    # O(n^2) setup work and would dilute the number the dispatch loop
    # actually achieves.
    simulate_wall = max(result.wall_simulate_seconds, 1e-9)
    events_per_sec = result.events_processed / simulate_wall
    if args.json:
        import json

        payload: dict = {
            "protocol": args.protocol,
            "config": {
                "n_nodes": config.n_nodes,
                "seed": config.seed,
                "target_blocks": config.target_blocks,
                "target_key_blocks": config.target_key_blocks,
                "block_rate": config.block_rate,
                "block_size_bytes": config.block_size_bytes,
                "key_block_rate": config.key_block_rate,
            },
            "metrics": result.as_row(),
            "blocks_generated": result.blocks_generated,
            "main_chain_length": result.main_chain_length,
            "duration": result.duration,
            "events_processed": result.events_processed,
            "messages_delivered": result.messages_delivered,
            "wall_setup_seconds": result.wall_setup_seconds,
            "wall_simulate_seconds": result.wall_simulate_seconds,
            "events_per_sec": events_per_sec,
        }
        if config.scenario is not None:
            payload["scenario"] = config.scenario["name"]
            payload["faults_injected"] = result.faults_injected
        if config.check:
            payload["check_mode"] = config.check_mode
            payload["invariant_violations"] = len(result.violations)
            payload["violations"] = [
                violation.to_dict() for violation in result.violations
            ]
        if result.obs is not None:
            payload["obs"] = result.obs
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"protocol:                {args.protocol}")
        print(f"blocks generated:        {result.blocks_generated}")
        print(f"main chain length:       {result.main_chain_length}")
        for name, value in sorted(result.as_row().items()):
            print(f"{name + ':':<25}{value:.4f}")
        print(f"events processed:        {result.events_processed}")
        print(f"events/sec:              {events_per_sec:,.0f}")
        if config.scenario is not None:
            print(f"scenario:                {config.scenario['name']}")
            print(f"faults injected:         {result.faults_injected}")
        if config.check:
            print(f"check mode:              {config.check_mode}")
            print(f"invariant violations:    {len(result.violations)}")
            for violation in result.violations:
                print(f"  {violation.format()}")
        if result.obs is not None:
            print(f"obs trace:               {result.obs.get('trace_path')}")
            print(f"obs records:             {result.obs.get('trace_records')}")
    if config.check and result.violations:
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import sweep_chart

    base = config_from_args(args)
    seeds = tuple(args.seeds)
    progress = None
    if args.progress:

        def progress(index: int, total: int, result) -> None:
            # Per-cell heartbeat from the pool workers, in completion
            # order, on stderr so piped table output stays clean.
            cell = result.config
            rate = result.events_processed / max(
                result.wall_simulate_seconds, 1e-9
            )
            print(
                f"[{index + 1}/{total}] {cell.protocol.value} "
                f"rate={cell.block_rate:g} size={cell.block_size_bytes} "
                f"seed={cell.seed}: {result.events_processed:,} events, "
                f"{rate:,.0f} ev/s",
                file=sys.stderr,
                flush=True,
            )

    run_sweep = frequency_sweep if args.axis == "frequency" else size_sweep
    try:
        sweep = run_sweep(base, seeds=seeds, jobs=args.jobs, progress=progress)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(format_sweep_table(sweep))
    if args.obs:
        cells = sum(1 for p in sweep.points for r in p.results if r.obs)
        print(f"\nobs: {cells} per-cell traces + metric snapshots in {args.obs}")
    if base.scenario is not None:
        print(f"\nscenario: {base.scenario['name']} injected into every cell")
    if args.chart:
        for metric in args.chart:
            print()
            print(sweep_chart(sweep, metric))
    if base.check:
        total = sum(
            len(result.violations)
            for point in sweep.points
            for result in point.results
        )
        print(f"\ninvariant violations across all cells: {total}")
        if total:
            return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        find_traces,
        format_summary,
        format_timeline,
        format_toptalkers,
        load_records,
        summarize,
    )
    from .obs.trace import TraceError

    try:
        traces = find_traces(args.path)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    first = True
    for path in traces:
        if not first:
            print()
        first = False
        try:
            records = load_records(path)
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.trace_command == "summarize":
            print(format_summary(summarize(records), name=path.name))
        elif args.trace_command == "timeline":
            print(f"== {path.name} ==")
            print(format_timeline(records, buckets=args.buckets))
        else:
            print(f"== {path.name} ==")
            print(format_toptalkers(summarize(records), top=args.top))
    return 0


def _cmd_propagation(args: argparse.Namespace) -> int:
    # No --check flag here, but REPRO_CHECK still applies (it always has).
    config = config_from_args(args)
    points = propagation_study(config)
    print(format_propagation_table(points))
    if config.check:
        total = sum(point.violations for point in points)
        print(f"\ninvariant violations across all sizes: {total}")
        if total:
            return 1
    return 0


def _cmd_incentives(args: argparse.Namespace) -> int:
    from .core.incentives import critical_alpha, incentive_window

    try:
        window = incentive_window(args.alpha)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"attacker fraction alpha: {args.alpha}")
    print(f"lower bound on r:        {window.lower:.4f}")
    print(f"upper bound on r:        {window.upper:.4f}")
    print(f"feasible:                {window.feasible}")
    print(f"paper's r = 0.40 safe:   {window.contains(0.40)}")
    print(f"critical alpha @ r=0.40: {critical_alpha(0.40):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bitcoin-NG reproduction: simulations and analysis",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run one experiment")
    add_run_arguments(
        run_parser,
        protocol=True,
        instrumentation=("check", "obs", "scenario"),
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: all metrics plus events/sec "
        "(timed over the simulate phase only)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep", help="run a Figure 8 parameter sweep"
    )
    sweep_parser.add_argument("axis", choices=("frequency", "size"))
    add_run_arguments(
        sweep_parser, instrumentation=("check", "obs", "scenario")
    )
    sweep_parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0], help="seeds to average"
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep cells "
        "(default: REPRO_JOBS env or CPU count; 1 = serial)",
    )
    sweep_parser.add_argument(
        "--chart",
        nargs="+",
        metavar="METRIC",
        help="also render ASCII charts for these metrics",
    )
    sweep_parser.add_argument(
        "--progress",
        action="store_true",
        help="print a per-cell heartbeat to stderr as pool workers "
        "finish (completion order; results stay in submission order)",
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    prop_parser = commands.add_parser(
        "propagation", help="run the Figure 7 propagation study"
    )
    add_run_arguments(prop_parser)
    prop_parser.set_defaults(handler=_cmd_propagation)

    inc_parser = commands.add_parser(
        "incentives", help="print the Section 5 fee-split window"
    )
    inc_parser.add_argument("--alpha", type=float, default=0.25)
    inc_parser.set_defaults(handler=_cmd_incentives)

    trace_parser = commands.add_parser(
        "trace", help="analyze a saved observability trace offline"
    )
    trace_commands = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    summarize_parser = trace_commands.add_parser(
        "summarize", help="aggregate counts, traffic, delays, and peaks"
    )
    summarize_parser.add_argument(
        "path", help="a .trace.jsonl file or a directory of them"
    )
    timeline_parser = trace_commands.add_parser(
        "timeline", help="bucketed activity over virtual time"
    )
    timeline_parser.add_argument(
        "path", help="a .trace.jsonl file or a directory of them"
    )
    timeline_parser.add_argument(
        "--buckets", type=positive_int, default=20, help="number of time buckets"
    )
    talkers_parser = trace_commands.add_parser(
        "toptalkers", help="rank nodes by bytes sent"
    )
    talkers_parser.add_argument(
        "path", help="a .trace.jsonl file or a directory of them"
    )
    talkers_parser.add_argument(
        "--top", type=positive_int, default=10, help="how many nodes to list"
    )
    for sub in (summarize_parser, timeline_parser, talkers_parser):
        sub.set_defaults(handler=_cmd_trace)

    from .lint.cli import add_lint_parser

    add_lint_parser(commands)

    from .prof.cli import add_prof_parser

    add_prof_parser(commands)

    from .mutate.cli import add_mutate_parser

    add_mutate_parser(commands)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "jobs"):
        # sweep, mutate: a bad --jobs / REPRO_JOBS is a usage error, and
        # one reported before any work starts.
        try:
            args.jobs = resolve_jobs(args.jobs)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    try:
        return args.handler(args)
    except NoBlocksMinedError as exc:
        # Every run-shaped subcommand ends up in run_experiment.
        raise SystemExit(f"error: {exc}")
    except BrokenPipeError:
        # Piping long output (e.g. `repro trace ... | head`) closes
        # stdout early; exit quietly like any well-behaved filter.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
