"""The ``repro prof`` subcommands: profile and report.

``repro prof run`` profiles one experiment and writes two artifacts
into ``--out``: ``<slug>.prof.json`` (the schema-versioned profile) and
``<slug>.folded`` (folded stacks for flamegraph renderers), then prints
the attribution report.  ``repro prof report`` re-renders a saved
profile.  Whether a change moved a phase is answered by the benchmark's
repeated runs (``bench/run.py --trace 1`` ledgers and ``--compare``),
not by comparing two profiles.

Exit codes: 0 ok, 1 invariant violations (``run --check``), 2
usage/input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def cmd_run(args: argparse.Namespace) -> int:
    from ..cli import config_from_args, reject_non_directory
    from . import profile_experiment, to_folded
    from .report import format_report

    reject_non_directory("--out", args.out)
    config = config_from_args(args, check_stride=args.stride)
    result, _log, profile = profile_experiment(config)
    out_dir = Path(args.out)
    slug = profile.meta.get("slug", "run")
    profile_path = profile.save(out_dir / f"{slug}.prof.json")
    folded_path = out_dir / f"{slug}.folded"
    folded_path.write_text(to_folded(profile), encoding="utf-8")
    print(format_report(profile, top=args.top))
    print()
    print(f"profile written:     {profile_path}")
    print(f"folded stacks:       {folded_path}")
    if config.check and result.violations:
        print(
            f"invariant violations: {len(result.violations)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .profile import ProfileError, load_profile
    from .report import format_report

    try:
        profile = load_profile(args.file)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_report(profile, top=args.top))
    return 0


def add_prof_parser(commands: argparse._SubParsersAction) -> None:
    """Register the ``prof`` command group on the main CLI."""
    from ..cli import add_run_arguments, positive_int

    prof_parser = commands.add_parser(
        "prof",
        help="deterministic hot-path profiling: attribution and flamegraphs",
    )
    prof_commands = prof_parser.add_subparsers(
        dest="prof_command", required=True
    )

    run_parser = prof_commands.add_parser(
        "run", help="profile one experiment and write profile + folded stacks"
    )
    add_run_arguments(
        run_parser,
        protocol=True,
        instrumentation=("check", "obs"),
        nodes=60,
        blocks=60,
        block_rate=0.2,
        block_size=8_000,
        key_block_rate=0.02,
    )
    run_parser.add_argument(
        "--stride",
        type=int,
        default=64,
        help="sanitizer sweep stride when --check is on",
    )
    run_parser.add_argument(
        "--out",
        metavar="DIR",
        default="prof-out",
        help="directory for <slug>.prof.json and <slug>.folded",
    )
    run_parser.add_argument(
        "--top", type=positive_int, default=20, help="rows per report table"
    )
    run_parser.set_defaults(handler=cmd_run)

    report_parser = prof_commands.add_parser(
        "report", help="render the attribution table of a saved profile"
    )
    report_parser.add_argument("file", help="a .prof.json file")
    report_parser.add_argument(
        "--top", type=positive_int, default=20, help="rows per report table"
    )
    report_parser.set_defaults(handler=cmd_report)
