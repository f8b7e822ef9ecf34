"""The ``repro mutate`` subcommand family.

``repro mutate run``    — enumerate sites, generate mutants, drive the
                          tiered kill pipeline, write the JSON report.
``repro mutate report`` — render a saved report (kill matrix, scores,
                          survivors) without re-running anything.
``repro mutate diff``   — mutate only the source files changed versus a
                          git base ref (the PR-scoped CI job).

Exit codes: 0 clean (or gate satisfied), 1 gate failure (undocumented
survivors, or score below ``--min-score``), 2 usage errors.  Kept
separate from :mod:`repro.cli` so the engine imports only when invoked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Callable

from .engine import (
    DEFAULT_CACHE,
    DEFAULT_REPORT,
    TIERS,
    BaselineError,
    MutationEngine,
    MutationRun,
)
from .operators import OPERATORS_BY_NAME
from .report import gate, parse_allowlist, render_report
from .sites import TARGET_PACKAGES

ALLOWLIST_DOC = Path("docs") / "mutation.md"


def add_mutate_parser(commands: argparse._SubParsersAction) -> None:
    parser = commands.add_parser(
        "mutate",
        help="mutation-adequacy analysis of the checker stack",
        description=(
            "Plant consensus-critical defects (fee-split swaps, "
            "signature drops, off-by-ones, negated guards) and "
            "measure which layer of the checker stack — sanitizer, "
            "golden fingerprints, or tier-1 tests — catches "
            "each one. See docs/mutation.md for the operator catalog "
            "and survivor policy."
        ),
    )
    sub = parser.add_subparsers(dest="mutate_command", required=True)

    run_parser = sub.add_parser(
        "run", help="generate and evaluate mutants"
    )
    _add_run_arguments(run_parser)
    run_parser.set_defaults(handler=cmd_mutate_run, changed_only=False)

    report_parser = sub.add_parser(
        "report", help="render a saved mutation report"
    )
    report_parser.add_argument(
        "--in",
        dest="report_path",
        metavar="FILE",
        default=str(DEFAULT_REPORT),
        help=f"report JSON to render (default: {DEFAULT_REPORT})",
    )
    report_parser.add_argument(
        "--verbose", action="store_true", help="also list every kill"
    )
    report_parser.add_argument(
        "--gate",
        action="store_true",
        help="fail unless every survivor is catalogued in docs/mutation.md",
    )
    report_parser.set_defaults(handler=cmd_mutate_report)

    diff_parser = sub.add_parser(
        "diff", help="mutate only files changed versus a git base ref"
    )
    diff_parser.add_argument(
        "--base",
        metavar="REF",
        default="main",
        help="git ref to diff against (default: main)",
    )
    _add_run_arguments(diff_parser)
    diff_parser.set_defaults(handler=cmd_mutate_run, changed_only=True)


def _name_list(
    kind: str, known: tuple[str, ...]
) -> Callable[[str], list[str]]:
    """argparse ``type=`` for a comma-separated subset of ``known``."""

    def parse(text: str) -> list[str]:
        names = [n.strip() for n in text.split(",") if n.strip()]
        unknown = [n for n in names if n not in known]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {kind}(s): {', '.join(unknown)} "
                f"(choose from {', '.join(known)})"
            )
        return names

    return parse


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "files",
        nargs="*",
        default=[],
        help="restrict to these source files (default: all eligible)",
    )
    parser.add_argument(
        "--package",
        action="append",
        default=None,
        metavar="PKG",
        help=(
            "restrict to a dotted package prefix (repeatable; default: "
            + ", ".join(TARGET_PACKAGES)
            + ")"
        ),
    )
    parser.add_argument(
        "--operators",
        metavar="OP[,OP]",
        type=_name_list("operator", tuple(sorted(OPERATORS_BY_NAME))),
        default=None,
        help=(
            "restrict to these operators (choose from "
            + ", ".join(sorted(OPERATORS_BY_NAME))
            + ")"
        ),
    )
    parser.add_argument(
        "--max-mutants",
        type=int,
        default=None,
        metavar="N",
        help="evaluate at most N mutants (deterministic prefix)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: REPRO_JOBS or CPU count)",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        default=str(DEFAULT_CACHE),
        help=f"verdict cache (default: {DEFAULT_CACHE}; 'none' disables)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=str(DEFAULT_REPORT),
        help=f"write the JSON report here (default: {DEFAULT_REPORT})",
    )
    parser.add_argument(
        "--tiers",
        metavar="TIER[,TIER]",
        type=_name_list("tier", TIERS),
        default=None,
        help="run only these kill tiers (choose from " + ", ".join(TIERS) + ")",
    )
    parser.add_argument(
        "--min-score",
        type=float,
        default=None,
        metavar="S",
        help="fail (exit 1) when the kill rate drops below S (0..1)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail unless every survivor is catalogued in docs/mutation.md",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also list every kill"
    )


def _changed_files(base: str) -> list[str]:
    """Source files changed versus ``base`` (the PR-scoped CI scope)."""
    completed = subprocess.run(
        ["git", "diff", "--name-only", base, "--", "src"],
        capture_output=True,
        text=True,
        check=True,
    )
    return [
        line.strip()
        for line in completed.stdout.splitlines()
        if line.strip().endswith(".py")
    ]


def cmd_mutate_run(args: argparse.Namespace) -> int:
    only_files = list(args.files) or None
    if args.changed_only:
        try:
            changed = _changed_files(args.base)
        except (subprocess.CalledProcessError, OSError) as exc:
            print(f"error: git diff against {args.base!r} failed: {exc}",
                  file=sys.stderr)
            return 2
        if not changed:
            print(f"no source files changed versus {args.base}; "
                  "nothing to mutate")
            return 0
        only_files = changed if only_files is None else [
            f for f in only_files if f in set(changed)
        ]

    operators = None
    if args.operators:
        operators = tuple(OPERATORS_BY_NAME[n] for n in args.operators)
    tiers = TIERS
    if args.tiers:
        tiers = tuple(t for t in TIERS if t in args.tiers)

    packages = TARGET_PACKAGES
    if args.package:
        packages = tuple(args.package)

    cache_path = None if args.cache == "none" else Path(args.cache)
    engine_kwargs = dict(
        cache_path=cache_path, jobs=args.jobs, tiers=tiers
    )
    if operators is not None:
        engine_kwargs["operators"] = operators
    engine = MutationEngine(".", **engine_kwargs)

    def progress(index: int, total: int, verdict) -> None:
        label = verdict.tier if verdict.status == "killed" else "SURVIVED"
        print(
            f"[{index + 1:4d}/{total}] {label:9s} {verdict.mutant_id}",
            file=sys.stderr,
        )

    try:
        run = engine.run(
            packages,
            only_files=only_files,
            max_mutants=args.max_mutants,
            progress=progress if args.verbose else None,
        )
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out and args.out != "none":
        Path(args.out).write_text(
            json.dumps(run.to_dict(), indent=2, sort_keys=True),
            encoding="utf-8",
        )

    if args.json:
        print(json.dumps(run.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(run, verbose=args.verbose))

    exit_code = 0
    if args.min_score is not None and run.score < args.min_score:
        print(
            f"mutation score {run.score:.1%} below required "
            f"{args.min_score:.1%}",
            file=sys.stderr,
        )
        exit_code = 1
    if args.gate:
        ok, message = gate(run, parse_allowlist(ALLOWLIST_DOC))
        print(message, file=sys.stderr)
        if not ok:
            exit_code = 1
    return exit_code


def cmd_mutate_report(args: argparse.Namespace) -> int:
    path = Path(args.report_path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report {path}: {exc}", file=sys.stderr)
        return 2
    run = MutationRun.from_dict(data)
    print(render_report(run, verbose=args.verbose))
    if args.gate:
        ok, message = gate(run, parse_allowlist(ALLOWLIST_DOC))
        print(message, file=sys.stderr)
        if not ok:
            return 1
    return 0
