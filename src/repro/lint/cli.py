"""The ``repro lint`` subcommand: text/JSON output, --explain.

Exit codes: 0 clean, 1 findings, 2 usage errors (unknown rule code,
unreadable path, a run that would check nothing).  Kept separate from
:mod:`repro.cli` so the argparse wiring there stays one line per
subcommand and the analyzer imports only when invoked.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import JSON_SCHEMA_VERSION, LintReport, lint_paths
from .rules import RULES

#: Where the bad/good example fixtures live, relative to the repo root.
FIXTURE_DIR = Path("tests") / "lint_fixtures"

#: Human names for the rule families, keyed by code prefix.
FAMILIES = {
    "NG1": "rng",
    "NG2": "clock/env",
    "NG3": "ordering",
    "NG4": "layering",
}


def add_lint_parser(commands: argparse._SubParsersAction) -> None:
    parser = commands.add_parser(
        "lint",
        help="run the determinism & protocol-invariant static analyzer",
        description=(
            "Analyze Python sources for determinism hazards (unseeded "
            "RNG, wall-clock leaks, unordered iteration driving the "
            "event heap) and protocol-layer violations. See "
            "docs/static-analysis.md for the rule catalog."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=f"machine-readable findings (schema v{JSON_SCHEMA_VERSION})",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print a rule's rationale and bad/good example pair",
    )
    parser.add_argument(
        "--select",
        metavar="CODE[,CODE]",
        default=None,
        help="run only these rule codes",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODE[,CODE]",
        default=None,
        help="run every rule except these codes",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (code, family, rationale) and exit",
    )
    parser.set_defaults(handler=cmd_lint)


def _find_fixture(code: str, suffix: str) -> str | None:
    """The committed fixture snippet for ``code``, if locatable.

    Searched relative to the working directory and to the repository
    this module lives in; an installed wheel without the test tree
    falls back to the rule's embedded examples (same content — a test
    pins them equal).
    """
    candidates = [
        Path.cwd() / FIXTURE_DIR,
        Path(__file__).resolve().parents[3] / FIXTURE_DIR,
    ]
    for directory in candidates:
        fixture = directory / f"{code}_{suffix}.py"
        if fixture.is_file():
            return fixture.read_text(encoding="utf-8")
    return None


def _usage_error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _explain(code: str) -> int:
    rule = RULES.get(code)
    if rule is None:
        known = ", ".join(sorted(RULES))
        return _usage_error(f"unknown rule code {code!r} (known: {known})")
    bad = _find_fixture(code, "bad") or rule.bad_example
    good = _find_fixture(code, "good") or rule.good_example
    print(f"{rule.code} ({rule.name})")
    print()
    print(rule.rationale)
    print()
    print("bad:")
    for line in bad.rstrip().splitlines():
        print(f"    {line}")
    print()
    print("good:")
    for line in good.rstrip().splitlines():
        print(f"    {line}")
    print()
    print(f"suppress one site with:  # repro: allow[{rule.code}]")
    return 0


def _first_sentence(text: str) -> str:
    """The leading sentence of a rationale, clipped for table display."""
    sentence = text.split(". ")[0].rstrip(".") + "."
    if len(sentence) > 68:
        sentence = sentence[:67].rstrip() + "…"
    return sentence


def _list_rules() -> int:
    print(f"{'code':<7} {'family':<11} {'name':<30} rationale")
    for code in sorted(RULES):
        rule = RULES[code]
        family = FAMILIES.get(code[:3], "?")
        print(
            f"{rule.code:<7} {family:<11} {rule.name:<30} "
            f"{_first_sentence(rule.rationale)}"
        )
    return 0


def _resolve_codes(args: argparse.Namespace) -> list[str] | None:
    """The rule subset --select/--ignore ask for (None = every rule).

    Raises KeyError on unknown codes, same as the engine, and
    ValueError on a selection that leaves no rule, so every selection
    mistake shares one exit-2 path in :func:`cmd_lint`.
    """
    if args.select and args.ignore:
        raise ValueError("--select and --ignore are mutually exclusive")
    if not args.select and not args.ignore:
        return None
    raw = args.select or args.ignore
    codes = {code.strip() for code in raw.split(",") if code.strip()}
    unknown = codes - set(RULES)
    if unknown:
        raise KeyError(f"unknown rule codes: {sorted(unknown)}")
    selected = sorted(codes if args.select else set(RULES) - codes)
    if not selected:
        raise ValueError(f"{'--select' if args.select else '--ignore'} "
                         f"{raw!r} leaves no rule to run")
    return selected


def _print_text(report: LintReport) -> None:
    for finding in report.findings:
        print(finding.format())
    summary = (
        f"{len(report.findings)} finding(s) in "
        f"{report.files_scanned} file(s)"
    )
    if report.suppressed:
        summary += f" ({report.suppressed} suppressed inline)"
    print(summary)


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules()
    if args.explain is not None:
        return _explain(args.explain)

    try:
        codes = _resolve_codes(args)
    except (KeyError, ValueError) as exc:
        return _usage_error(exc.args[0])

    try:
        report = lint_paths(args.paths, codes=codes)
    except (FileNotFoundError, SyntaxError) as exc:
        return _usage_error(exc)
    if not report.files_scanned:
        # A run that checks nothing must not read as a clean tree.
        return _usage_error(f"no .py files in {' '.join(args.paths)}")

    if args.json:
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
    else:
        _print_text(report)
    return 0 if report.clean else 1
