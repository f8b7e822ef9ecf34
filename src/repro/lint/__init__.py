"""repro.lint: the determinism & protocol-invariant static analyzer.

Every reproducibility guarantee in this repository — parallel sweeps
identical to serial, instrumented runs identical to bare, scenarios
replaying bit-for-bit — rests on implicit discipline: seeded RNG
streams only, virtual time only, ordered iteration wherever events or
messages are produced, and strict layering between protocols and the
experiment harness.  This package turns that discipline into
machine-checked rules over the AST, in the spirit of the deterministic-
simulation testing tradition (FoundationDB's harness being the
canonical example): the cheapest place to catch a determinism heisenbug
is before it runs.

Use it as ``repro lint [paths]`` (see :mod:`repro.lint.cli`) or
programmatically::

    from repro.lint import lint_paths
    report = lint_paths(["src"])
    assert report.clean, report.findings

The rule catalog lives in ``docs/static-analysis.md``; adding a rule is
one registered visitor class in :mod:`repro.lint.rules`.
"""

from .engine import LintReport, collect_files, lint_paths
from .findings import Finding
from .rules import RULES, Rule, all_rules, register

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "all_rules",
    "collect_files",
    "lint_paths",
    "register",
]
