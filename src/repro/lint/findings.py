"""Finding model and inline suppressions.

A :class:`Finding` is one rule hit: file, position, rule code, message,
and the offending source line.  Findings are value objects that
round-trip through JSON (``repro lint --json``).

The one escape hatch is an inline ``# repro: allow[CODE]`` comment on
the offending line (or the line directly above it), which suppresses
one finding at one site.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

#: Inline suppression: ``# repro: allow[NG101]`` or ``allow[NG101,NG301]``.
SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True, slots=True)
class Finding:
    """One static-analysis finding."""

    path: str  #: file as scanned, posix separators
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    code: str  #: rule code, e.g. ``"NG101"``
    message: str  #: human explanation of this specific hit
    snippet: str  #: the offending source line, stripped

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "snippet": self.snippet,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Finding":
        return cls(
            path=data["path"],
            line=int(data["line"]),
            col=int(data["col"]),
            code=data["code"],
            message=data["message"],
            snippet=data["snippet"],
        )

    def format(self) -> str:
        """The two-line text rendering used by the CLI."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.code} {self.message}\n    {self.snippet}"
        )


def suppressed_codes(lines: list[str], line: int) -> set[str]:
    """Codes allowed at 1-based ``line`` by inline comments.

    Both the offending line and the line directly above it are
    honoured, so long statements can carry the comment on their own
    line without fighting formatters.
    """
    codes: set[str] = set()
    for lineno in (line, line - 1):
        if 1 <= lineno <= len(lines):
            match = SUPPRESS_RE.search(lines[lineno - 1])
            if match:
                codes.update(
                    part.strip() for part in match.group(1).split(",")
                )
    return codes


def is_suppressed(finding: Finding, lines: list[str]) -> bool:
    return finding.code in suppressed_codes(lines, finding.line)
