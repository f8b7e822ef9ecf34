"""Structured invariant violations.

A :class:`ViolationRecord` is the sanitizer's finding type: which
invariant (code + name), on which node, at what virtual time, with a
small JSON-friendly snapshot of the offending state.  Records are
frozen dataclasses of primitives so they pickle through process-pool
sweep workers on :class:`~repro.experiments.runner.ExperimentResult`
and serialize losslessly into schema-v1 trace events.  The runtime
collects records instead of raising, so a single sweep reports every
violated invariant, not just the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .checkers import InvariantChecker


@dataclass(frozen=True)
class ViolationRecord:
    """One invariant violation, ready for tracing and reporting."""

    code: str  #: checker code, e.g. ``INV102``
    name: str  #: checker slug, e.g. ``fee-split``
    node: int  #: node id whose state violated the invariant
    time: float  #: virtual time of the sweep that caught it
    message: str  #: human-readable description
    #: Flat state snapshot: sorted (key, value) pairs of primitives.
    snapshot: tuple[tuple[str, object], ...] = field(default=())

    def to_dict(self) -> dict:
        """JSON-friendly form (the trace event's field payload)."""
        return {
            "code": self.code,
            "name": self.name,
            "node": self.node,
            "message": self.message,
            "snapshot": dict(self.snapshot),
        }

    def format(self) -> str:
        detail = ", ".join(f"{k}={v}" for k, v in self.snapshot)
        suffix = f" [{detail}]" if detail else ""
        return (
            f"{self.code} ({self.name}) node={self.node} "
            f"t={self.time:.3f}: {self.message}{suffix}"
        )


def make_violation(
    checker: InvariantChecker,
    node: int,
    time: float,
    message: str,
    **snapshot: object,
) -> ViolationRecord:
    """Build a record from a checker instance plus context."""
    return ViolationRecord(
        code=checker.code,
        name=checker.name,
        node=node,
        time=time,
        message=message,
        snapshot=tuple(sorted(snapshot.items())),
    )
