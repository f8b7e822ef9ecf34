"""Spans recorded by the benchmark around calls into the simulator.

A span is ``name, start, end, parent`` on the host's monotonic clock;
all spans of one :class:`SpanRecorder` share its ``run_id``.  They stay
in memory until :meth:`SpanRecorder.to_dict` is written out at the end
of a traced run.  Only one thread records, so the open spans form a
stack and the innermost open span is the parent of the next.

Layers are traced from outside: :meth:`SpanRecorder.patched`
temporarily replaces a public function (a module attribute or a class
method) with a wrapper that records a span around the real call, and
puts the original object back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any

NO_PARENT = -1


@dataclass
class SpanTotal:
    """What all spans of one name add up to."""

    calls: int = 0
    # Inclusive seconds, counting a span nested in one of its own name once.
    busy_s: float = 0.0
    # Seconds not covered by any child span.
    self_s: float = 0.0


class SpanRecorder:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        span_id = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else NO_PARENT)
        self.ends.append(0.0)
        self._open.append(span_id)
        self.starts.append(time.perf_counter())
        return span_id

    def end(self, span_id: int) -> None:
        now = time.perf_counter()
        if not self._open or self._open[-1] != span_id:
            raise RuntimeError("spans must close innermost first")
        self._open.pop()
        self.ends[span_id] = now

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        span_id = self.begin(name)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def traced(
        self,
        fn: Callable[..., Any],
        name: str,
        tap: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call; ``tap``
        is shown each return value once its span has closed."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = self.begin(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                self.end(span_id)
            if tap is not None:
                tap(value)
            return value

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple]) -> Iterator[None]:
        """Trace ``owner.attr`` as ``span name`` for each
        ``(owner, attr, span name[, tap])`` target.

        ``owner`` is a module or a class that defines ``attr`` itself.
        The exact objects found there are put back on exit, so nothing
        of the tracing survives the ``with`` block.
        """
        originals: list[tuple[object, str, Any]] = []
        try:
            for owner, attr, name, *tap in targets:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.traced(original, name, *tap))
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- arithmetic ----------------------------------------------------------

    def duration(self, span_id: int) -> float:
        return self.ends[span_id] - self.starts[span_id]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its children cover.

        Children of one parent never overlap (one thread, one stack),
        so the covered part is the plain sum of their durations.
        """
        if self._open:
            raise RuntimeError("spans still open")
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for span_id, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                own[parent] -= self.duration(span_id)
        return own

    def totals(self) -> dict[str, SpanTotal]:
        """Calls, inclusive and self seconds per span name."""
        own = self.self_times()
        out: dict[str, SpanTotal] = {}
        for span_id, name in enumerate(self.names):
            total = out.setdefault(name, SpanTotal())
            total.calls += 1
            total.self_s += own[span_id]
            if not self._has_ancestor_named(span_id, name):
                total.busy_s += self.duration(span_id)
        return out

    def _has_ancestor_named(self, span_id: int, name: str) -> bool:
        cursor = self.parents[span_id]
        while cursor != NO_PARENT:
            if self.names[cursor] == name:
                return True
            cursor = self.parents[cursor]
        return False

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """The trace file's content: one row per span, ids are row indexes."""
        return {
            "run_id": self.run_id,
            "clock": "time.perf_counter seconds",
            "columns": ["id", "name", "start", "end", "parent"],
            "spans": [
                [span_id, name, start, end, parent]
                for span_id, (name, start, end, parent) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)
                )
            ],
        }
