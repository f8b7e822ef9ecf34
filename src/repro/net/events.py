"""The scheduled-event handle of the deterministic event loop.

Events fire in (time, sequence) order; the sequence number makes
simultaneous events deterministic, so a seeded simulation always replays
identically — a property every experiment and test in this repository
relies on.

The :class:`~repro.net.simulator.Simulator`'s heap stores plain
``(time, sequence, event)`` tuples rather than rich comparable objects:
``heapq`` then compares floats and ints in C instead of calling a
generated dataclass ``__lt__`` per sift step, which is the single
hottest comparison site in a million-event run.  The :class:`Event`
handle the ``schedule*`` methods return carries the callback and
supports cancellation.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A scheduled callback handle; never compared, only carried."""

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the dispatch loop drops it instead of firing it."""
        self.cancelled = True
