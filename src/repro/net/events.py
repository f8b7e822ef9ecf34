"""The cancellation handle of the deterministic event loop.

Events fire in (time, sequence) order; the sequence number makes
simultaneous events deterministic, so a seeded simulation always replays
identically — a property every experiment and test in this repository
relies on.

The :class:`~repro.net.simulator.Simulator`'s heap stores plain
``(time, sequence, callback, args, handle)`` tuples rather than rich
comparable objects: ``heapq`` then compares floats and ints in C
instead of calling a generated dataclass ``__lt__`` per sift step,
which is the single hottest comparison site in a million-event run.
The pair ``(time, sequence)`` is unique, so a comparison never reaches
the callback.  ``handle`` is an :class:`Event` for entries booked
through :meth:`~repro.net.simulator.Simulator.schedule` — the one call
whose return value anyone cancels (the mining scheduler does, once per
run) — and for the one entry the run's queue of getdata retry timers
keeps on the heap (see :class:`repro.net.gossip.RequestTimers`); it is
``None`` for every message delivery.  A cancelled entry stays in the
heap until it reaches the top and is popped unfired.
"""

from __future__ import annotations

from typing import Callable


class Event:
    """A cancel flag for one heap entry; never compared, only carried.

    ``rearm``, when set, is called as the entry leaves the heap, whether
    it fires or is popped cancelled: a timer queue that keeps only its
    earliest timer on the heap books the next one there.
    """

    __slots__ = ("cancelled", "rearm")

    def __init__(self, rearm: Callable[[], None] | None = None) -> None:
        self.cancelled = False
        self.rearm = rearm

    def cancel(self) -> None:
        """Drop the event instead of firing it (a no-op once it fired)."""
        self.cancelled = True
