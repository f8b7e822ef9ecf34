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
whose return value anyone cancels (the mining scheduler does) — and
for the one entry a queue of fixed-delay timers keeps on the heap
(the gossip layer's getdata retry timers, see
:class:`repro.net.gossip.RequestTimers`); it is ``None`` for every
message delivery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .simulator import Simulator


class Event:
    """A cancel flag for one heap entry; never compared, only carried.

    ``rearm``, when set, is called as the entry leaves the heap, whether
    it fires or is popped cancelled: a timer queue that keeps only its
    earliest timer on the heap books the next one there.  Such an entry
    stands for its queue, not for one dead event, so the simulator
    neither counts it as cancelled nor compacts it away; it is built
    with no simulator, and its queue cancels it by setting
    ``cancelled``.
    """

    __slots__ = ("cancelled", "_sim", "rearm")

    def __init__(
        self, sim: Simulator | None, rearm: Callable[[], None] | None = None
    ) -> None:
        self.cancelled = False
        # The simulator whose heap holds the entry; None once the entry
        # has fired, been cancelled or been discarded, and always for an
        # entry that re-arms.
        self._sim: Simulator | None = sim
        self.rearm = rearm

    def cancel(self) -> None:
        """Drop the event instead of firing it.

        Only the first cancel of an entry still in the heap is counted
        by the simulator, so cancelling twice, or after the event fired,
        changes nothing.
        """
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._count_cancelled()
