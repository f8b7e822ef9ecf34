"""The simulation clock and scheduler.

A :class:`Simulator` owns virtual time, the deterministic event heap, and
a seeded random source.  Everything else in the stack — links, gossip,
mining, protocol nodes — schedules work through it, so a whole 1000-node
experiment is one single-threaded, perfectly reproducible event loop.
This mirrors the methodology of Shadow-Bitcoin [Miller & Jansen 2015]
cited by the paper, trading the paper's wall-clock emulation for
determinism.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any, Callable, Protocol

from .events import Event

if TYPE_CHECKING:
    from .gossip import RequestTimers

# (time, sequence, callback, args, handle); see repro.net.events.
HeapEntry = tuple[float, int, Callable[..., Any], tuple[Any, ...], Event | None]
HeapPop = Callable[[list[HeapEntry]], HeapEntry]
Probe = Callable[[], None]


class DispatchObserver(Protocol):
    """Something that watches the dispatch loop (see :meth:`Simulator.attach`).

    Structural typing keeps :mod:`repro.net` free of any import of the
    layers that observe it (:mod:`repro.sanitizer` and :mod:`repro.prof`
    implement this protocol).
    """

    def wrap_dispatch(
        self, heappop: HeapPop, probe: Probe | None
    ) -> tuple[HeapPop, Probe | None]:
        """The pair :meth:`Simulator.run` should call instead of the given one.

        ``heappop`` removes the next heap entry, a ``(time, sequence,
        callback, args, handle)`` tuple; the loop calls it once per live
        event and once per cancelled entry that reaches the heap top.
        ``probe`` — ``None`` when nobody before this observer
        wants one — runs after every dispatched event's callback.  The
        returned pop must return what the given pop returns and the
        returned probe must call the given probe, so observers stack in
        attach order.
        """
        ...


class Simulator:
    """Discrete-event simulation core."""

    def __init__(self, seed: int = 0) -> None:
        self._heap: list[HeapEntry] = []
        # Ties in time pop in booking order: every entry takes the next
        # number from this one counter, whoever books it.
        self._sequence = itertools.count()
        # Current virtual time in seconds.  A plain attribute, read on
        # every hop; only this class assigns it.
        self.now = 0.0
        self.rng = random.Random(seed)
        self._events_processed = 0
        self._observers: list[DispatchObserver] = []
        # The gossip layer's getdata retry timers, built by the run's
        # first GossipNode; the queue keeps only its earliest live timer
        # on the heap.  Emptied by discard_pending.
        self.request_timers: RequestTimers | None = None

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def attach(self, observer: DispatchObserver) -> None:
        """Let ``observer`` wrap the dispatch loop of every later :meth:`run`.

        The pop it wraps takes and returns ``(time, sequence, callback,
        args, handle)`` entries; ``callback(*args)`` is what the entry
        runs.  A cancelled entry is popped too; if it is the one entry
        the timer queue keeps on the heap, the loop then pushes the
        queue's next timer (as it does when such an entry fires), so a
        pop can be followed by a push that no callback made.  Observers
        must be pure: scheduling events, drawing from ``rng`` or
        mutating node state from a pop or a probe breaks the
        guarantee that observed runs are bit-identical to bare runs,
        ``events_processed`` included.  With none attached the loop
        pays one ``None`` check per event (bounded in
        ``benchmarks/test_perf_regression.py``).
        """
        self._observers.append(observer)

    def detach(self, observer: DispatchObserver) -> None:
        """Stop ``observer`` wrapping the loop (from the next :meth:`run`)."""
        self._observers.remove(observer)

    def discard_pending(self) -> None:
        """Drop every event still queued; for a run that is over.

        A queued event holds its callback's receiver — a node, the
        network — so this is one of the two links that keep a finished
        world alive (:meth:`Network.detach_all` cuts the other); the
        timer queue holds the nodes whose timers it keeps, so it is
        emptied too.
        """
        self._heap.clear()
        if self.request_timers is not None:
            self.request_timers.clear()

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time.

        Returns the handle that cancels it.  Passing the arguments here
        (rather than closing over them in a lambda) avoids one closure
        allocation per scheduled event.  A cancelled entry stays in the
        heap until it reaches the top: a run cancels about one (the
        mining scheduler's last draw), so nothing compacts the heap.  A
        timer that is booked once per message and nearly always
        satisfied (a getdata's retry timer) does not come here: it joins
        :attr:`request_timers`, which keeps one heap entry for all of
        them.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        handle = Event()
        heapq.heappush(
            self._heap,
            (self.now + delay, next(self._sequence), callback, args, handle),
        )
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Run ``callback(*args)`` at absolute virtual ``time`` (>= now).

        Not cancellable, so no handle is built; message deliveries book
        the same bare entry through :meth:`booking`.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(
            self._heap, (time, next(self._sequence), callback, args, None)
        )

    def booking(self) -> tuple[list[HeapEntry], Iterator[int]]:
        """The heap and its sequence counter, for booking in a hot loop.

        The one way past :meth:`schedule_at` onto the heap: the caller
        pushes ``(time, next(sequence), callback, args, None)`` with
        :func:`heapq.heappush`, which is :meth:`schedule_at` without the
        method call and the past-time check — so ``time`` must already
        be ``>= now``.  Both objects live as long as the simulator
        (:meth:`discard_pending` clears the heap in place), so the pair
        can be fetched once and kept.  The network's delivery
        booking (``Network.send`` / ``Network.multicast``) is the one
        caller.
        """
        return self._heap, self._sequence

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events in order until the queue empties.

        ``until`` bounds virtual time: events beyond it stay queued, and
        the clock ends at ``until`` whether the queue ran dry or not.
        ``max_events`` bounds work, guarding against runaway feedback
        loops in experimental protocol code; a run it stops leaves the
        clock at the last event it processed.

        Callbacks scheduling new events push onto the same heap list,
        so holding the reference across iterations is safe.  An entry
        whose handle re-arms calls it as it leaves the heap, before its
        callback when it fires; the re-armed timer is later than the
        entry, so it is on the heap before it could be due.
        """
        if until is not None and until < self.now:
            raise ValueError(f"cannot run until the past ({until} < {self.now})")
        heap = self._heap
        heappop: HeapPop = heapq.heappop
        probe: Probe | None = None
        for observer in self._observers:
            heappop, probe = observer.wrap_dispatch(heappop, probe)
        horizon = math.inf if until is None else until
        budget = -1 if max_events is None else max_events
        processed = 0
        try:
            while heap:
                time, _seq, callback, args, handle = heap[0]
                if handle is not None and handle.cancelled:
                    heappop(heap)
                    if handle.rearm is not None:
                        handle.rearm()
                    continue
                if time > horizon:
                    break
                if processed == budget:
                    return
                heappop(heap)
                if handle is not None and handle.rearm is not None:
                    handle.rearm()
                self.now = time
                if args:
                    callback(*args)
                else:
                    callback()
                processed += 1
                if probe is not None:
                    probe()
        finally:
            self._events_processed += processed
        if until is not None:
            self.now = until

    def exponential(self, rate: float) -> float:
        """Sample an exponential interval with the given rate (1/mean)."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self.rng.expovariate(rate)
