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
import random
from typing import Any, Callable, Protocol

from .events import Event

HeapEntry = tuple[float, int, Event]
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

        ``heappop`` removes the next heap entry (the loop calls it once
        per live event and once per cancelled one); ``probe`` — ``None``
        when nobody before this observer wants one — runs after every
        dispatched event's callback.  The returned pop must return what
        the given pop returns and the returned probe must call the given
        probe, so observers stack in attach order.
        """
        ...


class Simulator:
    """Discrete-event simulation core."""

    def __init__(self, seed: int = 0) -> None:
        # Min-heap of (time, sequence, Event); see repro.net.events.
        self._heap: list[HeapEntry] = []
        self._sequence = 0
        self._now = 0.0
        self.rng = random.Random(seed)
        self._events_processed = 0
        self._observers: list[DispatchObserver] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def attach(self, observer: DispatchObserver) -> None:
        """Let ``observer`` wrap the dispatch loop of every later :meth:`run`.

        Observers must be pure: scheduling events, drawing from ``rng``
        or mutating node state from a pop or a probe breaks the
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
        world alive (:meth:`Network.detach_all` cuts the other).
        """
        self._heap.clear()

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time.

        Passing the arguments here (rather than closing over them in a
        lambda) avoids one closure allocation per scheduled message on
        the simulator's hottest path.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at absolute virtual ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_batch(
        self,
        times: list[float],
        callback: Callable[..., Any],
        args_list: list[tuple[Any, ...]],
    ) -> list[Event]:
        """Schedule one ``callback(*args)`` per ``(time, args)`` pair.

        Equivalent to calling :meth:`schedule_at` once per entry (same
        sequence-number order, so dispatch order is unchanged), but the
        heap/sequence lookups are hoisted out of the loop — the relay
        fan-out in :class:`~repro.net.network.Network` books a whole
        neighborhood this way.  Returns the events in list order.
        """
        if times and min(times) < self._now:
            raise ValueError(
                f"cannot schedule in the past ({min(times)} < {self._now})"
            )
        heap = self._heap
        heappush = heapq.heappush
        sequence = self._sequence
        slab = []
        append = slab.append
        for time, args in zip(times, args_list):
            event = Event(time, sequence, callback, args)
            heappush(heap, (time, sequence, event))
            sequence += 1
            append(event)
        self._sequence = sequence
        return slab

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events in order until the queue empties.

        ``until`` bounds virtual time (events beyond it stay queued);
        ``max_events`` bounds work, guarding against runaway feedback
        loops in experimental protocol code.

        Callbacks scheduling new events push onto the same heap list,
        so holding the reference across iterations is safe.
        """
        heap = self._heap
        heappop: HeapPop = heapq.heappop
        probe: Probe | None = None
        for observer in self._observers:
            heappop, probe = observer.wrap_dispatch(heappop, probe)
        processed = 0
        try:
            while heap and (max_events is None or processed < max_events):
                time, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and time > until:
                    self._now = until
                    return
                heappop(heap)
                self._now = time
                args = event.args
                if args:
                    event.callback(*args)
                else:
                    event.callback()
                processed += 1
                if probe is not None:
                    probe()
        finally:
            self._events_processed += processed

    def exponential(self, rate: float) -> float:
        """Sample an exponential interval with the given rate (1/mean)."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self.rng.expovariate(rate)
