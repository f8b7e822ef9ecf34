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

from ..clock import wall_clock
from .events import Event


class DispatchProfiler(Protocol):
    """What the profiled dispatch loop needs from a profiler.

    Structural typing keeps :mod:`repro.net` free of any import of the
    profiling layer (:mod:`repro.prof` implements this protocol); the
    simulator only ever hands over the event it just dispatched plus
    wall-clock deltas, so a profiler cannot perturb the simulation.
    """

    def loop_started(self) -> None: ...

    def loop_ended(self) -> None: ...

    def record(
        self, event: Event, pop_seconds: float, callback_seconds: float
    ) -> None: ...

    def record_probe(self, seconds: float) -> None: ...


class Simulator:
    """Discrete-event simulation core."""

    def __init__(self, seed: int = 0) -> None:
        # Min-heap of (time, sequence, Event); see repro.net.events.
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._now = 0.0
        self.rng = random.Random(seed)
        self._events_processed = 0
        self._probe: Callable[[], None] | None = None
        self._prof: DispatchProfiler | None = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def set_probe(self, probe: Callable[[], None] | None) -> None:
        """Install (or clear) an after-each-event observation hook.

        The probe runs after every dispatched event's callback.  It must
        be a pure observer: scheduling events, drawing from ``rng``, or
        mutating node state from a probe breaks the guarantee that
        probed runs are bit-identical to bare runs.  The disabled path
        costs one local load and ``None`` check per event (bounded in
        ``benchmarks/test_perf_regression.py``).
        """
        self._probe = probe

    def set_profiler(self, prof: DispatchProfiler | None) -> None:
        """Install (or clear) the hot-loop wall-time profiler.

        Like :meth:`set_probe`, the profiler is a pure observer: it
        receives each dispatched event and wall-clock deltas, never the
        simulation RNG or queue, so profiled runs stay bit-identical to
        bare runs — including ``events_processed``.  With a profiler
        installed, :meth:`run` branches into a separate timed loop; the
        bare loop is untouched, so the disabled path costs exactly one
        ``None``-check per :meth:`run` call (bounded per-event in
        ``benchmarks/test_perf_regression.py``).
        """
        self._prof = prof

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
        prof = self._prof
        if prof is not None:
            self._run_profiled(until, max_events, prof)
            return
        heap = self._heap
        heappop = heapq.heappop
        probe = self._probe
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

    def _run_profiled(
        self,
        until: float | None,
        max_events: int | None,
        prof: DispatchProfiler,
    ) -> None:
        """The dispatch loop with wall-time attribution around each event.

        Mirrors :meth:`run` exactly — same pop order, same callback
        invocation, same probe placement — with three extra wall-clock
        reads per event (pop, callback, probe boundaries).  Keeping this
        a separate loop means the bare path never pays for the reads,
        and keeping the reads *here* (not in the profiler) means the
        attribution excludes the profiler's own classification cost,
        which lands in the loop residual instead.
        """
        heap = self._heap
        heappop = heapq.heappop
        probe = self._probe
        clock = wall_clock
        record = prof.record
        record_probe = prof.record_probe
        processed = 0
        prof.loop_started()
        mark = clock()
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
                popped = clock()
                self._now = time
                args = event.args
                if args:
                    event.callback(*args)
                else:
                    event.callback()
                done = clock()
                record(event, popped - mark, done - popped)
                processed += 1
                if probe is not None:
                    before = clock()
                    probe()
                    record_probe(clock() - before)
                mark = clock()
        finally:
            self._events_processed += processed
            prof.loop_ended()

    def exponential(self, rate: float) -> float:
        """Sample an exponential interval with the given rate (1/mean)."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return self.rng.expovariate(rate)
