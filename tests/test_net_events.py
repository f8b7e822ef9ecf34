"""Event ordering and cancellation in the simulator's event heap."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.events import Event
from repro.net.simulator import Simulator


def test_fires_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == ["a", "b", "c"]


def test_cancelled_events_skipped():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "keep")
    drop = sim.schedule(0.5, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert sim.events_processed == 1


def test_peek_time_skips_cancelled():
    # run() peeks at the head's time to decide whether ``until`` has
    # been reached: a cancelled head must be skipped, not compared.
    sim = Simulator()
    fired = []
    early = sim.schedule(1.0, fired.append, "early")
    sim.schedule(2.0, fired.append, "late")
    early.cancel()
    sim.run(until=1.5)
    assert (fired, sim.now) == ([], 1.5)
    sim.run()
    assert (fired, sim.now) == (["late"], 2.0)


def test_empty_queue():
    sim = Simulator()
    sim.run()
    assert sim.events_processed == 0
    assert sim.now == 0.0


def test_negative_time_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_at(-1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 0  # the rejected call booked nothing


# -- the event core against a naive reference ---------------------------------


class _Reference:
    """The event core as a dict scanned for its minimum on every step:
    no heap and no handles."""

    def __init__(self):
        self.pending = {}  # sequence -> (time, sequence, label, lo, hi)
        self.handle_seq = []
        self.sequence = 0
        self.now = 0.0
        self.processed = 0
        self.fired = []

    def push(self, time, label, lo, hi, cancellable):
        self.pending[self.sequence] = (time, self.sequence, label, lo, hi)
        if cancellable:
            self.handle_seq.append(self.sequence)
        self.sequence += 1

    def cancel(self, index):
        self.pending.pop(self.handle_seq[index], None)

    def run(self, until, max_events):
        horizon = math.inf if until is None else until
        processed = 0
        while self.pending:
            time, sequence, label, lo, hi = min(self.pending.values())
            if time > horizon:
                break
            if processed == max_events:
                return
            del self.pending[sequence]
            self.now = time
            self.fired.append((label, time))
            for index in range(lo, min(hi, len(self.handle_seq))):
                self.cancel(index)
            self.processed += 1
            processed += 1
        if until is not None:
            self.now = until


_DELAYS = st.integers(min_value=0, max_value=6).map(lambda n: n / 2)
_ACTIONS = st.tuples(st.integers(0, 300), st.integers(0, 300)) | st.just((0, 0))
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _ACTIONS),
    st.tuples(st.just("schedule_at"), _DELAYS, _ACTIONS),
    st.tuples(st.just("batch"), st.lists(_DELAYS, max_size=8), _ACTIONS),
    st.tuples(st.just("timers"), st.integers(1, 150), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 300), st.integers(0, 300)),
    st.tuples(
        st.just("run"),
        st.none() | _DELAYS,
        st.none() | st.integers(0, 40),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_OPS, max_size=25))
def test_event_core_matches_sorted_list_reference(program):
    """Random schedule / schedule_at / booked-batch / cancel programs —
    double cancels, cancels after firing, cancels from inside callbacks —
    fire what the reference fires, in its order, with its clock and its
    event count.  A batch is pushed through
    :meth:`Simulator.booking`, the way the network books deliveries,
    and shares the one sequence counter with the scheduling calls."""
    sim = Simulator()
    heap, sequence = sim.booking()
    ref = _Reference()
    handles = []
    fired = []
    labels = iter(range(10**9))

    def fire(label, lo, hi):
        fired.append((label, sim.now))
        for index in range(lo, min(hi, len(handles))):
            handles[index].cancel()

    def run(until, max_events):
        sim.run(until=until, max_events=max_events)
        ref.run(until, max_events)
        assert (fired, sim.events_processed, sim.now) == (
            ref.fired,
            ref.processed,
            ref.now,
        )

    for op in program:
        kind = op[0]
        if kind == "schedule":
            label = next(labels)
            handles.append(sim.schedule(op[1], fire, label, *op[2]))
            ref.push(ref.now + op[1], label, *op[2], cancellable=True)
        elif kind == "schedule_at":
            label = next(labels)
            assert sim.schedule_at(sim.now + op[1], fire, label, *op[2]) is None
            ref.push(ref.now + op[1], label, *op[2], cancellable=False)
        elif kind == "batch":
            for delay in op[1]:
                label = next(labels)
                heapq.heappush(
                    heap,
                    (sim.now + delay, next(sequence), fire, (label, *op[2]), None),
                )
                ref.push(ref.now + delay, label, *op[2], cancellable=False)
        elif kind == "timers":
            for index in range(op[1]):
                label = next(labels)
                delay = op[2] + index / 64
                handles.append(sim.schedule(delay, fire, label, 0, 0))
                ref.push(ref.now + delay, label, 0, 0, cancellable=True)
        elif kind == "cancel":
            for index in range(op[1], min(op[2], len(handles))):
                handles[index].cancel()
                ref.cancel(index)
        else:
            until = None if op[1] is None else sim.now + op[1]
            run(until, op[2])
    run(None, None)
    assert sim._heap == []


def _queue_entry(sim, time, log):
    """Push one entry whose handle re-arms, as a timer queue does."""
    heap, sequence = sim.booking()
    handle = Event(lambda: log.append(("rearm", sim.now)))
    heapq.heappush(heap, (time, next(sequence), log.append, (("fire", time),), handle))
    return handle


def test_an_entry_that_rearms_calls_it_before_its_callback():
    sim = Simulator()
    log = []
    _queue_entry(sim, 2.0, log)
    sim.run()
    # The re-arm runs as the entry leaves the heap: before the clock
    # moves to the entry's time and before its callback.
    assert log == [("rearm", 0.0), ("fire", 2.0)]
    assert sim.events_processed == 1


def test_a_cancelled_entry_that_rearms_calls_it_without_firing():
    """It stays in the heap until it reaches the top; there it re-arms
    and is dropped unfired, uncounted."""
    sim = Simulator()
    log = []
    _queue_entry(sim, 5.0, log).cancel()
    sim.schedule(10.0, log.append, "late")
    sim.run(until=6.0)
    assert log == [("rearm", 0.0)] and sim.events_processed == 0
    sim.run()
    assert log == [("rearm", 0.0), "late"] and sim.events_processed == 1
