"""Simulator clock, scheduling, determinism."""

import heapq
import re
from pathlib import Path

import pytest

import repro
from repro.net.simulator import Simulator


def test_time_advances_with_events():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.schedule(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0, 5.0]


def test_only_the_simulator_sets_the_clock():
    # ``now`` is a plain attribute, read on every hop: nothing under
    # src/repro but the simulator itself may assign it.
    root = Path(repro.__file__).parent
    writers = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if re.search(r"\.now\s*=[^=]", path.read_text(encoding="utf-8"))
    }
    assert writers == {"net/simulator.py"}


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(1))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [1]


@pytest.mark.parametrize(
    "pending", ["live beyond", "drained", "cancelled beyond", "empty"]
)
def test_run_until_always_ends_at_until(pending):
    """Whatever is left in the queue — a live event, nothing, or only a
    cancelled one — the clock ends at ``until``."""
    sim = Simulator()
    if pending != "empty":
        sim.schedule(2.0, lambda: None)
    if pending == "live beyond":
        sim.schedule(7.0, lambda: None)
    elif pending == "cancelled beyond":
        sim.schedule(7.0, lambda: None).cancel()
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.events_processed == (0 if pending == "empty" else 1)


def test_max_events_stop_leaves_clock_at_last_event():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run(until=5.0, max_events=2)
    assert (sim.now, sim.events_processed) == (2.0, 2)
    sim.run(until=5.0)
    assert (sim.now, sim.events_processed) == (5.0, 3)


def test_run_until_the_past_rejected():
    sim = Simulator()
    sim.run(until=3.0)
    with pytest.raises(ValueError):
        sim.run(until=2.0)
    assert sim.now == 3.0


def test_events_scheduled_during_run():
    sim = Simulator()
    seen = []

    def chain(depth):
        seen.append(sim.now)
        if depth > 0:
            sim.schedule(1.0, lambda: chain(depth - 1))

    sim.schedule(0.0, lambda: chain(3))
    sim.run()
    assert seen == [0.0, 1.0, 2.0, 3.0]


def test_max_events_bound():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(0.0, forever)
    sim.run(max_events=10)
    assert sim.events_processed == 10


def test_cancelled_event_at_heap_top_with_until():
    """A cancelled head event is reaped, not mistaken for the horizon."""
    sim = Simulator()
    fired = []
    doomed = sim.schedule(5.0, lambda: fired.append("doomed"))
    sim.schedule(10.0, lambda: fired.append("live"))
    doomed.cancel()
    sim.run(until=7.0)
    # The cancelled event at t=5 sat at the heap top; the loop must
    # skip it and still honour the time bound for the t=10 event.
    assert fired == []
    assert sim.now == 7.0
    assert sim.events_processed == 0
    sim.run()
    assert fired == ["live"]
    assert sim.events_processed == 1


def test_cancelled_events_do_not_consume_max_events_budget():
    sim = Simulator()
    fired = []
    for _ in range(3):
        sim.schedule(1.0, lambda: fired.append("doomed")).cancel()
    sim.schedule(2.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("b"))
    sim.run(max_events=1)
    # Three cancelled events were popped first; only live callbacks
    # count against the budget.
    assert fired == ["a"]
    assert sim.events_processed == 1


def test_events_processed_accumulates_across_runs():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0, 4.0):
        sim.schedule(delay, lambda: None)
    sim.run(until=2.0)
    assert sim.events_processed == 2
    sim.run(max_events=1)
    assert sim.events_processed == 3
    sim.run()
    assert sim.events_processed == 4
    # Draining an empty queue leaves the counter untouched.
    sim.run()
    assert sim.events_processed == 4


def test_discard_pending_drops_what_is_queued_and_nothing_else():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "ran")
    sim.schedule(5.0, seen.append, "never")
    sim.run(until=2.0)
    sim.discard_pending()
    sim.run()
    assert seen == ["ran"] and sim.events_processed == 1 and sim.now == 2.0
    sim.schedule(1.0, seen.append, "after")  # still usable
    sim.run()
    assert seen == ["ran", "after"]


def test_events_processed_counts_callbacks_that_raise():
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    # The finally block still credits the events that completed before
    # the raising callback; the raising one itself never counts.
    assert sim.events_processed == 1
    assert sim.now == 2.0


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-1.0, lambda: None)


def test_seeded_rng_deterministic():
    a = Simulator(seed=99)
    b = Simulator(seed=99)
    assert [a.exponential(1.0) for _ in range(5)] == [
        b.exponential(1.0) for _ in range(5)
    ]


def test_exponential_mean():
    sim = Simulator(seed=1)
    samples = [sim.exponential(0.1) for _ in range(20_000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(10.0, rel=0.05)


def test_exponential_rejects_bad_rate():
    with pytest.raises(ValueError):
        Simulator().exponential(0.0)


# -- the observer seam ------------------------------------------------------


class _Recording:
    """An observer that asks for a probe and logs when it runs."""

    def __init__(self, name, calls):
        self.name = name
        self.calls = calls
        self.given = []

    def wrap_dispatch(self, heappop, probe):
        self.given.append((heappop, probe))

        def recording_probe():
            if probe is not None:
                probe()
            self.calls.append(self.name)

        return heappop, recording_probe


class _PassThrough:
    def wrap_dispatch(self, heappop, probe):
        return heappop, probe


def _scripted_run(observers=()):
    """A self-scheduling workload run in three legs; returns what happened.

    Leg one is cut by ``max_events``, leg two by ``until``, leg three
    runs dry; a cancelled event sits at the heap top when leg one
    starts and more are cancelled along the way.
    """
    from repro.sanitizer.runtime import SanitizerRuntime

    sim = Simulator(seed=3)
    for observer in observers:
        if isinstance(observer, SanitizerRuntime):
            observer.install(sim, [])  # it sweeps only once installed
        else:
            sim.attach(observer)
    fired = []

    def tick(name, depth):
        fired.append((name, sim.now, sim.rng.random()))
        if depth:
            sim.schedule(sim.rng.random(), tick, name + "a", depth - 1)
            sim.schedule(sim.rng.random(), tick, name + "x", 0).cancel()
            sim.schedule(sim.rng.random(), tick, name + "b", depth - 1)

    sim.schedule(0.0, tick, "doomed", 0).cancel()
    sim.schedule(0.1, tick, "r", 4)
    sim.schedule(0.2, tick, "s", 4)
    legs = []
    sim.run(max_events=7)
    legs.append((sim.now, sim.events_processed, len(fired)))
    sim.run(until=1.5)
    legs.append((sim.now, sim.events_processed, len(fired)))
    sim.run()
    legs.append((sim.now, sim.events_processed, len(fired)))
    return fired, legs


def test_scripted_run_exercises_every_cut():
    fired, legs = _scripted_run()
    assert legs[0][1] == 7  # max_events cut
    assert legs[1][0] == 1.5 and legs[1][1] > 7  # until cut, mid-run
    assert legs[2][1] == len(fired) == 62  # ran dry; no cancelled event fired
    assert all(not name.endswith("x") for name, _, _ in fired)


def test_pass_through_observer_leaves_run_bit_identical():
    assert _scripted_run([_PassThrough()]) == _scripted_run()


def test_observers_stack_in_attach_order():
    calls = []
    first, second = _Recording("A", calls), _Recording("B", calls)
    fired, legs = _scripted_run([first, second])
    assert (fired, legs) == _scripted_run()
    # Both probes after every event, A's before B's.
    assert calls == ["A", "B"] * len(fired)
    # Each run() rebuilds the stack from the bare pair.
    assert len(first.given) == len(second.given) == 3
    assert first.given[0] == (heapq.heappop, None)
    assert second.given[0][0] is heapq.heappop
    assert second.given[0][1] is not None


def test_detach_restores_the_bare_pair():
    sim = Simulator()
    calls = []
    first, second = _Recording("A", calls), _Recording("B", calls)
    sim.attach(first)
    sim.attach(second)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert calls == ["A", "B"]
    sim.detach(first)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert calls == ["A", "B", "B"]
    assert second.given[-1] == (heapq.heappop, None)
    sim.detach(second)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert calls == ["A", "B", "B"]
    assert sim.events_processed == 3


@pytest.mark.parametrize(
    "stack", ["sanitizer", "profiler", "sanitizer-profiler", "profiler-sanitizer"]
)
def test_observed_scripted_run_equals_bare(stack):
    """Shipped observers, alone and stacked, never perturb a run — cut by
    ``max_events``, cut by ``until``, or with cancelled events on top."""
    from repro.prof.runtime import ProfilerRuntime
    from repro.sanitizer.checkers import InvariantChecker
    from repro.sanitizer.runtime import SanitizerRuntime

    observers = [
        SanitizerRuntime((InvariantChecker(),), stride=1)
        if name == "sanitizer"
        else ProfilerRuntime()
        for name in stack.split("-")
    ]
    fired, legs = _scripted_run(observers)
    assert (fired, legs) == _scripted_run()
    for observer in observers:
        if isinstance(observer, SanitizerRuntime):
            assert observer.sweeps == len(fired)
        else:
            profile = observer.build_profile({}, 0.0, 1.0, len(fired))
            assert profile.phases["heappop"].calls == len(fired)
