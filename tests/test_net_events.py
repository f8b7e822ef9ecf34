"""Event ordering and cancellation in the simulator's event heap."""

import pytest

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
    with pytest.raises(ValueError):
        sim.schedule_batch([1.0, -1.0], lambda: None, [(), ()])
    sim.run()
    assert sim.events_processed == 0  # the rejected batch booked nothing
