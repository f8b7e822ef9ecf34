"""Periodic samplers: cadence, trace records, folded peaks, non-interference."""

from types import SimpleNamespace

import pytest

from repro.ledger.mempool import Mempool
from repro.net.latency import constant_histogram
from repro.net.network import Message, Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.obs.analyze import TraceSummary
from repro.obs.samplers import (
    ForkSampler,
    LinkSampler,
    MempoolSampler,
    PeriodicSampler,
)
from repro.obs.trace import MemorySink, Tracer


class _CountingSampler(PeriodicSampler):
    def __init__(self, period, until=None):
        super().__init__(period, until)
        self.times = []

    def sample(self, now):
        self.times.append(now)


class _FakeNode:
    def __init__(self, mempool_depth, tip):
        self.mempool = Mempool()
        for i in range(mempool_depth):
            self.mempool.add(SimpleNamespace(txid=bytes([i]) * 32, inputs=()))
        self.tip = tip


def test_period_must_be_positive():
    with pytest.raises(ValueError):
        _CountingSampler(0.0)


def test_sampler_fires_on_a_fixed_cadence():
    sim = Simulator()
    sampler = _CountingSampler(period=1.0, until=5.0)
    sampler.start(sim)
    sim.schedule(100.0, lambda: None)  # keep the clock running past until
    sim.run()
    assert sampler.times == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sampler.samples_taken == 5


def test_sampler_stops_at_horizon_without_stopping_the_sim():
    sim = Simulator()
    sampler = _CountingSampler(period=2.0, until=3.0)
    sampler.start(sim)
    fired = []
    sim.schedule(10.0, lambda: fired.append(sim.now))
    sim.run()
    assert sampler.times == [2.0]
    assert fired == [10.0]


def test_samplers_never_touch_the_simulation_rng():
    sim = Simulator(seed=42)
    state_before = sim.rng.getstate()
    nodes = [_FakeNode(3, b"a"), _FakeNode(5, b"b")]
    for sampler in (
        MempoolSampler(nodes, Tracer(), period=1.0, until=4.0),
        ForkSampler(nodes, Tracer(), period=1.0, until=4.0),
    ):
        sampler.start(sim)
    sim.run()
    assert sim.rng.getstate() == state_before


def test_link_sampler_sees_a_busy_link():
    sim = Simulator(seed=0)
    network = Network(
        sim, complete_topology(2), constant_histogram(0.1), bandwidth_bps=1000.0
    )
    summary = TraceSummary()
    sink = MemorySink()
    tracer = Tracer(sink, summary)
    sampler = LinkSampler(network, tracer, period=1.0, until=3.0)
    sampler.start(sim)
    # 8000 bytes at 1000 B/s serializes for 8 s: busy at every sample.
    network.send(0, 1, Message("bulk", None, 8000))
    sim.run()
    tracer.flush()
    assert sampler.samples_taken == 3
    busy_fractions = [r["frac"] for r in sink.records]
    assert all(f > 0 for f in busy_fractions)
    assert summary.peak_queued_bytes == sink.records[0]["queued_bytes"]
    assert summary.peak_busy_fraction == 0.5
    record = sink.records[0]
    assert record["ev"] == "sample_links"
    assert record["links"] == 2  # one directed link each way
    assert record["queued_bytes"] > 0


def test_mempool_sampler_summarizes_depths():
    sim = Simulator()
    nodes = [_FakeNode(2, b"x"), _FakeNode(8, b"x"), _FakeNode(5, b"x")]
    summary = TraceSummary()
    sink = MemorySink()
    tracer = Tracer(sink, summary)
    sampler = MempoolSampler(nodes, tracer, period=1.0, until=1.0)
    sampler.start(sim)
    sim.run()
    tracer.flush()
    record = sink.records[0]
    assert record["ev"] == "sample_mempool"
    assert record["total"] == 15
    assert record["min"] == 2
    assert record["max"] == 8
    assert record["mean"] == 5.0
    assert summary.peak_mempool == 8


def test_fork_sampler_counts_distinct_tips_and_peak():
    sim = Simulator()
    nodes = [_FakeNode(0, b"a"), _FakeNode(0, b"b"), _FakeNode(0, b"a")]
    summary = TraceSummary()
    sink = MemorySink()
    tracer = Tracer(sink, summary)
    sampler = ForkSampler(nodes, tracer, period=1.0, until=2.0)
    sampler.start(sim)
    # Converge to one tip between the first and second sample.
    sim.schedule(1.5, lambda: setattr(nodes[1], "tip", b"a"))
    sim.run()
    tracer.flush()
    assert [r["tips"] for r in sink.records] == [2, 1]
    # The last sample is the last record; the fold keeps the peak.
    assert summary.peak_tips == 2
