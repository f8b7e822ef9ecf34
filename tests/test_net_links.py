"""Link bandwidth, latency, and FIFO queuing — on one directed link of a
two-node :class:`~repro.net.network.Network`, where the rule runs."""

import pytest

from repro.net.latency import LatencyHistogram, constant_histogram
from repro.net.links import DEFAULT_BANDWIDTH_BPS
from repro.net.network import Message, Network
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology


class OneLink:
    """Nodes 0 and 1 joined by one link; node 1 logs what arrives."""

    def __init__(self, latency, bandwidth=DEFAULT_BANDWIDTH_BPS):
        histogram = (
            constant_histogram(latency)
            if latency != 0
            else LatencyHistogram([0.0, 1e-12], [1])
        )
        self.sim = Simulator(seed=0)
        self.net = Network(self.sim, complete_topology(2), histogram, bandwidth)
        self.net.attach(1, self)
        self._arrived = {}

    def on_message(self, sender, message):
        self._arrived[message.payload] = self.sim.now

    @property
    def link(self):
        return self.net.link(0, 1)

    def transfer(self, *sends):
        """Send one message per ``(time, size)`` pair, in the given
        order, from node 0; run; return the arrival times in that order."""
        first = len(self._arrived)
        for offset, (time, size) in enumerate(sends):
            message = Message("m", first + offset, size)
            self.sim.schedule_at(time, self.net.send, 0, 1, message)
        self.sim.run()
        return [self._arrived[first + i] for i in range(len(sends))]


def test_latency_only_for_empty_message():
    assert OneLink(0.1, 1000).transfer((0.0, 0)) == [pytest.approx(0.1)]


def test_serialization_delay_proportional_to_size():
    assert OneLink(0.0, 1000).transfer((0.0, 500)) == [pytest.approx(0.5)]


def test_fifo_queuing_for_bulk_messages():
    # The first serializes until t=2.0; the second queues behind, to t=4.0.
    first, second = OneLink(0.1, 1000).transfer((0.0, 2000), (0.0, 2000))
    assert first == pytest.approx(2.1)
    assert second == pytest.approx(4.1)


def test_small_messages_interleave_with_bulk():
    # A key-block-sized message does not wait out an 80 kB microblock:
    # packet-level interleaving, as on a real TCP link.
    bulk, urgent = OneLink(0.1, 12_500).transfer((0.0, 80_000), (1.0, 200))
    assert bulk == pytest.approx(6.5)  # occupies the link until t=6.4
    assert urgent == pytest.approx(1.0 + 200 / 12_500 + 0.1)


def test_interleave_cutoff_configurable():
    strict = OneLink(0.0, 1000)
    strict.net._interleave_cutoff = 0
    assert strict.link.interleave_cutoff == 0
    # Even tiny messages queue.
    assert strict.transfer((0.0, 100), (0.0, 100))[1] == pytest.approx(0.2)


def test_idle_link_resets():
    link = OneLink(0.0, 1000)
    link.transfer((0.0, 2000))  # busy until 2.0
    assert link.transfer((5.0, 2000)) == [pytest.approx(7.0)]  # long idle


def test_queue_delay():
    link = OneLink(0.0, 100)
    link.net.send(0, 1, Message("m", "bulk", 2000))  # busy until 20.0
    assert link.link.busy_until == pytest.approx(20.0)
    # A bulk message sent at 0.5 waits the remaining 19.5 s; the link is
    # idle again by the time the next one is sent.
    waited, idle = link.transfer((0.5, 2000), (50.0, 2000))
    assert waited == pytest.approx(40.0)
    assert idle == pytest.approx(70.0)


def test_paper_bandwidth_figure():
    # 100 kbit/s: a 1 MB block takes ~80 s per hop — the core tension
    # the paper's Figure 7 measures.
    link = OneLink(0.0)
    assert link.link.bandwidth == DEFAULT_BANDWIDTH_BPS
    assert link.transfer((0.0, 1_000_000)) == [pytest.approx(80.0, rel=0.01)]


def test_validation():
    with pytest.raises(ValueError):
        OneLink(-0.1)
    with pytest.raises(ValueError):
        OneLink(0.1, bandwidth=0)
    with pytest.raises(ValueError):
        Message("m", None, -1)
    with pytest.raises(AttributeError):
        OneLink(0.1).link.latency = 0.2  # views are read-only
