"""Network message delivery, churn, and statistics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import LatencyHistogram, constant_histogram
from repro.net.links import SMALL_MESSAGE_CUTOFF
from repro.net.network import Message, Network
from repro.net.simulator import Simulator
from repro.net.topology import Topology, complete_topology, ring_topology


class Recorder:
    """Message sink capturing (sender, message, time)."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message, self.sim.now))


def _network(n=3, latency=0.1, bandwidth=1000.0, topo=None):
    sim = Simulator(seed=0)
    topology = topo or complete_topology(n)
    net = Network(sim, topology, constant_histogram(latency), bandwidth)
    sinks = [Recorder(sim) for _ in range(topology.n_nodes)]
    for i, sink in enumerate(sinks):
        net.attach(i, sink)
    return sim, net, sinks


def test_send_delivers_after_latency_and_serialization():
    sim, net, sinks = _network()
    net.send(0, 1, Message("ping", None, 1000))
    sim.run()
    _, _, arrival = sinks[1].received[0]
    assert arrival == pytest.approx(1.0 + 0.1)


def test_broadcast_reaches_all_neighbors():
    sim, net, sinks = _network(n=4)
    net.multicast(0, Message("hello", 42, 10))
    sim.run()
    for sink in sinks[1:]:
        assert len(sink.received) == 1
    assert sinks[0].received == []


def test_send_requires_adjacency():
    sim, net, _ = _network(topo=ring_topology(4))
    with pytest.raises(ValueError):
        net.send(0, 2, Message("x", None, 1))


@pytest.mark.parametrize("cut", ["dst offline", "src offline", "link blocked"])
def test_non_adjacent_send_raises_even_when_it_would_be_dropped(cut):
    sim, net, sinks = _network(topo=ring_topology(4))
    if cut == "dst offline":
        net.set_offline(2)
    elif cut == "src offline":
        net.set_offline(0)
    else:
        net.block_link(0, 2)
    with pytest.raises(ValueError, match="not adjacent"):
        net.send(0, 2, Message("x", None, 1))
    sim.run()
    assert sinks[2].received == []


def test_lossy_non_adjacent_send_raises_without_a_loss_draw():
    import random

    sim, net, _ = _network(topo=ring_topology(4))
    loss_rng = random.Random(5)
    net.set_loss(0.5, loss_rng)
    state = loss_rng.getstate()
    with pytest.raises(ValueError, match="not adjacent"):
        net.send(0, 2, Message("x", None, 1))
    assert loss_rng.getstate() == state
    net.send(0, 1, Message("y", None, 1))  # an adjacent send draws once
    assert loss_rng.getstate() != state


def test_offline_node_drops_messages():
    sim, net, sinks = _network()
    net.set_offline(1)
    net.send(0, 1, Message("lost", None, 1))
    sim.run()
    assert sinks[1].received == []


def test_offline_sender_cannot_send():
    sim, net, sinks = _network()
    net.set_offline(0)
    net.send(0, 1, Message("lost", None, 1))
    sim.run()
    assert sinks[1].received == []


def test_node_returning_from_churn():
    sim, net, sinks = _network()
    net.set_offline(1)
    assert not net.is_online(1)
    net.set_offline(1, offline=False)
    net.send(0, 1, Message("back", None, 1))
    sim.run()
    assert len(sinks[1].received) == 1


def test_symmetric_pair_latency_independent_queues():
    sim, net, sinks = _network(latency=0.2, bandwidth=100.0)
    net.send(0, 1, Message("a", None, 100))
    net.send(1, 0, Message("b", None, 100))
    sim.run()
    # Opposite directions do not queue behind each other.
    assert sinks[1].received[0][2] == pytest.approx(1.2)
    assert sinks[0].received[0][2] == pytest.approx(1.2)


def test_delivery_statistics():
    sim, net, sinks = _network()
    net.send(0, 1, Message("a", None, 10))
    net.send(0, 2, Message("b", None, 20))
    sim.run()
    assert net.messages_delivered == 2
    assert net.bytes_delivered == 30


def test_attach_validates_node_id():
    sim, net, _ = _network()
    with pytest.raises(ValueError):
        net.attach(99, Recorder(sim))


def test_detach_all_drops_the_handlers_and_later_deliveries():
    sim, net, sinks = _network()
    net.send(0, 1, Message("ping", None, 10))
    net.detach_all()
    sim.run()  # the message arrives at nobody, like at an unattached id
    assert all(not sink.received for sink in sinks)
    assert net.messages_delivered == 0


def test_message_size_validation():
    with pytest.raises(ValueError):
        Message("bad", None, -1)


def _obs_network():
    from repro.obs import Observability
    from repro.obs.trace import MemorySink, Tracer

    sim = Simulator(seed=0)
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    net = Network(
        sim, complete_topology(3), constant_histogram(0.1), 1000.0, obs=obs
    )
    for i in range(3):
        net.attach(i, Recorder(sim))
    return sim, net, obs, sink


def test_traffic_by_node_sums_link_counters():
    sim, net, obs, _ = _obs_network()
    net.send(0, 1, Message("a", None, 100))
    net.send(0, 2, Message("b", None, 250))
    net.send(1, 0, Message("c", None, 40))
    sim.run()
    obs.tracer.flush()
    traffic = obs.summary.per_node
    assert traffic[0] == {
        "bytes_out": 350, "bytes_in": 40,
        "messages_out": 2, "messages_in": 1,
    }
    assert traffic[1]["bytes_in"] == 100
    assert traffic[2] == {
        "bytes_out": 0, "bytes_in": 250,
        "messages_out": 0, "messages_in": 1,
    }
    # Conservation: every byte out lands as a byte in somewhere.
    assert sum(t["bytes_out"] for t in traffic) == obs.summary.total_bytes
    assert sum(t["bytes_in"] for t in traffic) == obs.summary.total_bytes


def test_traffic_by_node_counts_booked_not_delivered():
    sim, net, obs, sink = _obs_network()
    net.send(0, 1, Message("x", None, 500))
    net.set_offline(1)  # goes dark while the message is in flight
    sim.run()
    obs.tracer.flush()
    assert [r["ev"] for r in sink.records] == ["send", "drop"]
    assert obs.summary.per_node[1]["bytes_in"] == 500


def test_link_utilization_tracks_serialization():
    sim, net, _ = _network(bandwidth=1000.0)
    busy, total, queued = net.link_utilization(sim.now)
    assert (busy, queued) == (0, 0.0)
    assert total == 6  # complete 3-node graph, one link per direction
    # 4000 bytes at 1000 B/s is bulk (above the interleave cutoff) and
    # holds the 0→1 link for 4 s.
    net.send(0, 1, Message("bulk", None, 4000))
    busy, _, queued = net.link_utilization(sim.now)
    assert busy == 1
    assert queued == pytest.approx(4000.0)
    busy, _, queued = net.link_utilization(sim.now + 2.0)
    assert queued == pytest.approx(2000.0)
    sim.run()
    busy, _, queued = net.link_utilization(sim.now)
    assert (busy, queued) == (0, 0.0)


def test_instrumented_send_updates_counters_and_trace():
    sim, net, obs, sink = _obs_network()
    net.send(0, 1, Message("inv", None, 61))
    sim.run()
    obs.tracer.flush()
    assert obs.summary.sends_by_kind == {"inv": 1}
    assert obs.summary.bytes_by_kind == {"inv": 61}
    events = [r["ev"] for r in sink.records]
    assert events == ["send", "deliver"]
    assert sink.records[0]["src"] == 0
    assert sink.records[0]["dst"] == 1


def test_instrumented_drops_are_recorded():
    sim, net, obs, sink = _obs_network()
    net.set_offline(1)
    net.send(0, 1, Message("inv", None, 61))
    net.block_link(0, 2)
    net.send(0, 2, Message("inv", None, 61))
    sim.run()
    obs.tracer.flush()
    assert obs.summary.drops == 2
    assert [r["ev"] for r in sink.records] == ["drop", "drop"]


def test_key_block_sized_message_overtakes_bulk_transfer():
    """A tiny message sent after a large one still arrives first.

    This is the property that keeps Bitcoin-NG's leader election live
    at high throughput: key blocks (~200 B) interleave with 80 kB
    microblock bodies instead of queuing behind them.
    """
    sim, net, sinks = _network(latency=0.1, bandwidth=12_500)
    net.send(0, 1, Message("micro-body", None, 80_000))  # 6.4 s wire time
    net.send(0, 1, Message("key-block", None, 200))
    sim.run()
    kinds_in_order = [m.kind for _, m, _ in sinks[1].received]
    assert kinds_in_order == ["key-block", "micro-body"]
    key_arrival = sinks[1].received[0][2]
    assert key_arrival < 0.5


# -- determinism regression (repro lint NG301 fix) ---------------------------


def test_link_latencies_independent_of_edge_insertion_order():
    """Latency assignment is pinned to sorted edge order, not set layout.

    Links used to be built by iterating ``topology.edges`` — a set of
    frozensets — while drawing one latency per edge, so the latency a
    pair received depended on hash/insertion order (flagged by
    ``repro lint`` rule NG301).  The fix draws in sorted edge order:
    two topologies with the same edge *set* but different insertion
    histories must now produce bit-identical link latencies.
    """
    import random

    from repro.net.latency import default_histogram

    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (0, 3), (2, 4), (3, 4)]
    forward = Topology(5)
    for a, b in edges:
        forward.add_edge(a, b)
    backward = Topology(5)
    for a, b in reversed(edges):
        backward.add_edge(b, a)
    assert forward.edges == backward.edges

    histogram = default_histogram(seed=3)

    def latencies(topology):
        net = Network(
            Simulator(seed=0),
            topology,
            histogram,
            latency_rng=random.Random(42),
        )
        return {
            pair: net.link(*pair).latency
            for a, b in topology.edges
            for pair in ((a, b), (b, a))
        }

    assert latencies(forward) == latencies(backward)

    # Pin the assignment rule itself: the k-th sorted edge gets the
    # k-th histogram draw, symmetrically in both directions.
    rng = random.Random(42)
    expected = {}
    for a, b in sorted(tuple(sorted(e)) for e in forward.edges):
        latency = histogram.sample(rng)
        expected[(a, b)] = latency
        expected[(b, a)] = latency
    assert latencies(forward) == expected


# -- multicast is send once per neighbor --------------------------------------


_N_NODES = 7
_PAIRS = [(a, b) for a in range(_N_NODES) for b in range(a + 1, _N_NODES)]
_NODE_SETS = st.sets(st.integers(0, _N_NODES - 1))
_SIZES = st.sampled_from(
    [0, 1, 61, SMALL_MESSAGE_CUTOFF - 1, SMALL_MESSAGE_CUTOFF]
    + [SMALL_MESSAGE_CUTOFF + 1, 8_000, 80_000]
)


def _fanout_world(edges, bandwidth, backlog, obs_on, loss_rate, offline, blocked):
    """A network with some bulk traffic still on its links at t = 0.5."""
    from repro.obs import Observability
    from repro.obs.trace import MemorySink, Tracer

    sim = Simulator(seed=0)
    topology = Topology(_N_NODES)
    for a, b in edges:
        topology.add_edge(a, b)
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink)) if obs_on else None
    histogram = LatencyHistogram([0.01, 0.05, 0.2, 1.0], [3, 2, 1])
    net = Network(sim, topology, histogram, bandwidth, obs=obs)
    sinks = [Recorder(sim) for _ in range(_N_NODES)]
    for node, recorder in enumerate(sinks):
        net.attach(node, recorder)
    for src, dst, size in backlog:
        if dst in topology.neighbors(src):
            net.send(src, dst, Message("backlog", None, size))
    sim.run(until=0.5)
    for node in offline:
        net.set_offline(node)
    for a, b in blocked:
        net.block_link(a, b)
    loss_rng = random.Random(3)
    if loss_rate:
        net.set_loss(loss_rate, loss_rng)
    return sim, net, sinks, sink, loss_rng


@settings(max_examples=200, deadline=None)
@given(
    edges=st.sets(st.sampled_from(_PAIRS), min_size=1),
    bandwidth=st.sampled_from([1_000.0, 12_500.0, 1e6]),
    backlog=st.lists(
        st.tuples(
            st.integers(0, _N_NODES - 1),
            st.integers(0, _N_NODES - 1),
            st.sampled_from([500, 4_000, 20_000]),
        ),
        max_size=6,
    ),
    obs_on=st.booleans(),
    loss_rate=st.sampled_from([0.0, 0.3, 0.7]),
    offline=_NODE_SETS,
    blocked=st.sets(st.sampled_from(_PAIRS)),
    src=st.integers(0, _N_NODES - 1),
    exclude=_NODE_SETS,
    size=_SIZES,
)
def test_multicast_equals_one_send_per_neighbor_in_sorted_order(
    edges, bandwidth, backlog, obs_on, loss_rate, offline, blocked, src, exclude, size
):
    """Two twin worlds, one fan-out each: ``multicast`` in one, a
    ``send`` per non-excluded neighbor (sorted) in the other.  They book
    the same heap entries under the same sequence numbers, leave every
    link equally busy, draw the loss RNG equally often, write the same
    send and drop records, and deliver at the same times."""
    world = (edges, bandwidth, backlog, obs_on, loss_rate, offline, blocked)
    message = Message("inv", None, size)
    sim_m, net_m, sinks_m, sink_m, loss_m = _fanout_world(*world)
    sim_s, net_s, sinks_s, sink_s, loss_s = _fanout_world(*world)
    net_m.multicast(src, message, exclude)
    for dst in net_s.topology.neighbors(src):
        if dst not in exclude:
            net_s.send(src, dst, message)

    def booked(sim):
        heap, _ = sim.booking()
        return sorted(
            (time, seq, a, b, m.kind, m.size) for time, seq, _, (a, b, m), _ in heap
        )

    def delivered(sinks):
        return [
            [(sender, m.kind, m.size, time) for sender, m, time in r.received]
            for r in sinks
        ]

    assert booked(sim_m) == booked(sim_s)
    assert next(sim_m.booking()[1]) == next(sim_s.booking()[1])
    links = [(a, b) for a, b in _PAIRS if (a, b) in edges]
    links += [(b, a) for a, b in links]
    assert [net_m.link(a, b).busy_until for a, b in links] == [
        net_s.link(a, b).busy_until for a, b in links
    ]
    assert loss_m.getstate() == loss_s.getstate()
    if obs_on:
        net_m.tracer.flush()
        net_s.tracer.flush()
        assert sink_m.records == sink_s.records
    sim_m.run()
    sim_s.run()
    assert delivered(sinks_m) == delivered(sinks_s)
