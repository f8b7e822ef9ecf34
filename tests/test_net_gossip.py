"""Gossip relay: dedup, inv/getdata handshake, flood mode."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.gossip import (
    GETDATA_SIZE,
    MIN_TIMERS_TO_TRIM,
    REQUEST_TIMEOUT,
    GossipNode,
    RelayMode,
    StoredObject,
)
from repro.net.latency import constant_histogram
from repro.net.network import Message, Network
from repro.net.simulator import Simulator
from repro.net.topology import Topology, complete_topology, ring_topology
from repro.obs.facade import Observability
from repro.obs.trace import MemorySink, Tracer

from .conftest import nothing_armed


class CountingNode(GossipNode):
    """Gossip node recording delivered objects."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delivered = []

    def deliver(self, obj: StoredObject, sender):
        self.delivered.append((obj.obj_id, sender, self.sim.now))


def _mesh(n=5, relay_mode=RelayMode.INV, topo=None, verification=0.0):
    sim = Simulator(seed=0)
    topology = topo or complete_topology(n)
    net = Network(sim, topology, constant_histogram(0.05), bandwidth_bps=1e6)
    nodes = [
        CountingNode(
            i, sim, net, relay_mode=relay_mode,
            verification_seconds_per_byte=verification,
        )
        for i in range(topology.n_nodes)
    ]
    return sim, net, nodes


def test_announce_reaches_everyone_once():
    sim, net, nodes = _mesh(5)
    nodes[0].announce(b"\x01" * 32, "block", "payload", 100)
    sim.run()
    for node in nodes:
        assert len(node.delivered) == 1
        assert node.knows(b"\x01" * 32)


def test_originator_delivery_has_no_sender():
    sim, net, nodes = _mesh(3)
    nodes[0].announce(b"\x02" * 32, "block", None, 10)
    sim.run()
    assert nodes[0].delivered[0][1] is None
    assert nodes[1].delivered[0][1] is not None


def test_object_traverses_multi_hop_ring():
    sim, net, nodes = _mesh(topo=ring_topology(8))
    nodes[0].announce(b"\x03" * 32, "block", None, 50)
    sim.run()
    assert all(len(node.delivered) == 1 for node in nodes)
    # The farthest node (4 hops) hears later than the adjacent one.
    assert nodes[4].delivered[0][2] > nodes[1].delivered[0][2]


def test_inv_mode_does_not_resend_known_objects():
    sim, net, nodes = _mesh(4, relay_mode=RelayMode.INV)
    nodes[0].announce(b"\x04" * 32, "block", None, 10_000)
    sim.run()
    # Each node fetches the body at most once: total object transfers
    # bounded by node count (vs. edges in flood mode).
    object_bytes = 10_000 * (len(nodes) - 1)
    assert net.bytes_delivered < object_bytes + 61 * 50


def test_flood_mode_faster_but_heavier():
    sim_i, net_i, nodes_i = _mesh(6, relay_mode=RelayMode.INV)
    nodes_i[0].announce(b"\x05" * 32, "block", None, 5000)
    sim_i.run()
    inv_time = max(n.delivered[0][2] for n in nodes_i)
    inv_bytes = net_i.bytes_delivered

    sim_f, net_f, nodes_f = _mesh(6, relay_mode=RelayMode.FLOOD)
    nodes_f[0].announce(b"\x05" * 32, "block", None, 5000)
    sim_f.run()
    flood_time = max(n.delivered[0][2] for n in nodes_f)
    flood_bytes = net_f.bytes_delivered

    assert flood_time <= inv_time  # no handshake round trips
    assert flood_bytes >= inv_bytes  # full body on every edge


def test_duplicate_announce_ignored():
    sim, net, nodes = _mesh(3)
    nodes[0].announce(b"\x06" * 32, "block", None, 10)
    nodes[0].announce(b"\x06" * 32, "block", None, 10)
    sim.run()
    assert len(nodes[0].delivered) == 1


def test_equal_but_distinct_ids_dedupe_by_value():
    """Dedupe is by the id's value, never identity: a replayed inv or
    object carrying an equal ``bytes`` copy triggers nothing twice."""
    from repro.net.network import Message

    sim, net, nodes = _mesh(2)
    obj_id = b"\x46" * 32
    twin = bytes(bytearray(obj_id))
    assert twin == obj_id and twin is not obj_id
    getdatas = []
    serve = nodes[0]._on_getdata

    def counting_getdata(sender, wanted):
        getdatas.append(wanted)
        serve(sender, wanted)

    nodes[0]._on_getdata = counting_getdata
    nodes[0].announce(obj_id, "block", None, 100)  # first inv to node 1
    net.send(0, 1, Message("inv", (twin, "block"), 61))  # while requested
    sim.run()
    assert len(getdatas) == 1
    assert nodes[1].knows(twin) and nodes[1].get_object(twin).obj_id is obj_id
    net.send(0, 1, Message("inv", (twin, "block"), 61))  # once stored
    replay = StoredObject(twin, "block", None, 100)
    net.send(0, 1, Message("object", replay, 100))
    sim.run()
    assert len(getdatas) == 1
    assert len(nodes[1].delivered) == 1


def test_probes_on_unseen_ids_leave_no_trace():
    sim, net, nodes = _mesh(2)
    node = nodes[0]
    unseen = b"\x47" * 32
    assert node.knows(unseen) is False
    assert node.get_object(unseen) is None
    assert node.has_requested(unseen) is False
    assert not node._store and not node._requested and not node._rejected
    assert not node._alt_sources and nothing_armed(node)


def test_verification_delay_slows_relay():
    sim_fast, _, fast = _mesh(topo=ring_topology(6))
    fast[0].announce(b"\x07" * 32, "block", None, 1000)
    sim_fast.run()
    fast_arrival = fast[3].delivered[0][2]

    sim_slow, _, slow = _mesh(topo=ring_topology(6), verification=1e-4)
    slow[0].announce(b"\x07" * 32, "block", None, 1000)
    sim_slow.run()
    slow_arrival = slow[3].delivered[0][2]
    assert slow_arrival > fast_arrival


def test_unknown_protocol_message_dropped():
    sim, net, nodes = _mesh(2)
    from repro.net.network import Message

    net.send(0, 1, Message("weird", None, 5))
    sim.run()
    assert nodes[1].delivered == []


def test_getdata_for_unknown_object_ignored():
    sim, net, nodes = _mesh(2)
    from repro.net.network import Message

    net.send(0, 1, Message("getdata", b"\x08" * 32, 61))
    sim.run()  # node 1 has nothing to serve; no crash, no delivery
    assert nodes[0].delivered == []


class VetoingNode(CountingNode):
    """Rejects every object whose id starts with 0xBB."""

    def deliver(self, obj: StoredObject, sender):
        super().deliver(obj, sender)
        if obj.obj_id[0] == 0xBB:
            return False
        return None


def test_vetoed_objects_not_relayed():
    sim = Simulator(seed=0)
    topology = ring_topology(4)
    net = Network(sim, topology, constant_histogram(0.05), bandwidth_bps=1e6)
    nodes = [VetoingNode(i, sim, net) for i in range(4)]
    bad_id = b"\xbb" * 32
    # Node 0 pushes the object directly to node 1 (bypassing its own
    # veto, as an attacker would).
    from repro.net.gossip import StoredObject as SO
    from repro.net.network import Message

    net.send(0, 1, Message("object", SO(bad_id, "block", None, 50), 50))
    sim.run()
    # Node 1 saw it (and vetoed); its neighbor node 2 never hears of it.
    assert any(obj_id == bad_id for obj_id, _, _ in nodes[1].delivered)
    assert all(obj_id != bad_id for obj_id, _, _ in nodes[2].delivered)
    assert not nodes[1].knows(bad_id)  # dropped from the store


def test_vetoed_object_not_refetched_on_inv():
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.05), 1e6)
    nodes = [VetoingNode(i, sim, net) for i in range(2)]
    bad_id = b"\xbb" * 32
    from repro.net.gossip import StoredObject as SO
    from repro.net.network import Message

    net.send(0, 1, Message("object", SO(bad_id, "block", None, 50), 50))
    sim.run()
    deliveries = len(nodes[1].delivered)
    # A later inv for the same id is ignored: no second fetch.
    net.send(0, 1, Message("inv", (bad_id, "block"), 61))
    sim.run()
    assert len(nodes[1].delivered) == deliveries


def test_known_bad_object_pushed_again_is_not_revalidated():
    """A body whose id is already in ``_rejected`` never reaches
    ``deliver`` again (in FLOOD mode every neighbour pushes it); each
    pusher is still charged."""
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.05), 1e6)
    nodes = [VetoingNode(i, sim, net) for i in range(2)]
    bad = StoredObject(b"\xbb" * 32, "block", None, 50)
    from repro.net.network import Message

    for _ in range(3):
        net.send(0, 1, Message("object", bad, 50))
        sim.run()
    assert len(nodes[1].delivered) == 1
    assert nodes[1].misbehavior == {0: 60}
    assert not nodes[1].knows(bad.obj_id)
    assert not nodes[1]._alt_sources and not nodes[1]._requested


def test_misbehaving_peer_gets_banned():
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(2), constant_histogram(0.05), 1e6)
    nodes = [VetoingNode(i, sim, net) for i in range(2)]
    from repro.net.gossip import StoredObject as SO
    from repro.net.network import Message

    # Five distinct invalid objects at 20 points each → banned at 100.
    for i in range(5):
        bad_id = b"\xbb" + bytes([i]) * 31
        net.send(0, 1, Message("object", SO(bad_id, "block", None, 10), 10))
        sim.run()
    assert nodes[1].is_banned(0)
    assert nodes[1].misbehavior[0] == 100
    # Further traffic from the banned peer is ignored — even valid.
    good = SO(b"\x01" * 32, "block", None, 10)
    net.send(0, 1, Message("object", good, 10))
    sim.run()
    assert not nodes[1].knows(good.obj_id)


def test_honest_peers_accumulate_no_score():
    sim, net, nodes = _mesh(3)
    nodes[0].announce(b"\x0a" * 32, "block", None, 10)
    sim.run()
    assert all(not node.misbehavior for node in nodes)


def test_locally_announced_invalid_object_not_relayed():
    """The deliver() veto applies to announce, same as the remote path."""
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(3), constant_histogram(0.05), 1e6)
    nodes = [VetoingNode(i, sim, net) for i in range(3)]
    bad_id = b"\xbb" * 32
    nodes[0].announce(bad_id, "block", None, 50)
    sim.run()
    # The originator vetoed its own object: dropped, remembered, never
    # sent — no neighbor ever hears an inv for it.
    assert not nodes[0].knows(bad_id)
    assert all(not node.delivered for node in nodes[1:])
    # And it cannot be re-announced into the store later.
    nodes[0].announce(bad_id, "block", None, 50)
    sim.run()
    assert not nodes[0].knows(bad_id)


def _stall_mesh():
    sim = Simulator(seed=0)
    net = Network(sim, complete_topology(3), constant_histogram(0.05), 1e6)
    nodes = [CountingNode(i, sim, net) for i in range(3)]
    return sim, net, nodes


def test_request_timeout_retries_from_alternate_announcer():
    """A getdata lost to churn no longer wedges the object forever.

    Node 0 announces and goes offline before serving; node 2 later
    announces the same object.  Node 1's outstanding request would
    previously swallow node 2's inv permanently — now the timeout
    retries from node 2.
    """
    sim, net, nodes = _stall_mesh()
    obj_id = b"\x42" * 32
    nodes[0].announce(obj_id, "block", None, 100)
    # Invs land at ~0.05; the getdata responses would land at ~0.10.
    # Node 0 churns out in between, so both responses are lost.
    sim.schedule(0.06, lambda: net.set_offline(0))
    sim.schedule(1.0, lambda: nodes[2].announce(obj_id, "block", None, 100))
    sim.run()
    assert nodes[1].knows(obj_id)
    assert any(obj == obj_id for obj, _, _ in nodes[1].delivered)


def test_request_timeout_clears_stuck_requested_entry():
    """After a timeout with no fallback, a fresh inv re-requests."""
    sim, net, nodes = _stall_mesh()
    obj_id = b"\x43" * 32
    nodes[0].announce(obj_id, "block", None, 100)
    sim.schedule(0.06, lambda: net.set_offline(0))
    sim.run()  # requests time out; nobody else has the object yet
    assert not nodes[1].knows(obj_id)
    # Much later, node 2 creates the object and invs go out afresh.
    nodes[2].announce(obj_id, "block", None, 100)
    sim.run()
    assert nodes[1].knows(obj_id)


def test_timely_delivery_cancels_retry_timer():
    """A served request leaves no timer behind to fire spuriously."""
    sim, net, nodes = _stall_mesh()
    obj_id = b"\x45" * 32
    nodes[0].announce(obj_id, "block", None, 100)
    sim.run()
    assert all(node.knows(obj_id) for node in nodes)
    assert all(nothing_armed(node) for node in nodes)
    assert all(not node._alt_sources for node in nodes)
    # Exactly one delivery each despite timers having been armed.
    assert all(len(node.delivered) == 1 for node in nodes)


def test_announcing_a_requested_object_ends_its_request():
    """An object a node made itself while its getdata for it was still
    out ends that request: the entry, its timer and its fallback
    sources go, and the announcers are not announced to."""
    sim, net, nodes = _mesh(3)
    obj_id = b"\x46" * 32
    nodes[0].request_object(1, obj_id)  # node 1 lacks it: no answer
    nodes[0]._on_inv(2, (obj_id, "block"))  # a fallback source
    assert nodes[0].has_requested(obj_id)
    nodes[0].announce(obj_id, "block", None, 100)
    assert not nodes[0]._requested and not nodes[0]._alt_sources
    sim.run()
    assert all(node.knows(obj_id) for node in nodes)
    assert all(nothing_armed(node) for node in nodes)
    assert not any(node._alt_sources for node in nodes)
    assert all(len(node.delivered) == 1 for node in nodes)
    assert sim.now < REQUEST_TIMEOUT  # no timer ran out


# -- relay skips known announcers (bitcoind's setInventoryKnown) -------------


def _traced_mesh(topology, node_class=CountingNode, **node_kwargs):
    sim = Simulator(seed=0)
    sink = MemorySink()
    net = Network(
        sim, topology, constant_histogram(0.05), bandwidth_bps=1e6,
        obs=Observability(tracer=Tracer(sink)),
    )
    nodes = [
        node_class(i, sim, net, **node_kwargs) for i in range(topology.n_nodes)
    ]
    return sim, net, nodes, sink.records


def _inv_sends(records):
    """``{src: [dst, ...]}`` over every inv put on a link."""
    sends = {}
    for record in records:
        if record["ev"] == "send" and record["kind"] == "inv":
            sends.setdefault(record["src"], []).append(record["dst"])
    return sends


def test_complete_mesh_relays_to_everyone_but_the_originator():
    # Every node hears exactly one announcer (the originator) before the
    # body lands, so each sends deg - 1 invs and the originator deg.
    n = 6
    sim, net, nodes, records = _traced_mesh(complete_topology(n))
    nodes[0].announce(b"\x51" * 32, "block", None, 100)
    sim.run()
    net.tracer.flush()
    sends = _inv_sends(records)
    assert len(sends[0]) == n - 1
    for node in range(1, n):
        assert sorted(sends[node]) == [p for p in range(1, n) if p != node]
    assert all(len(node.delivered) == 1 for node in nodes)
    assert all(not node._alt_sources for node in nodes)


def test_ring_node_that_heard_both_neighbors_announces_to_neither():
    # The two wavefronts meet at node 4: it fetches from one neighbor,
    # records the other as an announcer, and has nobody left to tell.
    n = 8
    sim, net, nodes, records = _traced_mesh(ring_topology(n))
    nodes[0].announce(b"\x52" * 32, "block", None, 100)
    sim.run()
    net.tracer.flush()
    sends = _inv_sends(records)
    assert sorted(sends[0]) == [1, 7]
    for node in (1, 2, 3):
        assert sends[node] == [node + 1]
    for node in (5, 6, 7):
        assert sends[node] == [node - 1]
    assert 4 not in sends
    assert all(len(node.delivered) == 1 for node in nodes)
    assert all(not node._alt_sources for node in nodes)


def test_flood_relay_excludes_only_the_sender():
    sim, net, nodes, records = _traced_mesh(
        ring_topology(8), relay_mode=RelayMode.FLOOD
    )
    nodes[0].announce(b"\x53" * 32, "block", None, 100)
    sim.run()
    net.tracer.flush()
    objects = [r for r in records if r["ev"] == "send" and r["kind"] == "object"]
    # deg from the originator, deg - 1 from everyone else.
    assert len(objects) == 2 + 7
    assert all(len(node.delivered) == 1 for node in nodes)


def _star(leaves):
    topology = Topology(leaves + 1)
    for leaf in range(1, leaves + 1):
        topology.add_edge(0, leaf)
    return topology


def test_retry_source_is_skipped_and_the_other_neighbors_still_hear():
    """Hub 0 hears X from leaves 1 and 2; its getdata to 1 is lost (1
    goes offline), the timeout retries from 2, and the relay that
    follows skips 2 but reaches leaves 3 and 4 (and tries 1 again)."""
    sim, net, nodes, records = _traced_mesh(_star(4))
    obj_id = b"\x54" * 32
    nodes[1].announce(obj_id, "block", None, 100)
    sim.schedule(0.01, lambda: nodes[2].announce(obj_id, "block", None, 100))
    sim.schedule(0.055, lambda: net.set_offline(1))
    sim.run()
    net.tracer.flush()
    assert [r["peer"] for r in records if r["ev"] == "gossip_retry"] == [2]
    assert all(nodes[i].knows(obj_id) for i in (0, 3, 4))
    assert nodes[0].delivered[0][1] == 2
    hub_invs = [
        r["dst"] for r in records
        if r["ev"] in ("send", "drop") and r["kind"] == "inv" and r["src"] == 0
    ]
    assert sorted(hub_invs) == [1, 3, 4]
    for node in nodes:
        assert not node._requested and not node._alt_sources
        assert nothing_armed(node)


def test_vetoed_object_forgets_its_announcers():
    """The reject path pops ``_alt_sources`` too: nothing leaks."""
    sim, net, nodes, records = _traced_mesh(_star(3), node_class=VetoingNode)
    bad_id = b"\xbb" * 32
    from repro.net.network import Message

    # Leaves 1 and 2 announce; the hub fetches from 1 and records 2.
    nodes[1]._store[bad_id] = StoredObject(bad_id, "block", None, 50)
    inv = Message("inv", (bad_id, "block"), 61)
    net.send(1, 0, inv)
    sim.schedule(0.01, net.send, 2, 0, inv)
    sim.run(until=0.07)
    assert nodes[0]._alt_sources == {bad_id: [2]}
    sim.run()
    net.tracer.flush()
    assert nodes[0].misbehavior == {1: 20}
    assert not nodes[0].knows(bad_id) and not nodes[0]._alt_sources
    assert 0 not in _inv_sends(records)


class TippedNode(CountingNode):
    """Offers the last object it learned as its tip."""

    def best_object_id(self):
        return self.delivered[-1][0] if self.delivered else None


def test_announcer_that_restarts_still_catches_up():
    """Node 1 announces X, crashes, and misses Y: the filter only ever
    skips invs for what it announced, so resync fetches the rest."""
    sim, net, nodes, _ = _traced_mesh(complete_topology(4), TippedNode)
    first, second = b"\x55" * 32, b"\x56" * 32
    nodes[1].announce(first, "block", None, 100)
    sim.run()
    net.set_offline(1)
    nodes[2].announce(second, "block", None, 100)
    sim.run()
    assert not nodes[1].knows(second)
    net.set_online(1)
    nodes[1].reset_relay_state()
    nodes[1].request_tips()
    sim.run()
    assert nodes[1].knows(second)
    assert all(not node._requested and not node._alt_sources for node in nodes)


# -- request timers: one queue per run against one schedule per getdata -----

_IDS = [bytes([i]) * 32 for i in (0x61, 0x62, 0x63)] + [b"\xbb" * 32]
_TWIN_NODES = 5


class _TimedNode(VetoingNode):
    """Logs every retry timer that fires as ``(time, node, obj_id)``."""

    def __init__(self, *args, fired, **kwargs):
        super().__init__(*args, **kwargs)
        self.fired = fired

    def _on_request_timeout(self, obj_id):
        self.fired.append((self.sim.now, self.node_id, obj_id))
        super()._on_request_timeout(obj_id)


class _ScheduledNode(_TimedNode):
    """The oracle: one cancellable ``Simulator.schedule`` per getdata,
    booked where the queue books its timer, cancelled wherever the
    request is satisfied, replaced or reset.  ``_requested`` holds the
    handle where the base class holds a sequence number, so the base
    class never takes it for the armed timer, and the run's queue stays
    empty."""

    def _request_from(self, peer, obj_id):
        old = self._requested.get(obj_id)
        if old is not None:
            old.cancel()
        self._requested[obj_id] = self.sim.schedule(
            REQUEST_TIMEOUT, self._on_request_timeout, obj_id
        )
        self.network.send(
            self.node_id, peer, Message("getdata", obj_id, GETDATA_SIZE)
        )

    def _on_object(self, sender, stored):
        timer = self._requested.get(stored.obj_id)
        if timer is not None:
            timer.cancel()
        super()._on_object(sender, stored)

    def announce(self, obj_id, kind, data, size):
        timer = self._requested.get(obj_id)
        held = obj_id in self._store or obj_id in self._rejected
        if timer is not None and not held:
            timer.cancel()
        super().announce(obj_id, kind, data, size)

    def reset_relay_state(self):
        for timer in self._requested.values():
            timer.cancel()
        super().reset_relay_state()


class _Dispatched:
    """Keeps the ``(time, sequence)`` key of every entry that fires."""

    def __init__(self):
        self.keys = []

    def wrap_dispatch(self, heappop, probe):
        popped = None

        def pop(heap):
            nonlocal popped
            popped = heappop(heap)
            return popped

        def after():
            self.keys.append(popped[:2])
            if probe is not None:
                probe()

        return pop, after


class _TwinWorld:
    def __init__(self, node_class):
        self.sim = Simulator(seed=0)
        self.sink = MemorySink()
        self.net = Network(
            self.sim, complete_topology(_TWIN_NODES), constant_histogram(0.05),
            bandwidth_bps=1e5, obs=Observability(tracer=Tracer(self.sink)),
        )
        self.fired = []
        self.nodes = [
            node_class(i, self.sim, self.net, fired=self.fired)
            for i in range(_TWIN_NODES)
        ]
        self.dispatched = _Dispatched()
        self.sim.attach(self.dispatched)

    def apply(self, op):
        kind = op[0]
        sim, net, nodes = self.sim, self.net, self.nodes
        if kind == "announce":
            nodes[op[1]].announce(_IDS[op[2]], "block", None, 100)
        elif kind == "inv":  # answered only if the sender holds it
            net.send(op[1], _peer(op), Message("inv", (_IDS[op[3]], "block"), 61))
        elif kind == "object":
            stored = StoredObject(_IDS[op[3]], "block", None, 100)
            net.send(op[1], _peer(op), Message("object", stored, 100))
        elif kind == "request":  # each re-request kills the one before
            for _ in range(op[4]):
                nodes[op[1]].request_object(_peer(op), _IDS[op[3]])
        elif kind == "reset":
            nodes[op[1]].reset_relay_state()
        elif kind == "crash":
            net.set_offline(op[1])
        elif kind == "restart":
            net.set_online(op[1])
            nodes[op[1]].reset_relay_state()
        elif kind == "loss":
            net.set_loss(op[1], random.Random(op[2]) if op[1] else None)
        else:
            sim.run(until=None if op[1] is None else sim.now + op[1], max_events=op[2])

    def live_keys(self):
        """``(time, sequence, is a retry timer)`` of each live heap entry."""
        return sorted(
            (time, seq, getattr(callback, "__name__", "") == "_on_request_timeout")
            for time, seq, callback, _args, handle in self.sim._heap
            if handle is None or not handle.cancelled
        )

    def observed(self):
        self.net.tracer.flush()
        return (
            self.fired,
            self.sim.events_processed,
            self.sim.now,
            self.dispatched.keys,
            self.sink.records,
            [
                (sorted(node._requested), sorted(node._store), node.delivered)
                for node in self.nodes
            ],
        )


def _peer(op):
    """The node ``op[2]`` steps past ``op[1]``: never ``op[1]`` itself."""
    return (op[1] + op[2]) % _TWIN_NODES


_NODE = st.integers(0, _TWIN_NODES - 1)
_STEP = st.integers(1, _TWIN_NODES - 1)
_OBJ = st.integers(0, len(_IDS) - 1)
_TWIN_OPS = st.one_of(
    st.tuples(st.just("announce"), _NODE, _OBJ),
    st.tuples(st.just("inv"), _NODE, _STEP, _OBJ),
    st.tuples(st.just("object"), _NODE, _STEP, _OBJ),
    st.tuples(
        st.just("request"), _NODE, _STEP, _OBJ, st.sampled_from((1, 2, 70))
    ),
    st.tuples(st.just("reset"), _NODE),
    st.tuples(st.just("crash"), _NODE),
    st.tuples(st.just("restart"), _NODE),
    st.tuples(st.just("loss"), st.sampled_from((0.0, 0.3)), st.integers(0, 3)),
    st.tuples(
        st.just("run"),
        # Hops take about 0.05 s; a timer is due REQUEST_TIMEOUT after
        # its getdata.
        st.none() | st.sampled_from((0.02, 0.05, 0.1, 0.3, 1.0, 60.0, 120.0)),
        st.none() | st.integers(0, 30),
    ),
)


# A getdata lost to a peer that lacks the object, then its node reset,
# restarted, re-requesting, or flooding the queue with dead timers.
_LOST = [("inv", 0, 1, 0), ("run", 0.1, None)]


@settings(max_examples=200, deadline=None)
@example([*_LOST, ("reset", 1)])
@example([*_LOST, ("crash", 1), ("run", 0.5, None), ("restart", 1)])
@example([*_LOST, ("request", 1, 1, 0, 2)])
@example(
    [
        ("request", 0, 1, 0, 70),
        ("request", 3, 1, 1, 70),
        ("run", 0.3, None),
        ("announce", 1, 0),
    ]
)
@given(st.lists(_TWIN_OPS, max_size=40))
def test_request_timers_fire_as_one_schedule_per_getdata(program):
    """Random invs, getdatas lost to a peer that lacks the object or to
    churn and loss, explicit re-requests, resets and restarts: the
    queued timers fire at the oracle's times, for the same objects, in
    the same order, and leave every dispatched ``(time, sequence)``
    key, the event count and the trace (its ``gossip_retry`` rows among
    them) as the oracle's.  The heap holds no live entry the oracle
    lacks, and at most one retry timer.  A drained run leaves the queue
    empty."""
    queued = _TwinWorld(_TimedNode)
    oracle = _TwinWorld(_ScheduledNode)
    for op in [*program, ("run", None, None)]:
        queued.apply(op)
        oracle.apply(op)
        assert queued.observed() == oracle.observed()
        live = queued.live_keys()
        assert set(live) <= set(oracle.live_keys())
        assert [key for key in live if not key[2]] == [
            key for key in oracle.live_keys() if not key[2]
        ]
        timer_entries = [
            entry for entry in queued.sim._heap
            if getattr(entry[2], "__name__", "") == "_on_request_timeout"
        ]
        assert len(timer_entries) <= 1
    assert not queued.sim._heap
    timers = queued.sim.request_timers
    assert not timers.entries and timers.armed is None


def test_dead_timers_are_trimmed_from_the_queue():
    """Each re-request kills the timer before it; the queue is rebuilt
    without the dead ones as it passes the floor, so between requests
    it never holds more than the floor."""
    sim, net, nodes = _stall_mesh()
    timers = sim.request_timers
    lengths = []
    for _ in range(500):
        nodes[1].request_object(0, b"\x48" * 32)
        lengths.append(len(timers.entries))
    assert max(lengths) == MIN_TIMERS_TO_TRIM
    assert timers.limit == MIN_TIMERS_TO_TRIM
    sim.run()
    # The one live request timed out (node 0 never had the object) and
    # nothing else fired.
    assert sim.events_processed == 500 + 1
    assert not timers.entries and timers.armed is None


def test_discard_pending_empties_the_timer_queue():
    sim, net, nodes = _stall_mesh()
    for node in nodes[1:]:
        node.request_object(0, b"\x49" * 32)
    timers = sim.request_timers
    assert timers.armed is not None and len(timers.entries) == 1
    net.detach_all()
    sim.discard_pending()
    assert not sim._heap and not timers.entries
    assert (timers.armed, timers.armed_seq) == (None, -1)
