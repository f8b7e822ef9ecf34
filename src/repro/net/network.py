"""The simulated network: nodes, links, and message delivery.

Ties a :class:`~repro.net.topology.Topology` to simulated directed
links whose latencies are drawn from a
:class:`~repro.net.latency.LatencyHistogram`, exactly as the paper's
testbed assigned pairwise latencies.  Supports churn (nodes going
offline and returning) and link partitions for robustness experiments.

Link state lives in a struct-of-arrays core rather than a dict of
per-link objects: the topology's CSR adjacency assigns every directed
link a dense *edge id*, and per-link ``latency`` / ``bandwidth`` /
``busy_until`` are flat lists indexed by it.  A
1000-node, 5-degree run has ~10k directed links; touching three list
slots per send beats a tuple-keyed dict lookup plus attribute access on
a per-link object.  :meth:`Network.send` and :meth:`Network.multicast`
book each delivery straight onto the simulator's heap — one
``heappush`` of the entry :meth:`Simulator.schedule_at` would push,
through the booking handle :meth:`Simulator.booking` hands out — so a
neighborhood fan-out makes no scheduling call at all.  The link rule of
:mod:`repro.net.links` (bulk queues FIFO, small interleaves) is applied
in :meth:`Network.send` and :meth:`Network.multicast`.
:meth:`Network.link` is the one per-link accessor: it hands out a
read-only :class:`~repro.net.links.LinkView`
(``net.link(a, b).latency`` etc.) on top of the arrays.
"""

from __future__ import annotations

import random
from collections.abc import Collection
from heapq import heappush
from typing import Any, Protocol

from ..obs.facade import NULL_OBS
from .latency import LatencyHistogram
from .links import DEFAULT_BANDWIDTH_BPS, SMALL_MESSAGE_CUTOFF, LinkView
from .simulator import Simulator
from .topology import Topology


class Message:
    """A protocol message: a kind tag, opaque payload, and wire size.

    One message is shared by every peer it is sent to, so nothing
    writes to it after construction.  A plain slotted class, not a
    frozen dataclass: a relay builds tens of thousands of these, and the
    frozen ``__init__`` costs three to four times as much.
    """

    __slots__ = ("kind", "payload", "size")

    def __init__(self, kind: str, payload: Any, size: int) -> None:
        if size < 0:
            raise ValueError("message size cannot be negative")
        self.kind = kind
        self.payload = payload
        self.size = size


class MessageHandler(Protocol):
    """Anything that can receive messages from the network."""

    def on_message(self, sender: int, message: Message) -> None: ...


class Network:
    """Delivers messages between attached nodes over simulated links."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        latency_histogram: LatencyHistogram,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        latency_rng: random.Random | None = None,
        obs: Any | None = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        # Every delivery is booked straight onto the simulator's heap
        # (see Simulator.booking): one push per send, no method call.
        self._heap, self._sequence = sim.booking()
        self.topology = topology
        # Observability: a single boolean guards the hot send path, so
        # the disabled default costs one attribute check per message.
        self.obs = obs if obs is not None else NULL_OBS
        self.tracer = self.obs.tracer
        self._obs_on = self.obs.enabled
        # Indexed by node id (None = nothing attached): delivery is the
        # single most frequent dispatch in a run, and a list index beats
        # a dict probe there.
        self._handlers: list[MessageHandler | None] = [None] * topology.n_nodes
        self._offline: set[int] = set()
        self._blocked: set[frozenset[int]] = set()
        # Fault injection (repro.scenarios): probabilistic send loss and
        # link degradation.  Loss draws from a dedicated RNG so a zero
        # rate — the default — costs one truthiness check per send and
        # never touches any random stream.
        self._loss_rate = 0.0
        self._loss_rng: random.Random | None = None
        self.messages_delivered = 0
        self.bytes_delivered = 0

        # -- struct-of-arrays link core ---------------------------------
        # The CSR flat position of neighbor ``dst`` in ``src``'s row is
        # the directed edge id; all per-link state is indexed by it.
        indptr, indices = topology.csr()
        self._indptr = indptr
        self._indices = indices
        n_directed = len(indices)
        eid_map: dict[tuple[int, int], int] = {}
        for node in range(topology.n_nodes):
            for eid in range(indptr[node], indptr[node + 1]):
                eid_map[(node, indices[eid])] = eid
        self._eid = eid_map
        self._lat = [0.0] * n_directed
        self._bw = [bandwidth_bps] * n_directed
        self._busy = [0.0] * n_directed
        self._interleave_cutoff = SMALL_MESSAGE_CUTOFF
        # Pristine (latency, bandwidth) snapshot, taken lazily on the
        # first degradation so repeated degradations replace, never
        # compound.
        self._base_lat: list[float] | None = None
        self._base_bw: list[float] | None = None
        rng = latency_rng or sim.rng
        # Latencies are drawn for the topology's edge *set* in sorted
        # order: each pair's latency is the k-th RNG draw for a fixed k,
        # never a function of hash layout or edge insertion order
        # (NG301).  sample_batch consumes the identical RNG stream as
        # per-edge sample() calls, so the k-th-sorted-edge ↔ k-th-draw
        # contract pinned in tests/test_net_network.py holds.
        sorted_edges = topology.sorted_edges()
        draws = latency_histogram.sample_batch(rng, len(sorted_edges))
        lat = self._lat
        for (a, b), latency in zip(sorted_edges, draws):
            # One latency per pair (symmetric), independent queues per
            # direction — matching how pairwise latency was assigned.
            lat[eid_map[(a, b)]] = latency
            lat[eid_map[(b, a)]] = latency

    def attach(self, node_id: int, handler: MessageHandler) -> None:
        """Register the protocol node living at ``node_id``."""
        if not 0 <= node_id < self.topology.n_nodes:
            raise ValueError(f"unknown node id {node_id}")
        self._handlers[node_id] = handler

    def detach_all(self) -> None:
        """Forget every attached node; for a run that is over.

        Nodes hold the network and the network holds them: with this
        link cut (and :meth:`Simulator.discard_pending`) a finished
        world is freed by reference count, not left for a full
        garbage collection to find.
        """
        self._handlers = [None] * len(self._handlers)

    def link(self, src: int, dst: int) -> LinkView:
        """The directed link src→dst; raises KeyError if not adjacent."""
        return LinkView(self, self._eid[(src, dst)])

    def is_online(self, node_id: int) -> bool:
        return node_id not in self._offline

    def set_offline(self, node_id: int, offline: bool = True) -> None:
        """Take a node off the network (churn) or bring it back."""
        if offline:
            self._offline.add(node_id)
        else:
            self._offline.discard(node_id)

    def set_online(self, node_id: int) -> None:
        """Readable inverse of :meth:`set_offline` (node lifecycle API)."""
        self.set_offline(node_id, offline=False)

    # -- fault injection ----------------------------------------------------

    def set_loss(self, rate: float, rng: random.Random | None = None) -> None:
        """Drop each send independently with probability ``rate``.

        ``rng`` must be a stream dedicated to fault injection — the
        scenario engine's fault RNG — so that enabling loss never
        perturbs the simulation RNG sequence.  A zero rate disables
        loss (and the draws with it).
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        if rate > 0.0 and rng is None:
            raise ValueError("a fault RNG is required for nonzero loss")
        self._loss_rate = rate
        self._loss_rng = rng

    def degrade_links(
        self,
        latency_mult: float = 1.0,
        bandwidth_mult: float = 1.0,
        pairs: list[tuple[int, int]] | None = None,
    ) -> int:
        """Scale link parameters; returns the number of directed links hit.

        Multipliers apply to the *pristine* parameters (the values links
        were built with), so repeated degradations replace rather than
        compound.  ``pairs`` limits the change to both directions of the
        given adjacent pairs; by default every link degrades.
        """
        if latency_mult <= 0 or bandwidth_mult <= 0:
            raise ValueError("degradation multipliers must be > 0")
        if self._base_lat is None or self._base_bw is None:
            self._base_lat = self._lat[:]
            self._base_bw = self._bw[:]
        base_lat = self._base_lat
        base_bw = self._base_bw
        if pairs is None:
            eids: list[int] | range = range(len(self._lat))
        else:
            eid_map = self._eid
            eids = []
            for a, b in pairs:
                forward = eid_map.get((a, b))
                if forward is None:
                    raise ValueError(f"nodes {a} and {b} are not adjacent")
                eids.append(forward)
                eids.append(eid_map[(b, a)])
        lat = self._lat
        bw = self._bw
        for eid in eids:
            lat[eid] = base_lat[eid] * latency_mult
            bw[eid] = base_bw[eid] * bandwidth_mult
        return len(eids)

    def restore_links(self) -> int:
        """Undo every degradation; returns the number of links touched."""
        if self._base_lat is None or self._base_bw is None:
            return 0
        self._lat[:] = self._base_lat
        self._bw[:] = self._base_bw
        return len(self._lat)

    def block_link(self, a: int, b: int) -> None:
        """Drop all traffic between two adjacent nodes (partitioning)."""
        self._blocked.add(frozenset((a, b)))

    def unblock_link(self, a: int, b: int) -> None:
        self._blocked.discard(frozenset((a, b)))

    def link_blocked(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._blocked

    def send(self, src: int, dst: int, message: Message) -> None:
        """Queue ``message`` on the src→dst link; silently dropped if
        either endpoint is offline or the link is blocked (the sender
        cannot know).  Raises ``ValueError`` for a non-adjacent pair
        before any drop check, so a bad send never draws from the
        fault RNG."""
        eid = self._eid.get((src, dst))
        if eid is None:
            raise ValueError(f"nodes {src} and {dst} are not adjacent")
        offline = self._offline
        if offline and (src in offline or dst in offline):
            if self._obs_on:
                self._record_drop(src, dst, message)
            return
        # The frozenset allocation is only paid while a partition is
        # actually active — the overwhelmingly common case is no blocks.
        if self._blocked and frozenset((src, dst)) in self._blocked:
            if self._obs_on:
                self._record_drop(src, dst, message)
            return
        # Probabilistic loss draws only while a lossy window is active,
        # and only from the dedicated fault RNG stream.
        if self._loss_rate:
            loss_rng = self._loss_rng
            assert loss_rng is not None  # set_loss pairs the rate with an RNG
            if loss_rng.random() < self._loss_rate:
                if self._obs_on:
                    self._record_drop(src, dst, message)
                return
        now = self.sim.now
        size = message.size
        serialization = size / self._bw[eid]
        if size <= self._interleave_cutoff:
            # Packet-level interleaving: no head-of-line blocking, and
            # the negligible capacity used is not charged to the queue.
            queue_delay = 0.0
            arrival = now + serialization + self._lat[eid]
        else:
            busy = self._busy[eid]
            # Queueing delay must be read before the transfer books the
            # link; interleaved small messages never queue.
            queue_delay = busy - now if busy > now else 0.0
            start = busy if busy > now else now
            busy = start + serialization
            self._busy[eid] = busy
            arrival = busy + self._lat[eid]
        if self._obs_on:
            # Unrounded: the sink writes round(·, 6) in one conversion.
            self.tracer.send(
                now, src, dst, message.kind, size, queue_delay, arrival
            )
        heappush(
            self._heap,
            (arrival, next(self._sequence), self._deliver, (src, dst, message), None),
        )

    def multicast(
        self, src: int, message: Message, exclude: Collection[int] = ()
    ) -> None:
        """Send one shared ``message`` to every neighbor of ``src``
        not in ``exclude`` — for a gossip relay, the peer the body came
        from and every peer that announced it first.

        Equivalent to calling :meth:`send` once per neighbor in sorted
        order — same per-peer drop checks, loss draws, link booking
        math, and event-sequence order — but the per-link state is
        touched directly by edge id and each delivery is pushed onto the
        heap inside the loop, with no per-peer call.  This is the gossip
        relay fan-out, the hottest path in a large run.
        """
        indptr = self._indptr
        start, end = indptr[src], indptr[src + 1]
        if start == end:
            return
        indices = self._indices
        offline = self._offline
        blocked = self._blocked
        loss_rate = self._loss_rate
        obs_on = self._obs_on
        tracer = self.tracer
        now = self.sim.now
        kind = message.kind
        size = message.size
        lat = self._lat
        bw = self._bw
        busy_arr = self._busy
        small = size <= self._interleave_cutoff
        src_offline = bool(offline) and src in offline
        heap = self._heap
        sequence = self._sequence
        deliver = self._deliver
        for eid in range(start, end):
            dst = indices[eid]
            if dst in exclude:
                continue
            if src_offline or (offline and dst in offline):
                if obs_on:
                    self._record_drop(src, dst, message)
                continue
            if blocked and frozenset((src, dst)) in blocked:
                if obs_on:
                    self._record_drop(src, dst, message)
                continue
            if loss_rate:
                loss_rng = self._loss_rng
                assert loss_rng is not None
                if loss_rng.random() < loss_rate:
                    if obs_on:
                        self._record_drop(src, dst, message)
                    continue
            serialization = size / bw[eid]
            if small:
                queue_delay = 0.0
                arrival = now + serialization + lat[eid]
            else:
                busy = busy_arr[eid]
                queue_delay = busy - now if busy > now else 0.0
                begin = busy if busy > now else now
                busy = begin + serialization
                busy_arr[eid] = busy
                arrival = busy + lat[eid]
            if obs_on:
                tracer.send(now, src, dst, kind, size, queue_delay, arrival)
            heappush(
                heap, (arrival, next(sequence), deliver, (src, dst, message), None)
            )

    def _deliver(self, src: int, dst: int, message: Message) -> None:
        offline = self._offline
        if offline and dst in offline:
            if self._obs_on:
                self._record_drop(src, dst, message)
            return
        handler = self._handlers[dst]
        if handler is None:
            return
        self.messages_delivered += 1
        self.bytes_delivered += message.size
        if self._obs_on:
            self.tracer.deliver(self.sim.now, src, dst, message.kind, message.size)
        handler.on_message(src, message)

    # -- observability ------------------------------------------------------

    def _record_drop(self, src: int, dst: int, message: Message) -> None:
        self.tracer.drop(self.sim.now, src, dst, message.kind, message.size)

    def link_utilization(self, now: float) -> tuple[int, int, float]:
        """``(busy_links, total_links, queued_bytes)`` at instant ``now``.

        A link is busy while a booked bulk transfer has not finished
        serializing; its backlog in bytes is the remaining busy time
        times its bandwidth.  Used by the periodic link sampler on
        every sample tick, so it walks the flat edge-id arrays in one
        lockstep ``zip`` — no edge-id indirection, no link objects.
        """
        busy_count = 0
        queued = 0.0
        for busy, bandwidth in zip(self._busy, self._bw):
            remaining = busy - now
            if remaining > 0:
                busy_count += 1
                queued += remaining * bandwidth
        return busy_count, len(self._busy), queued
