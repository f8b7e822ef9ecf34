"""Object relay over the peer-to-peer network.

Bitcoin relays blocks with an announce/request/deliver handshake
(``inv`` → ``getdata`` → object), which avoids sending large objects to
peers that already have them.  :class:`GossipNode` implements that
protocol as a reusable base class; protocol nodes subclass it and get
epidemic dissemination with de-duplication for free.

Two relay modes are provided for the ablation DESIGN.md calls out:

* ``RelayMode.INV`` — the Bitcoin handshake (default).
* ``RelayMode.FLOOD`` — push full objects immediately; lower latency,
  higher bandwidth, as used by fast-relay networks [Corallo 2013].

De-duplication state (`_store`, `_requested`, `_rejected`, …) is keyed
by the 32-byte ids the wire carries.  ``bytes`` objects cache their
hash and every message about an object carries the same id object, so
a probe is one dict lookup; membership is by value, never identity —
a forged or replayed message with an equal-but-distinct id dedupes the
same way.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from typing import Any

from ..obs.trace import short_hash
from .events import Event
from .network import Message, Network
from .simulator import Simulator

# Wire sizes for control messages, matching Bitcoin's protocol framing:
# an inv/getdata with one entry is 24 byte header + 37 byte payload.
INV_SIZE = 61
GETDATA_SIZE = 61
# A tip solicitation is an empty getheaders in miniature: header only.
GETTIP_SIZE = 24

# How long a node waits for a requested object before it gives up on
# that peer and retries from the next one that announced it.  Generous:
# a 1 MB block takes ~80 s to serialize at the paper's 100 kbit/s, and
# a premature timeout would duplicate traffic.
REQUEST_TIMEOUT = 120.0
# A timer queue is rebuilt without its dead timers once it holds more
# than this many, or twice what was live at its last rebuild.
MIN_TIMERS_TO_TRIM = 64


class RelayMode(enum.Enum):
    """How newly learned objects are pushed to peers."""

    INV = "inv"
    FLOOD = "flood"


@dataclass(frozen=True, slots=True)
class StoredObject:
    """An object held in a node's relay store.

    Every node that learns the object holds this same instance, so its
    ``inv`` announcement is built once here and shared by every relay
    and tip answer.  Its payload is ``(obj_id, kind)``, not the object:
    a message on the object would be a reference cycle.
    """

    obj_id: bytes
    kind: str
    data: Any
    size: int
    inv: Message = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "inv", Message("inv", (self.obj_id, self.kind), INV_SIZE)
        )


class RequestTimers:
    """The retry timers of every getdata a run books.

    A getdata's timer is a ``(deadline, sequence, node, obj_id)`` tuple
    in a FIFO, in booking order; every timer waits
    :data:`REQUEST_TIMEOUT`, so the deadlines never decrease and the
    FIFO is in the heap's ``(time, sequence)`` order.
    The timer is live while ``node._requested[obj_id]`` holds its
    sequence number, so satisfying, replacing or resetting a request is
    a dict operation on the node and touches no timer.  Only the oldest
    live timer is on the event heap, as the entry
    :meth:`Simulator.schedule` would have pushed for it, with a handle
    that re-arms: when that entry leaves the heap, fired or popped
    cancelled, the next live timer is pushed with its own deadline and
    sequence number, which are later than the entry's, so every timer
    fires exactly when and in the order a scheduled one would.  Dead
    timers are dropped as the queue is walked, and the whole queue is
    rebuilt without them once it passes twice what was live at the
    last rebuild (at least :data:`MIN_TIMERS_TO_TRIM`), so it stays
    within a constant factor of the requests outstanding.

    One queue per simulator, in :attr:`Simulator.request_timers`; the
    run's first :class:`GossipNode` builds it and every node keeps a
    reference.
    """

    __slots__ = ("entries", "armed", "armed_seq", "limit", "_heap")

    def __init__(self, sim: Simulator) -> None:
        self.entries: deque[tuple[float, int, GossipNode, bytes]] = deque()
        # The handle of the queue's one heap entry; None when the heap
        # holds none (and then ``entries`` is empty).
        self.armed: Event | None = None
        # That entry's sequence number while its request is live, -1
        # once it is cancelled (or when nothing is armed).
        self.armed_seq = -1
        # ``entries`` is rebuilt without its dead timers once longer than this.
        self.limit = MIN_TIMERS_TO_TRIM
        self._heap = sim.booking()[0]

    def arm(
        self, deadline: float, seq: int, node: GossipNode, obj_id: bytes
    ) -> None:
        """Put one timer on the heap as this queue's entry."""
        handle = Event(self._rearm)
        self.armed = handle
        self.armed_seq = seq
        heappush(
            self._heap,
            (deadline, seq, node._on_request_timeout, (obj_id,), handle),
        )

    def disarm(self) -> None:
        """Cancel the armed timer, whose request is no longer live.

        Its entry stays on the heap until it reaches the top; the next
        live timer is armed then.
        """
        if self.armed is not None:
            self.armed.cancelled = True
        self.armed_seq = -1

    def _rearm(self) -> None:
        """Arm the oldest live timer; the armed entry left the heap."""
        entries = self.entries
        while entries:
            deadline, seq, node, obj_id = entries.popleft()
            if node._requested.get(obj_id) == seq:
                self.arm(deadline, seq, node, obj_id)
                return
        self.armed = None
        self.armed_seq = -1

    def trim(self) -> None:
        """Rebuild the queue without its dead timers."""
        entries = self.entries
        live = [
            entry
            for entry in entries
            if entry[2]._requested.get(entry[3]) == entry[1]
        ]
        entries.clear()
        entries.extend(live)
        self.limit = max(MIN_TIMERS_TO_TRIM, 2 * len(live))

    def clear(self) -> None:
        """Forget every timer (the run is over; see
        :meth:`Simulator.discard_pending`)."""
        self.entries.clear()
        self.armed = None
        self.armed_seq = -1


class GossipNode:
    """Base class providing de-duplicated epidemic relay.

    Subclasses implement :meth:`deliver`, called exactly once per new
    object, and may call :meth:`announce` to inject locally created
    objects (e.g. a freshly mined block) into the gossip layer.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        relay_mode: RelayMode = RelayMode.INV,
        verification_seconds_per_byte: float = 0.0,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.relay_mode = relay_mode
        # Per-object processing cost before relaying (block verification):
        # the paper notes large blocks "take longer to verify and
        # propagate", so the delay is proportional to size.
        self.verification_seconds_per_byte = verification_seconds_per_byte
        timers = sim.request_timers
        if timers is None:
            timers = sim.request_timers = RequestTimers(sim)
        self._timers = timers
        self._sequence = sim.booking()[1]
        self._store: dict[bytes, StoredObject] = {}
        # Outstanding getdatas: object id -> the sequence number of its
        # retry timer.  A timer is live while the entry holds its number.
        self._requested: dict[bytes, int] = {}
        self._rejected: set[bytes] = set()
        # While a getdata is outstanding, remember *other* peers that
        # announced the same object: a request that times out (response
        # lost to churn or a partition) is retried from the next one, and
        # relay skips them all — bitcoind's per-peer setInventoryKnown.
        self._alt_sources: dict[bytes, list[int]] = {}
        # Observability: None when disabled, so tracing costs one
        # attribute check at the (rare) sites that emit records.
        self._tracer = network.tracer
        # DoS protection: peers accumulate misbehavior points for
        # invalid objects; at the threshold their traffic is ignored,
        # mirroring Bitcoin Core's ban score.
        self.misbehavior: dict[int, int] = {}
        self.ban_threshold = 100
        self.invalid_object_penalty = 20
        network.attach(node_id, self)

    # -- subclass interface -------------------------------------------------

    def deliver(self, obj: StoredObject, sender: int | None) -> bool | None:
        """Handle a newly learned object; ``sender`` is None if local.

        Return ``False`` to veto relay: the object is dropped from the
        store, remembered as rejected (so repeated invs are ignored),
        and not forwarded — the behaviour of a real client that fails
        block validation.  Any other return value relays normally.
        """
        raise NotImplementedError

    def best_object_id(self) -> bytes | None:
        """The id of the object a resyncing peer should fetch first.

        Protocol nodes return their chain tip; the base class has no
        chain, so peers asking it for a tip get nothing.  Returning an
        id that is not in the relay store (the genesis block, say) is
        fine — the tip solicitation is then simply not answered.
        """
        return None

    # -- public operations --------------------------------------------------

    def knows(self, obj_id: bytes) -> bool:
        return obj_id in self._store

    def get_object(self, obj_id: bytes) -> StoredObject | None:
        return self._store.get(obj_id)

    def has_requested(self, obj_id: bytes) -> bool:
        """Whether a getdata for ``obj_id`` is currently outstanding."""
        return obj_id in self._requested

    def request_tips(self) -> None:
        """Ask every neighbor for its best tip (rejoin resync).

        Each peer answers a ``gettip`` with an inv of its chain tip;
        an unknown tip is then fetched through the normal handshake and
        orphan handling backfills the gap by recursive parent fetch —
        so a node that was down across several blocks catches up
        without waiting for the next block to be mined.
        """
        self.network.multicast(self.node_id, Message("gettip", None, GETTIP_SIZE))

    def reset_relay_state(self) -> None:
        """Drop volatile relay bookkeeping (crash-restart modeling).

        Outstanding requests, their retry timers, and alternate-source
        lists all describe in-flight handshakes that died with the
        node; keeping them would make :meth:`_on_inv` ignore fresh
        announcements of exactly the objects the node is missing until
        the stale timers expire.  Validation verdicts (``_rejected``)
        and peer bans survive — they are judgements, not bookkeeping.
        Clearing ``_requested`` kills every timer of this node; only
        the armed one is on the heap, and it is cancelled.
        """
        timers = self._timers
        if timers.armed_seq in self._requested.values():
            timers.disarm()
        self._requested.clear()
        self._alt_sources.clear()

    def request_object(self, peer: int, obj_id: bytes) -> None:
        """Explicitly fetch an object from a peer (ancestor backfill).

        Used by nodes that receive an orphan block: asking the sender
        for the missing parent recursively heals gaps after churn or
        partitions, Bitcoin's headers-first sync in miniature.  Unlike
        inv handling, an explicit request re-sends even if a previous
        attempt is outstanding — the earlier response may have been
        lost to churn.
        """
        if obj_id in self._store:
            return
        self._request_from(peer, obj_id)

    def announce(self, obj_id: bytes, kind: str, data: Any, size: int) -> None:
        """Inject a locally created object and start relaying it.

        The :meth:`deliver` veto applies here exactly as on the remote
        path: a locally generated object that fails validation is
        dropped, remembered as rejected, and never relayed.
        """
        if obj_id in self._store or obj_id in self._rejected:
            return
        # A getdata still outstanding for it ends here, as on arrival.
        timers = self._timers
        if self._requested.pop(obj_id, None) == timers.armed_seq:
            timers.disarm()
        announcers = self._alt_sources.pop(obj_id, ())
        stored = StoredObject(obj_id, kind, data, size)
        self._store[obj_id] = stored
        if self.deliver(stored, sender=None) is False:
            self._store.pop(obj_id, None)
            self._rejected.add(obj_id)
            if self._tracer is not None:
                self._tracer.emit(
                    "obj_reject",
                    self.sim.now,
                    node=self.node_id,
                    obj=short_hash(obj_id),
                    kind=kind,
                    sender=-1,
                )
            return
        self._relay(stored, tuple(announcers))

    # -- network plumbing ---------------------------------------------------

    def penalize(self, peer: int, points: int) -> None:
        """Charge a peer misbehavior points; at the threshold, ban it."""
        self.misbehavior[peer] = self.misbehavior.get(peer, 0) + points

    def is_banned(self, peer: int) -> bool:
        return self.misbehavior.get(peer, 0) >= self.ban_threshold

    def on_message(self, sender: int, message: Message) -> None:
        # Inlined is_banned: the misbehavior dict is empty for honest
        # networks, so the truthiness check skips the lookup entirely.
        misbehavior = self.misbehavior
        if misbehavior and misbehavior.get(sender, 0) >= self.ban_threshold:
            return
        kind = message.kind
        if kind == "inv":
            # An inv for an object already held (or refused) needs
            # nothing: drop it here, before any call.
            payload = message.payload
            obj_id = payload[0]
            if obj_id in self._store or obj_id in self._rejected:
                return
            self._on_inv(sender, payload)
        elif kind == "getdata":
            self._on_getdata(sender, message.payload)
        elif kind == "object":
            self._on_object(sender, message.payload)
        elif kind == "gettip":
            self._on_gettip(sender)
        # The network carries no other kind; anything else is dropped.

    def _relay(self, stored: StoredObject, exclude: tuple[int, ...]) -> None:
        # One immutable message shared by every neighbor send; the
        # network books each delivery straight onto the event heap.
        if self.relay_mode is RelayMode.FLOOD:
            message = Message("object", stored, stored.size)
        else:
            message = stored.inv
        self.network.multicast(self.node_id, message, exclude)

    def _request_from(self, peer: int, obj_id: bytes) -> None:
        """Send a getdata and book its retry timer.

        The timer takes its sequence number before the getdata's
        delivery does, and ``now + REQUEST_TIMEOUT`` as its deadline,
        as a :meth:`Simulator.schedule` call would; a request already
        outstanding for ``obj_id`` loses its timer.
        """
        timers = self._timers
        requested = self._requested
        if requested.get(obj_id) == timers.armed_seq:
            timers.disarm()
        seq = next(self._sequence)
        requested[obj_id] = seq
        deadline = self.sim.now + REQUEST_TIMEOUT
        if timers.armed is None:
            timers.arm(deadline, seq, self, obj_id)
        else:
            entries = timers.entries
            entries.append((deadline, seq, self, obj_id))
            if len(entries) > timers.limit:
                timers.trim()
        self.network.send(
            self.node_id, peer, Message("getdata", obj_id, GETDATA_SIZE)
        )

    def _on_request_timeout(self, obj_id: bytes) -> None:
        if obj_id in self._store or obj_id in self._rejected:
            self._alt_sources.pop(obj_id, None)
            return
        # The response was lost (churn, partition, or an offline peer):
        # clear the outstanding mark so future invs can retrigger, and
        # retry immediately from the next peer that announced it.
        self._requested.pop(obj_id, None)
        alternates = self._alt_sources.get(obj_id)
        if alternates:
            peer = alternates.pop(0)
            if not alternates:
                del self._alt_sources[obj_id]
            if self._tracer is not None:
                self._tracer.emit(
                    "gossip_retry",
                    self.sim.now,
                    node=self.node_id,
                    obj=short_hash(obj_id),
                    peer=peer,
                )
            self._request_from(peer, obj_id)

    def _on_inv(self, sender: int, payload: tuple[bytes, str]) -> None:
        """An announcement of an object neither stored nor rejected
        (:meth:`on_message` drops the others): fetch it, or remember
        ``sender`` as a fallback source."""
        obj_id = payload[0]
        if obj_id in self._requested:
            # Already being fetched; remember this announcer as a
            # fallback in case the outstanding request times out.
            alternates = self._alt_sources.setdefault(obj_id, [])
            if sender not in alternates:
                alternates.append(sender)
            return
        self._request_from(sender, obj_id)

    def _on_gettip(self, sender: int) -> None:
        """Answer a tip solicitation with an inv of our best object."""
        obj_id = self.best_object_id()
        if obj_id is None:
            return
        stored = self.get_object(obj_id)
        if stored is None:
            return  # tip not relayable (genesis): nothing useful to offer
        self.network.send(self.node_id, sender, stored.inv)

    def _on_getdata(self, sender: int, obj_id: bytes) -> None:
        stored = self.get_object(obj_id)
        if stored is None:
            return
        self.network.send(
            self.node_id, sender, Message("object", stored, stored.size)
        )

    def _on_object(self, sender: int, stored: StoredObject) -> None:
        obj_id = stored.obj_id
        timers = self._timers
        if self._requested.pop(obj_id, None) == timers.armed_seq:
            timers.disarm()
        if obj_id in self._store or obj_id in self._rejected:
            self._alt_sources.pop(obj_id, None)
            if obj_id in self._rejected:
                # Known-bad: charge the pusher, never validate it again.
                self.penalize(sender, self.invalid_object_penalty)
            return
        self._store[obj_id] = stored
        delay = self.verification_seconds_per_byte * stored.size
        if delay > 0:
            self.sim.schedule(delay, self._accept, stored, sender)
        else:
            self._accept(stored, sender)

    def _accept(self, stored: StoredObject, sender: int) -> None:
        verdict = self.deliver(stored, sender)
        # Peers that announced it meanwhile hold it: never re-announced to.
        announcers = self._alt_sources.pop(stored.obj_id, ())
        if verdict is False:
            # Validation failed: forget it, never forward it, and
            # charge the peer that sent it.
            self._store.pop(stored.obj_id, None)
            self._rejected.add(stored.obj_id)
            self.penalize(sender, self.invalid_object_penalty)
            if self._tracer is not None:
                self._tracer.emit(
                    "obj_reject",
                    self.sim.now,
                    node=self.node_id,
                    obj=short_hash(stored.obj_id),
                    kind=stored.kind,
                    sender=sender,
                )
            return
        self._relay(stored, (sender, *announcers))
