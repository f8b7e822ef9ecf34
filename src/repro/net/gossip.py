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
from dataclasses import dataclass, field
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
        request_timeout: float = 120.0,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.relay_mode = relay_mode
        # Per-object processing cost before relaying (block verification):
        # the paper notes large blocks "take longer to verify and
        # propagate", so the delay is proportional to size.
        self.verification_seconds_per_byte = verification_seconds_per_byte
        # How long to wait for a requested object before giving up on
        # that peer and retrying elsewhere (0 disables).  Generous by
        # default: a 1 MB block takes ~80 s to serialize at the paper's
        # 100 kbit/s, and a premature timeout would duplicate traffic.
        self.request_timeout = request_timeout
        self._store: dict[bytes, StoredObject] = {}
        self._requested: set[bytes] = set()
        self._rejected: set[bytes] = set()
        # While a getdata is outstanding, remember *other* peers that
        # announced the same object: a request that times out (response
        # lost to churn or a partition) is retried from the next one, and
        # relay skips them all — bitcoind's per-peer setInventoryKnown.
        self._alt_sources: dict[bytes, list[int]] = {}
        self._request_timers: dict[bytes, Event] = {}
        # Adjacency never changes mid-run (churn is modelled as offline
        # sets, not edge removal), so the neighbor list is cached once
        # instead of looked up per relayed object.
        self._neighbors: list[int] = network.neighbors(node_id)
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
        """
        for timer in self._request_timers.values():
            timer.cancel()
        self._request_timers.clear()
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
        self._relay(stored, ())

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
        """Send a getdata and arm the retry timer for it."""
        self._requested.add(obj_id)
        if self.request_timeout > 0:
            old = self._request_timers.get(obj_id)
            if old is not None:
                old.cancel()
            self._request_timers[obj_id] = self.sim.schedule(
                self.request_timeout, self._on_request_timeout, obj_id
            )
        self.network.send(
            self.node_id, peer, Message("getdata", obj_id, GETDATA_SIZE)
        )

    def _on_request_timeout(self, obj_id: bytes) -> None:
        self._request_timers.pop(obj_id, None)
        if obj_id in self._store or obj_id in self._rejected:
            self._alt_sources.pop(obj_id, None)
            return
        # The response was lost (churn, partition, or an offline peer):
        # clear the outstanding mark so future invs can retrigger, and
        # retry immediately from the next peer that announced it.
        self._requested.discard(obj_id)
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
        self._requested.discard(obj_id)
        timer = self._request_timers.pop(obj_id, None)
        if timer is not None:
            timer.cancel()
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
