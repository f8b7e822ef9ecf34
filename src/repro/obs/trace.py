"""Structured event traces: schema-versioned JSONL records.

A :class:`Tracer` turns instrumented call sites into one flat JSON
object per line in a pluggable sink.  Every record carries the schema
version (``v``), the event name (``ev``), and the virtual timestamp
(``t``); the remaining fields are event-specific.  Block hashes appear
as 12-hex-char prefixes — unambiguous within a run and a quarter the
bytes of the full digest.

``send`` and ``deliver`` are most of a trace, so they have typed entry
points: the network calls :meth:`Tracer.send` and
:meth:`Tracer.deliver` with positional values, the tap folds them
through ``add_send`` / ``add_deliver``, and a sink writes them through
its own ``send`` / ``deliver`` (:class:`JsonlSink` from a line
template).  Every other record goes through :meth:`Tracer.emit`, the
tap's ``add`` and the sink's ``write``.  A sink is anything with
``write(record)``, ``send(t, src, dst, kind, size, qd, arr)``,
``deliver(t, src, dst, kind, size)``, ``close()`` and
``records_written``; either way the bytes are ``json.dumps``'s of the
one record.

Record vocabulary (schema version 1):

=======================  ===================================================
``trace_start``          run metadata (protocol, nodes, seed)
``send``                 a message booked onto a link (src, dst, kind, size,
                         qd = sender-side queueing delay, arr = arrival time)
``drop``                 a send discarded by churn or a partition
``deliver``              a message handed to the destination handler
``gossip_retry``         a getdata timed out and was retried elsewhere
``obj_reject``           a delivered object failed validation (veto)
``block_gen``            a block was created (hash, kind, miner, size, n_tx)
``block_arrival``        a node first learned of a block
``tip_change``           a node's main-chain tip moved
``epoch_start``          an NG node became leader (its key block heads the
                         chain)
``epoch_end``            an NG node observed loss of its leadership
``sample_links``         periodic: busy links, busy fraction, queued bytes
``sample_mempool``       periodic: per-node mempool depth summary
``sample_forks``         periodic: distinct tips across nodes
``node_crash``           a scenario took a node offline (node, down_for?)
``node_restart``         a crashed node came back online and resynced
``partition``            a scenario split the network (groups, cut links)
``heal``                 the active partition was removed (restored links)
``link_degrade``         link latency/bandwidth multipliers applied
``link_restore``         degraded links reset to pristine parameters
``msg_loss``             the probabilistic send-loss rate changed
``invariant_violation``  a sanitizer checker fired (code, name, node,
                         message, snapshot) — checked (``--check``) runs only
``trace_end``            final counters, closes the file
=======================  ===================================================

The schema is append-only: new record types or fields may appear within
a version; removals or meaning changes bump ``SCHEMA_VERSION``.  Older
traces of profiled runs also hold the profiler's epoch-span records,
which are no longer written (``docs/observability.md``); they were
optional and a reader only counts them as an event type, so the
version stayed 1.  Older traces may likewise hold ``state_digest``
records (a sanitizer digest capture, written only when a digest stride
was set); none is written now and ``SCHEMA_VERSION`` stays 1.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import copysign
from pathlib import Path
from typing import IO

SCHEMA_VERSION = 1

# One encoder for every record the templates below do not write:
# ``json.dumps`` with keyword arguments builds a new one per call.  A
# record is built fresh from plain values and never contains itself, so
# the circular check has nothing to find; the bytes are ``json.dumps``'s.
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode

_INF = float("inf")
# The fixed heads of the two templated records.
_SEND_HEAD = f'{{"v":{SCHEMA_VERSION},"ev":"send","t":'
_DELIVER_HEAD = f'{{"v":{SCHEMA_VERSION},"ev":"deliver","t":'


class TraceError(Exception):
    """Raised when a trace cannot be written or understood."""


class JsonlSink:
    """Appends records to a ``.jsonl`` file, one compact object per line.

    :meth:`send` and :meth:`deliver` are most of a trace's lines, so they
    come from a template: ints and finite floats are written with
    ``repr`` and ``kind`` with ``json``'s own quoting function, which is
    what the encoder does with them.  A value whose type differs from
    what :class:`~repro.net.network.Network` passes — a ``bool`` where an
    int goes, a NaN or infinite float, an int time — sends that line
    through the encoder instead.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: IO[str] | None = None
        self._closed = False
        self.records_written = 0
        # The last send/deliver time and its text (None: not a finite
        # float).  Every record of one event shares ``sim.now``, one
        # float object, so its ``repr`` is taken once per instant; an
        # equal but distinct object (``5`` and ``5.0``, ``0.0`` and
        # ``-0.0``) is formatted afresh.
        self._t: object = None
        self._t_text: str | None = None

    def _open(self) -> IO[str]:
        if self._closed:
            # Lazily reopening in "w" mode would truncate a finished
            # trace; a write after trace_end is always a caller bug.
            raise TraceError(f"write to closed trace {self.path}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("w", encoding="utf-8")
        return self._file

    def _stamp(self, t) -> str | None:
        self._t = t
        self._t_text = repr(t) if type(t) is float and -_INF < t < _INF else None
        return self._t_text

    def write(self, record: dict) -> None:
        (self._file or self._open()).write(_encode(record) + "\n")
        self.records_written += 1

    def send(self, t, src, dst, kind, size, qd, arr) -> None:
        t_text = self._t_text if t is self._t else self._stamp(t)
        if (
            t_text is not None
            and type(src) is int
            and type(dst) is int
            and type(size) is int
            and type(kind) is str
            and type(qd) is float
            and type(arr) is float
            and -_INF < qd < _INF
            and -_INF < arr < _INF
        ):
            # An interleaved message never queues: its qd is 0.0.
            qd_text = "0.0" if qd == 0.0 and copysign(1.0, qd) > 0 else repr(qd)
            line = (
                f'{_SEND_HEAD}{t_text},"src":{src},"dst":{dst},'
                f'"kind":{_quote(kind)},"size":{size},"qd":{qd_text},"arr":{arr!r}}}\n'
            )
        else:
            line = _encode({
                "v": SCHEMA_VERSION, "ev": "send", "t": t, "src": src,
                "dst": dst, "kind": kind, "size": size, "qd": qd, "arr": arr,
            }) + "\n"
        (self._file or self._open()).write(line)
        self.records_written += 1

    def deliver(self, t, src, dst, kind, size) -> None:
        t_text = self._t_text if t is self._t else self._stamp(t)
        if (
            t_text is not None
            and type(src) is int
            and type(dst) is int
            and type(size) is int
            and type(kind) is str
        ):
            line = (
                f'{_DELIVER_HEAD}{t_text},"src":{src},"dst":{dst},'
                f'"kind":{_quote(kind)},"size":{size}}}\n'
            )
        else:
            line = _encode({
                "v": SCHEMA_VERSION, "ev": "deliver", "t": t, "src": src,
                "dst": dst, "kind": kind, "size": size,
            }) + "\n"
        (self._file or self._open()).write(line)
        self.records_written += 1

    def close(self) -> None:
        self._closed = True
        if self._file is not None:
            self._file.close()
            self._file = None


class MemorySink:
    """Keeps records in a list — unit tests and in-process analysis."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    @property
    def records_written(self) -> int:
        return len(self.records)

    def write(self, record: dict) -> None:
        self.records.append(record)

    def send(self, t, src, dst, kind, size, qd, arr) -> None:
        self.records.append({
            "v": SCHEMA_VERSION, "ev": "send", "t": t, "src": src, "dst": dst,
            "kind": kind, "size": size, "qd": qd, "arr": arr,
        })

    def deliver(self, t, src, dst, kind, size) -> None:
        self.records.append({
            "v": SCHEMA_VERSION, "ev": "deliver", "t": t, "src": src,
            "dst": dst, "kind": kind, "size": size,
        })

    def close(self) -> None:
        pass


def short_hash(block_hash: bytes) -> str:
    """The 12-hex-char prefix used for hashes in trace records."""
    return block_hash.hex()[:12]


class Tracer:
    """Emits schema-versioned records into a sink.

    Instrumented code holds either a ``Tracer`` or ``None``; hot paths
    guard with ``if tracer is not None`` so a disabled run pays one
    attribute check and nothing else.  ``tap`` sees every record before
    the sink does: :meth:`emit` hands it ``tap.add(ev, t, fields)``,
    :meth:`send` and :meth:`deliver` the positional
    ``tap.add_send(t, src, dst, kind, size, qd)`` and
    ``tap.add_deliver(t)``.  An ``Observability`` sets it to its
    :class:`~repro.obs.analyze.TraceSummary`; with no ``sink`` nothing
    is written.
    """

    __slots__ = ("sink", "tap")

    def __init__(self, sink=None, tap=None) -> None:
        self.sink = sink
        self.tap = tap

    @property
    def records_written(self) -> int:
        return self.sink.records_written if self.sink is not None else 0

    def emit(self, ev: str, t: float, **fields) -> None:
        if self.tap is not None:
            self.tap.add(ev, t, fields)
        if self.sink is not None:
            self.sink.write({"v": SCHEMA_VERSION, "ev": ev, "t": t, **fields})

    def send(self, t, src, dst, kind, size, qd, arr) -> None:
        """A message booked onto a link: ``qd`` is its queueing delay,
        ``arr`` its arrival time."""
        if self.tap is not None:
            self.tap.add_send(t, src, dst, kind, size, qd)
        if self.sink is not None:
            self.sink.send(t, src, dst, kind, size, qd, arr)

    def deliver(self, t, src, dst, kind, size) -> None:
        """A message handed to its destination's handler."""
        if self.tap is not None:
            self.tap.add_deliver(t)
        if self.sink is not None:
            self.sink.deliver(t, src, dst, kind, size)

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
