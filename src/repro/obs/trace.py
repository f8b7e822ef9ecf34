"""Structured event traces: schema-versioned JSONL records.

A :class:`Tracer` turns instrumented call sites into one flat JSON
object per line in a pluggable :class:`TraceSink`.  Every record carries
the schema version (``v``), the event name (``ev``), and the virtual
timestamp (``t``); the remaining fields are event-specific.  Block
hashes appear as 12-hex-char prefixes — unambiguous within a run and a
quarter the bytes of the full digest.

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
from pathlib import Path
from typing import IO

SCHEMA_VERSION = 1

# One encoder for every record: ``json.dumps`` with keyword arguments
# builds a new one per call.  A record is built fresh from plain values
# and never contains itself, so the circular check has nothing to find;
# the bytes are ``json.dumps``'s.
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode

_SEND_KEYS = ("v", "ev", "t", "src", "dst", "kind", "size", "qd", "arr")
_DELIVER_KEYS = _SEND_KEYS[:7]
_INF = float("inf")


class TraceError(Exception):
    """Raised when a trace cannot be written or understood."""


def trace_line(record: dict) -> str:
    """``json.dumps(record, separators=(",", ":")) + "\\n"``, cheaper.

    ``send`` and ``deliver`` are most of a trace's lines, so they come
    from a template: ints and finite floats are written with ``repr``
    and the ``kind`` string with ``json``'s own quoting function, which
    is what the encoder does with them.  A record whose keys, key order
    or value types differ from what :class:`~repro.net.network.Network`
    emits — a ``bool`` where an int goes, a NaN or infinite float — goes
    through the encoder instead.
    """
    keys = tuple(record)
    tail = None
    if keys == _SEND_KEYS:
        v, ev, t, src, dst, kind, size, qd, arr = record.values()
        if (
            ev == "send"
            and type(qd) is float
            and type(arr) is float
            and -_INF < qd < _INF
            and -_INF < arr < _INF
        ):
            tail = f',"qd":{qd!r},"arr":{arr!r}}}\n'
    elif keys == _DELIVER_KEYS:
        v, ev, t, src, dst, kind, size = record.values()
        if ev == "deliver":
            tail = "}\n"
    if (
        tail is not None
        and type(v) is int
        and type(src) is int
        and type(dst) is int
        and type(size) is int
        and type(kind) is str
        and type(t) is float
        and -_INF < t < _INF
    ):
        return (
            f'{{"v":{v},"ev":"{ev}","t":{t!r},"src":{src},"dst":{dst},'
            f'"kind":{_quote(kind)},"size":{size}{tail}'
        )
    return _encode(record) + "\n"


class JsonlSink:
    """Appends records to a ``.jsonl`` file, one compact object per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file: IO[str] | None = None
        self._closed = False
        self.records_written = 0

    def write(self, record: dict) -> None:
        if self._file is None:
            if self._closed:
                # Lazily reopening in "w" mode would truncate a finished
                # trace; a write after trace_end is always a caller bug.
                raise TraceError(f"write to closed trace {self.path}")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8")
        self._file.write(trace_line(record))
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

    def close(self) -> None:
        pass


def short_hash(block_hash: bytes) -> str:
    """The 12-hex-char prefix used for hashes in trace records."""
    return block_hash.hex()[:12]


class Tracer:
    """Emits schema-versioned records into a sink.

    Instrumented code holds either a ``Tracer`` or ``None``; hot paths
    guard with ``if tracer is not None`` so a disabled run pays one
    attribute check and nothing else.  ``tap``, called as
    ``tap(ev, t, fields)``, sees every record — an ``Observability``
    sets it to its summary's fold; with no ``sink`` nothing is written.
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
            self.tap(ev, t, fields)
        if self.sink is not None:
            self.sink.write({"v": SCHEMA_VERSION, "ev": ev, "t": t, **fields})

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
