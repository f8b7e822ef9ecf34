"""Structured event traces: schema-versioned JSONL records.

A :class:`Tracer` turns instrumented call sites into one flat JSON
object per line in a pluggable sink.  Every record carries the schema
version (``v``), the event name (``ev``), and the virtual timestamp
(``t``); the remaining fields are event-specific.  Block hashes appear
as 12-hex-char prefixes — unambiguous within a run and a quarter the
bytes of the full digest.

The tracer keeps what it is handed as plain rows, in emission order:

* :meth:`Tracer.send` — ``(t, src, dst, kind, size, qd, arr)``;
* :meth:`Tracer.deliver` — ``(t, src, dst, kind, size)``;
* :meth:`Tracer.block_arrival` — ``(t, node, hash, kind, "block_arrival")``;
* :meth:`Tracer.tip_change` — ``(t, node, tip, height, "tip_change")``;
* :meth:`Tracer.drop` — ``(t, src, dst, kind, size, "drop")``;
* :meth:`Tracer.emit` — ``(ev, t, fields)``, every other record.

A row's length says which it is, and a five-wide row's last value
tells a ``deliver`` (an int size) from the two rows that end in their
event name (:data:`ARRIVAL` and :data:`TIP`, matched by identity).
Every positional row opens with ``t``.  Every :data:`CHUNK` rows, and
at :meth:`Tracer.flush` and :meth:`Tracer.close`, the pending rows go
to the tap's ``fold(rows)`` and then to the sink's
``write_rows(rows)``; until then neither has seen them.  A sink is
anything with ``write_rows(rows)``, ``close()`` and
``records_written``.  :class:`JsonlSink` writes a chunk as one string
in one ``write``: the five positional rows from line templates, the
``emit`` rows through one reused encoder, and either way the bytes are
``json.dumps``'s of the record.  ``emit`` is the one path for every
record type without an entry point of its own, and a record type with
one never comes through ``emit``.  The network hands ``qd`` and
``arr`` over unrounded; the record holds ``round(qd, 6)`` and
``round(arr, 6)``.

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

# Rows a tracer holds before it hands them on.  A chunk of 4,096 was no
# faster end to end and peaked ~1.5 MB higher (docs/observability.md,
# "Third rewrite").
CHUNK = 1024

# One encoder for every record the templates below do not write:
# ``json.dumps`` with keyword arguments builds a new one per call.  A
# record is built fresh from plain values and never contains itself, so
# the circular check has nothing to find; the bytes are ``json.dumps``'s.
_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode

_INF = float("inf")
# The last value of a drop, block-arrival or tip-change row: its event
# name.  A five-wide row is one of the latter two only if its last value
# *is* one of these objects; a deliver's is its size.
ARRIVAL = "block_arrival"
TIP = "tip_change"
DROP = "drop"
# The fixed heads of the templated records.
_SEND_HEAD = f'{{"v":{SCHEMA_VERSION},"ev":"send","t":'
_DELIVER_HEAD = f'{{"v":{SCHEMA_VERSION},"ev":"deliver","t":'
_ARRIVAL_HEAD = f'{{"v":{SCHEMA_VERSION},"ev":"{ARRIVAL}","t":'
_TIP_HEAD = f'{{"v":{SCHEMA_VERSION},"ev":"{TIP}","t":'
_DROP_HEAD = f'{{"v":{SCHEMA_VERSION},"ev":"{DROP}","t":'


def _round6_text(x: float) -> str:
    """``repr(round(x, 6))`` of a finite float, in one conversion.

    In [1e-4, 1e9) the rounded value has at most 15 significant digits,
    so its shortest ``repr`` is its six-place decimal with the trailing
    zeros cut; ``%.6f`` and ``round`` both round the exact binary value
    half-to-even.  Outside that range ``repr`` may switch to exponent
    form, so it is asked directly.
    """
    if 1e-4 <= x < 1e9:
        text = ("%.6f" % x).rstrip("0")
        return text + "0" if text[-1] == "." else text
    return repr(round(x, 6))


def _record(row: tuple) -> dict:
    """The record a tracer row stands for — what its line is the JSON
    of, ``qd`` and ``arr`` rounded to six places."""
    width = len(row)
    if width == 3:
        ev, t, fields = row
        return {"v": SCHEMA_VERSION, "ev": ev, "t": t, **fields}
    if width == 7:
        t, src, dst, kind, size, qd, arr = row
        return {
            "v": SCHEMA_VERSION, "ev": "send", "t": t, "src": src, "dst": dst,
            "kind": kind, "size": size, "qd": round(qd, 6), "arr": round(arr, 6),
        }
    if width == 6:
        t, src, dst, kind, size, _ = row
        return {
            "v": SCHEMA_VERSION, "ev": DROP, "t": t, "src": src, "dst": dst,
            "kind": kind, "size": size,
        }
    tag = row[4]
    if tag is ARRIVAL:
        t, node, block, kind, _ = row
        return {
            "v": SCHEMA_VERSION, "ev": ARRIVAL, "t": t, "node": node,
            "hash": block, "kind": kind,
        }
    if tag is TIP:
        t, node, tip, height, _ = row
        return {
            "v": SCHEMA_VERSION, "ev": TIP, "t": t, "node": node, "tip": tip,
            "height": height,
        }
    t, src, dst, kind, size = row
    return {
        "v": SCHEMA_VERSION, "ev": "deliver", "t": t, "src": src, "dst": dst,
        "kind": kind, "size": size,
    }


class TraceError(Exception):
    """Raised when a trace cannot be written or understood."""


class JsonlSink:
    """Appends records to a ``.jsonl`` file, one compact object per line.

    Every positional row — ``send``, ``deliver``, ``block_arrival``,
    ``tip_change`` and ``drop``, 99.7% of a trace's lines — comes from a
    template: ints and finite floats are written with ``repr`` (``qd``
    and ``arr`` with :func:`_round6_text`) and strings with ``json``'s
    own quoting function, which is what the encoder does with them.  A
    value whose type differs from what the network and the observation
    log pass — a ``bool`` where an int goes, a NaN or infinite float, an
    int time — sends that line through the encoder instead.
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

    def write_rows(self, rows: list[tuple]) -> None:
        """Write a chunk of tracer rows, in order, in one ``write``."""
        lines = []
        line = lines.append
        last_t, t_text = self._t, self._t_text
        for row in rows:
            width = len(row)
            if width == 3:
                line(_encode(_record(row)))
                continue
            t = row[0]
            if t is not last_t:
                last_t = t
                t_text = (
                    repr(t) if type(t) is float and -_INF < t < _INF else None
                )
            if width == 7:
                _, src, dst, kind, size, qd, arr = row
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
                    if qd == 0.0 and copysign(1.0, qd) > 0:
                        qd_text = "0.0"
                    else:
                        qd_text = _round6_text(qd)
                    line(
                        f'{_SEND_HEAD}{t_text},"src":{src},"dst":{dst},'
                        f'"kind":{_quote(kind)},"size":{size},'
                        f'"qd":{qd_text},"arr":{_round6_text(arr)}}}'
                    )
                else:
                    line(_encode(_record(row)))
            elif width == 6:
                _, src, dst, kind, size, _ = row
                if (
                    t_text is not None
                    and type(src) is int
                    and type(dst) is int
                    and type(size) is int
                    and type(kind) is str
                ):
                    line(
                        f'{_DROP_HEAD}{t_text},"src":{src},"dst":{dst},'
                        f'"kind":{_quote(kind)},"size":{size}}}'
                    )
                else:
                    line(_encode(_record(row)))
            elif row[4] is ARRIVAL:
                _, node, block, kind, _ = row
                if (
                    t_text is not None
                    and type(node) is int
                    and type(block) is str
                    and type(kind) is str
                ):
                    line(
                        f'{_ARRIVAL_HEAD}{t_text},"node":{node},'
                        f'"hash":{_quote(block)},"kind":{_quote(kind)}}}'
                    )
                else:
                    line(_encode(_record(row)))
            elif row[4] is TIP:
                _, node, tip, height, _ = row
                if (
                    t_text is not None
                    and type(node) is int
                    and type(tip) is str
                    and type(height) is int
                ):
                    line(
                        f'{_TIP_HEAD}{t_text},"node":{node},'
                        f'"tip":{_quote(tip)},"height":{height}}}'
                    )
                else:
                    line(_encode(_record(row)))
            else:
                _, src, dst, kind, size = row
                if (
                    t_text is not None
                    and type(src) is int
                    and type(dst) is int
                    and type(size) is int
                    and type(kind) is str
                ):
                    line(
                        f'{_DELIVER_HEAD}{t_text},"src":{src},"dst":{dst},'
                        f'"kind":{_quote(kind)},"size":{size}}}'
                    )
                else:
                    line(_encode(_record(row)))
        self._t, self._t_text = last_t, t_text
        lines.append("")
        (self._file or self._open()).write("\n".join(lines))
        self.records_written += len(rows)

    def close(self) -> None:
        self._closed = True
        if self._file is not None:
            self._file.close()
            self._file = None


class MemorySink:
    """Keeps records in a list — unit tests and in-process analysis.

    Each record is the dict a saved trace reads back as: ``qd`` and
    ``arr`` rounded to six places.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []

    @property
    def records_written(self) -> int:
        return len(self.records)

    def write_rows(self, rows: list[tuple]) -> None:
        self.records.extend(map(_record, rows))

    def close(self) -> None:
        pass


def short_hash(block_hash: bytes) -> str:
    """The 12-hex-char prefix used for hashes in trace records."""
    return block_hash.hex()[:12]


class Tracer:
    """Collects schema-versioned records as rows and hands them on.

    Instrumented code holds either a ``Tracer`` or ``None``; hot paths
    guard with ``if tracer is not None`` so a disabled run pays one
    attribute check and nothing else.  Rows reach ``tap.fold(rows)``
    and then the sink's ``write_rows(rows)`` a chunk at a time (see the
    module docstring), so a reader of either calls :meth:`flush` first.
    An ``Observability`` sets ``tap`` to its
    :class:`~repro.obs.analyze.TraceSummary`; with no ``sink`` nothing
    is written.
    """

    __slots__ = ("sink", "tap", "_rows")

    def __init__(self, sink=None, tap=None) -> None:
        self.sink = sink
        self.tap = tap
        self._rows: list[tuple] = []

    @property
    def records_written(self) -> int:
        """Records the sink has been handed — pending rows not yet."""
        return self.sink.records_written if self.sink is not None else 0

    def emit(self, ev: str, t: float, **fields) -> None:
        rows = self._rows
        rows.append((ev, t, fields))
        if len(rows) >= CHUNK:
            self.flush()

    def send(self, t, src, dst, kind, size, qd, arr) -> None:
        """A message booked onto a link: ``qd`` is its queueing delay,
        ``arr`` its arrival time, both unrounded."""
        rows = self._rows
        rows.append((t, src, dst, kind, size, qd, arr))
        if len(rows) >= CHUNK:
            self.flush()

    def deliver(self, t, src, dst, kind, size) -> None:
        """A message handed to its destination's handler."""
        rows = self._rows
        rows.append((t, src, dst, kind, size))
        if len(rows) >= CHUNK:
            self.flush()

    def block_arrival(self, t, node, hash, kind) -> None:
        """``node`` learned of a block: ``hash`` is its
        :func:`short_hash`, ``kind`` the block's kind."""
        rows = self._rows
        rows.append((t, node, hash, kind, ARRIVAL))
        if len(rows) >= CHUNK:
            self.flush()

    def tip_change(self, t, node, tip, height) -> None:
        """``node``'s main-chain tip moved to ``tip`` (a
        :func:`short_hash`) at ``height``."""
        rows = self._rows
        rows.append((t, node, tip, height, TIP))
        if len(rows) >= CHUNK:
            self.flush()

    def drop(self, t, src, dst, kind, size) -> None:
        """A send discarded by churn, a partition or loss."""
        rows = self._rows
        rows.append((t, src, dst, kind, size, DROP))
        if len(rows) >= CHUNK:
            self.flush()

    def flush(self) -> None:
        """Hand every pending row to the tap and the sink."""
        rows = self._rows
        if not rows:
            return
        self._rows = []
        if self.tap is not None:
            self.tap.fold(rows)
        if self.sink is not None:
            self.sink.write_rows(rows)

    def close(self) -> None:
        self.flush()
        if self.sink is not None:
            self.sink.close()
