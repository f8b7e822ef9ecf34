"""Trace analysis: the engine behind ``repro trace`` and the live snapshot.

Pure functions over saved JSONL traces — no simulator required — so a
run captured once can be summarized, bucketed into a timeline, or
ranked by per-node traffic long after (and far from) the machine that
produced it.  The summary's fold is also what a running experiment taps
onto its tracer (the summary object is the tap): the metric snapshot a
run reports and ``repro trace summarize`` of its file are one fold.  The
tracer hands the tap its rows a chunk at a time, in emission order,
before the sink writes the same chunk, so the two never disagree about
order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .trace import ARRIVAL, DROP, SCHEMA_VERSION, TIP, TraceError

TRACE_SUFFIX = ".trace.jsonl"

# Events emitted by the fault-injection engine (repro.scenarios).
FAULT_EVENTS = (
    "node_crash",
    "node_restart",
    "partition",
    "heal",
    "link_degrade",
    "link_restore",
    "msg_loss",
)


def find_traces(path: str | Path) -> list[Path]:
    """Trace files under ``path``: itself if a file, else ``*.trace.jsonl``."""
    target = Path(path)
    if target.is_file():
        return [target]
    if target.is_dir():
        traces = sorted(target.glob(f"*{TRACE_SUFFIX}"))
        if not traces:
            raise TraceError(f"no {TRACE_SUFFIX} files under {target}")
        return traces
    raise TraceError(f"no such file or directory: {target}")


def iter_records(path: str | Path) -> Iterator[dict]:
    """Parse one JSONL trace, validating the schema version per record.

    A run that was killed leaves its last line cut short — the sink
    writes through a buffered file — so one unparsable line is dropped
    if it is the file's last and has no newline; the records before it
    are what explains the run.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not raw.endswith("\n"):
                    return
                raise TraceError(
                    f"{path}:{line_no}: not valid JSON: {exc}"
                ) from exc
            version = record.get("v")
            if version != SCHEMA_VERSION:
                raise TraceError(
                    f"{path}:{line_no}: unsupported schema version {version!r}"
                )
            yield record


def load_records(path: str | Path) -> list[dict]:
    return list(iter_records(path))


# -- summarize ---------------------------------------------------------------


@dataclass
class TraceSummary:
    """Aggregates of one record stream — a saved trace or a live run.

    The summary is the :class:`~repro.obs.trace.Tracer`'s tap: the run's
    tracer hands it its records as rows, a chunk at a time and at
    ``flush`` and ``close``, through :meth:`fold`, which folds the five
    typed rows itself and takes an ``emit`` row to :meth:`add`.
    :func:`summarize` runs the same fold over a file (:meth:`add` makes
    a saved record of those five types the row :meth:`fold` reads).
    Every field is current after each call; a live summary lags the run
    by the rows its tracer has not flushed.
    """

    records: int = 0
    t_min: float = 0.0
    t_max: float = 0.0
    events: dict[str, int] = field(default_factory=dict)
    sends_by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    queue_delay_count: int = 0
    queue_delay_sum: float = 0.0
    queue_delay_max: float = 0.0
    blocks_by_kind: dict[str, int] = field(default_factory=dict)
    tip_changes: int = 0
    epochs_started: int = 0
    epochs_ended: int = 0
    gossip_retries: int = 0
    rejects: int = 0
    drops: int = 0
    peak_queued_bytes: float = 0.0
    peak_busy_fraction: float = 0.0
    peak_mempool: int = 0
    peak_tips: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    # NG leader epochs (paper §4) as spans: each ``epoch_start`` opens
    # one, the leader's ``epoch_end`` or re-election closes it, and its
    # own microblocks count toward it.  Sums cover closed spans; the
    # rest were still open at the end of the trace.
    epoch_spans: int = 0
    epoch_spans_closed: int = 0
    span_duration_sum: float = 0.0
    span_micros_sum: int = 0
    # Indexed by node id.  Traffic is counted when *booked* onto a link
    # (each ``send``): ``*_in`` is bytes sent toward a node, delivered
    # or not — churn can still drop them in flight.
    per_node: list[dict[str, int]] = field(default_factory=list)
    blocks_by_node: list[int] = field(default_factory=list)

    # Whether a record other than trace_start/trace_end has set the time
    # span yet; unannotated, so not a dataclass field.
    _spanned = False

    def __post_init__(self) -> None:
        # Leader id -> [start, microblocks] of its open epoch span; not
        # a dataclass field either.
        self._open_spans = {}

    @property
    def queue_delay_mean(self) -> float:
        if not self.queue_delay_count:
            return 0.0
        return self.queue_delay_sum / self.queue_delay_count

    @property
    def span_duration_mean(self) -> float:
        if not self.epoch_spans_closed:
            return 0.0
        return self.span_duration_sum / self.epoch_spans_closed

    @property
    def span_micros_mean(self) -> float:
        if not self.epoch_spans_closed:
            return 0.0
        return self.span_micros_sum / self.epoch_spans_closed

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())

    def to_dict(self) -> dict:
        """The JSON form: every field plus the derived figures."""
        out = asdict(self)
        out["queue_delay_mean"] = self.queue_delay_mean
        out["span_duration_mean"] = self.span_duration_mean
        out["span_micros_mean"] = self.span_micros_mean
        out["total_bytes"] = self.total_bytes
        return out

    def _grow(self, node: int) -> None:
        """Extend the per-node tables to cover node id ``node``."""
        for _ in range(len(self.per_node), node + 1):
            self.per_node.append(
                dict(bytes_out=0, bytes_in=0, messages_out=0, messages_in=0)
            )
            self.blocks_by_node.append(0)

    def _close_span(self, span: list, end: float) -> None:
        self.epoch_spans_closed += 1
        self.span_duration_sum += end - span[0]
        self.span_micros_sum += span[1]

    def _span(self, t: float) -> None:
        """Widen the time span to ``t``."""
        if not self._spanned:
            self._spanned = True
            self.t_min = self.t_max = t
        elif t < self.t_min:
            self.t_min = t
        elif t > self.t_max:
            self.t_max = t

    def fold(self, rows: list[tuple]) -> None:
        """Fold a chunk of :class:`~repro.obs.trace.Tracer` rows in, in
        order.  A ``send`` row ``(t, src, dst, kind, size, qd, arr)`` is
        folded into the traffic tables.  A ``deliver``,
        ``block_arrival``, ``tip_change`` or ``drop`` row is counted and
        spanned (the last two also as tip changes and drops); nothing
        else is folded from one.  Any other record, ``(ev, t, fields)``,
        goes to :meth:`add`.

        ``qd`` is rounded as the trace records it before it is tested,
        so a delay the file holds as ``0.0`` is not counted.
        """
        events = self.events
        sends_by_kind = self.sends_by_kind
        bytes_by_kind = self.bytes_by_kind
        per_node = self.per_node
        sends = delivers = arrivals = tips = drops = 0
        # The span is kept in locals, and handed back around each call
        # to add(), which widens it too.
        spanned, t_min, t_max = self._spanned, self.t_min, self.t_max
        for row in rows:
            width = len(row)
            if width == 3:
                self._spanned, self.t_min, self.t_max = spanned, t_min, t_max
                self.add(*row)
                spanned, t_min, t_max = self._spanned, self.t_min, self.t_max
                continue
            t = row[0]
            if not spanned:
                spanned = True
                t_min = t_max = t
            elif t < t_min:
                t_min = t
            elif t > t_max:
                t_max = t
            if width == 5:
                tag = row[4]
                if tag is ARRIVAL:
                    if not arrivals:
                        events.setdefault(ARRIVAL, 0)
                    arrivals += 1
                elif tag is TIP:
                    if not tips:
                        events.setdefault(TIP, 0)
                    tips += 1
                else:
                    if not delivers:
                        events.setdefault("deliver", 0)
                    delivers += 1
                continue
            if width == 6:
                if not drops:
                    events.setdefault(DROP, 0)
                drops += 1
                continue
            _, src, dst, kind, size, qd, _ = row
            if not sends:
                events.setdefault("send", 0)
            sends += 1
            sends_by_kind[kind] = sends_by_kind.get(kind, 0) + 1
            bytes_by_kind[kind] = bytes_by_kind.get(kind, 0) + size
            if qd > 0:
                qd = round(qd, 6)
                if qd > 0:
                    self.queue_delay_count += 1
                    self.queue_delay_sum += qd
                    if qd > self.queue_delay_max:
                        self.queue_delay_max = qd
            if src >= len(per_node) or dst >= len(per_node):
                self._grow(max(src, dst))
            node = per_node[src]
            node["bytes_out"] += size
            node["messages_out"] += 1
            node = per_node[dst]
            node["bytes_in"] += size
            node["messages_in"] += 1
        self._spanned, self.t_min, self.t_max = spanned, t_min, t_max
        self.records += sends + delivers + arrivals + tips + drops
        if sends:
            events["send"] += sends
        if delivers:
            events["deliver"] += delivers
        if arrivals:
            events[ARRIVAL] += arrivals
        if tips:
            events[TIP] += tips
            self.tip_changes += tips
        if drops:
            events[DROP] += drops
            self.drops += drops

    def add(self, ev: str, t: float, fields: dict) -> None:
        """Fold one record in (a saved record's v/ev/t keys are ignored)."""
        row = _typed_row(ev, t, fields)
        if row is not None:
            self.fold([row])
            return
        self.records += 1
        events = self.events
        events[ev] = events.get(ev, 0) + 1
        if ev != "trace_start" and ev != "trace_end":
            self._span(t)
        if ev == "block_gen":
            kind = fields.get("kind", "?")
            self.blocks_by_kind[kind] = self.blocks_by_kind.get(kind, 0) + 1
            miner = fields.get("miner", 0)
            self._grow(miner)
            self.blocks_by_node[miner] += 1
            if kind == "micro":
                span = self._open_spans.get(miner)
                if span is not None:
                    span[1] += 1
        elif ev == "epoch_start":
            self.epochs_started += 1
            self.epoch_spans += 1
            leader = fields.get("leader", -1)
            stale = self._open_spans.get(leader)
            if stale is not None:
                # Re-elected without observing its loss (a fork resolved
                # back): the earlier span closes where the new one opens.
                self._close_span(stale, t)
            self._open_spans[leader] = [t, 0]
        elif ev == "epoch_end":
            self.epochs_ended += 1
            span = self._open_spans.pop(fields.get("leader", -1), None)
            if span is not None:
                self._close_span(span, t)
        elif ev == "gossip_retry":
            self.gossip_retries += 1
        elif ev == "obj_reject":
            self.rejects += 1
        elif ev == "sample_links":
            self.peak_queued_bytes = max(
                self.peak_queued_bytes, fields.get("queued_bytes", 0.0)
            )
            self.peak_busy_fraction = max(
                self.peak_busy_fraction, fields.get("frac", 0.0)
            )
        elif ev == "sample_mempool":
            self.peak_mempool = max(self.peak_mempool, fields.get("max", 0))
        elif ev == "sample_forks":
            self.peak_tips = max(self.peak_tips, fields.get("tips", 0))
        elif ev == "trace_start":
            self.meta = {
                k: v for k, v in fields.items() if k not in ("v", "ev", "t")
            }
            # One row per node, even for one that never sends.
            self._grow(self.meta.get("n_nodes", 0) - 1)
        elif ev in FAULT_EVENTS:
            self.faults[ev] = self.faults.get(ev, 0) + 1


def _typed_row(ev: str, t: float, fields: dict) -> tuple | None:
    """The row :meth:`TraceSummary.fold` reads for a record that has a
    tracer entry point of its own, or None for any other record.  The
    row carries only what the fold reads of it."""
    if ev == "send":
        get = fields.get
        return (
            t, get("src", 0), get("dst", 0), get("kind", "?"),
            get("size", 0), get("qd", 0.0), get("arr", 0.0),
        )
    if ev == "deliver":
        return (t, 0, 0, "?", 0)
    if ev == ARRIVAL:
        return (t, 0, "", "?", ARRIVAL)
    if ev == TIP:
        return (t, 0, "", 0, TIP)
    if ev == DROP:
        return (t, 0, 0, "?", 0, DROP)
    return None


def summarize(records: Iterable[dict]) -> TraceSummary:
    """Fold a record stream into a :class:`TraceSummary`."""
    summary = TraceSummary()
    for record in records:
        summary.add(record["ev"], record.get("t", 0.0), record)
    return summary


def format_summary(summary: TraceSummary, name: str = "") -> str:
    """Human-readable report of one trace."""
    lines: list[str] = []
    if name:
        lines.append(f"== {name} ==")
    if summary.meta:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(summary.meta.items()))
        lines.append(f"run:                 {meta}")
    lines.append(f"records:             {summary.records}")
    lines.append(
        f"time span:           {summary.t_min:.1f} .. {summary.t_max:.1f} s"
    )
    if "trace_end" not in summary.events:
        lines.append("truncated:           no trace_end record")
    if summary.events:
        lines.append("event types:")
        for ev, count in sorted(summary.events.items()):
            lines.append(
                f"  {ev + ':':<19}{count:>8}  {count / summary.records:>6.1%}"
            )
    if summary.sends_by_kind:
        lines.append("traffic by kind:")
        for kind in sorted(summary.sends_by_kind):
            lines.append(
                f"  {kind + ':':<19}{summary.sends_by_kind[kind]} msgs, "
                f"{summary.bytes_by_kind.get(kind, 0):,} bytes"
            )
        lines.append(f"total bytes sent:    {summary.total_bytes:,}")
    lines.append(
        "queueing delay:      "
        f"{summary.queue_delay_count} delayed sends, "
        f"mean {summary.queue_delay_mean:.3f} s, "
        f"max {summary.queue_delay_max:.3f} s"
    )
    if summary.blocks_by_kind:
        blocks = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(summary.blocks_by_kind.items())
        )
        lines.append(f"blocks generated:    {blocks}")
    lines.append(f"tip changes:         {summary.tip_changes}")
    if summary.epochs_started or summary.epochs_ended:
        lines.append(
            f"leader epochs:       {summary.epochs_started} started, "
            f"{summary.epochs_ended} ended"
        )
    if summary.epoch_spans:
        open_spans = summary.epoch_spans - summary.epoch_spans_closed
        suffix = f", {open_spans} open at run end" if open_spans else ""
        lines.append(
            f"epoch spans:         {summary.epoch_spans}, "
            f"mean {summary.span_duration_mean:.1f} s, "
            f"mean {summary.span_micros_mean:.1f} microblocks{suffix}"
        )
    if summary.gossip_retries or summary.rejects or summary.drops:
        lines.append(
            f"anomalies:           {summary.gossip_retries} retries, "
            f"{summary.rejects} rejects, {summary.drops} drops"
        )
    if summary.faults:
        faults = ", ".join(
            f"{ev}={count}" for ev, count in sorted(summary.faults.items())
        )
        lines.append(f"faults injected:     {faults}")
    lines.append(
        "sampled peaks:       "
        f"queued {summary.peak_queued_bytes:,.0f} B, "
        f"busy {summary.peak_busy_fraction:.1%}, "
        f"mempool {summary.peak_mempool}, "
        f"tips {summary.peak_tips}"
    )
    return "\n".join(lines)


# -- timeline ----------------------------------------------------------------


def format_timeline(
    records: Iterable[dict], buckets: int = 20, width: int = 40
) -> str:
    """Bucketed activity over virtual time, with an ASCII bytes bar."""
    if buckets < 1:
        raise ValueError("need at least one bucket")
    rows = [
        {"sends": 0, "bytes": 0, "blocks": 0, "tips": 0, "faults": 0}
        for _ in range(buckets)
    ]
    t_min = t_max = None
    materialized = []
    for record in records:
        if record["ev"] in ("trace_start", "trace_end"):
            continue
        materialized.append(record)
        t = record.get("t", 0.0)
        t_min = t if t_min is None else min(t_min, t)
        t_max = t if t_max is None else max(t_max, t)
    if t_min is None:
        return "(empty trace)"
    span = max(t_max - t_min, 1e-9)
    for record in materialized:
        index = min(
            int((record.get("t", 0.0) - t_min) / span * buckets), buckets - 1
        )
        row = rows[index]
        ev = record["ev"]
        if ev == "send":
            row["sends"] += 1
            row["bytes"] += record.get("size", 0)
        elif ev == "block_gen":
            row["blocks"] += 1
        elif ev == "tip_change":
            row["tips"] += 1
        elif ev in FAULT_EVENTS:
            row["faults"] += 1
    peak_bytes = max(row["bytes"] for row in rows) or 1
    show_faults = any(row["faults"] for row in rows)
    header = (
        f"{'t [s]':>12}  {'sends':>8}  {'bytes':>12}  {'blocks':>6}  "
        f"{'tips':>5}  "
    )
    if show_faults:
        header += f"{'faults':>6}  "
    lines = [header + "traffic"]
    for index, row in enumerate(rows):
        start = t_min + span * index / buckets
        bar = "#" * round(row["bytes"] / peak_bytes * width)
        line = (
            f"{start:>12.1f}  {row['sends']:>8}  {row['bytes']:>12,}  "
            f"{row['blocks']:>6}  {row['tips']:>5}  "
        )
        if show_faults:
            line += f"{row['faults']:>6}  "
        lines.append(line + bar)
    return "\n".join(lines)


# -- toptalkers --------------------------------------------------------------


def format_toptalkers(summary: TraceSummary, top: int = 10) -> str:
    """Rank nodes by bytes booked onto their outgoing links."""
    rows = summary.per_node
    ranked = sorted(
        (node for node, row in enumerate(rows) if row["messages_out"]),
        key=lambda node: (-rows[node]["bytes_out"], node),
    )[:top]
    if not ranked:
        return "(no traffic recorded)"
    lines = [f"{'node':>6}  {'bytes out':>14}  {'msgs out':>10}  {'blocks':>6}"]
    for node in ranked:
        row = rows[node]
        lines.append(
            f"{node:>6}  {row['bytes_out']:>14,}  "
            f"{row['messages_out']:>10}  {summary.blocks_by_node[node]:>6}"
        )
    return "\n".join(lines)
