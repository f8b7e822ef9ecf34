"""The tracer and its sinks: schema-versioned JSONL records."""

import collections
import json
import random
import tempfile
from math import nextafter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, Protocol, run_experiment
from repro.obs import Observability
from repro.obs import trace as trace_module
from repro.obs.analyze import TraceSummary, iter_records, load_records, summarize
from repro.obs.trace import (
    ARRIVAL,
    DROP,
    SCHEMA_VERSION,
    CHUNK,
    TIP,
    JsonlSink,
    MemorySink,
    TraceError,
    Tracer,
    _round6_text,
    short_hash,
)


def test_emit_stamps_version_event_and_time():
    sink = MemorySink()
    tracer = Tracer(sink)
    tracer.emit("block_gen", 12.5, miner=3, size=1000)
    tracer.flush()
    assert sink.records == [
        {"v": SCHEMA_VERSION, "ev": "block_gen", "t": 12.5,
         "miner": 3, "size": 1000}
    ]
    assert tracer.records_written == 1


class _RecordingTap:
    """A tap that keeps the rows it is handed, in the shape it is handed."""

    def __init__(self):
        self.seen = []

    def fold(self, rows):
        self.seen.extend(rows)


def test_sinkless_tracer_feeds_the_tap_and_writes_nothing():
    tap = _RecordingTap()
    tracer = Tracer(None, tap)
    tracer.emit("block_gen", 2.0, miner=1)
    tracer.send(2.0, 0, 1, "inv", 61, 0.0, 2.5)
    tracer.deliver(2.5, 0, 1, "inv", 61)
    tracer.flush()
    assert tap.seen == [
        ("block_gen", 2.0, {"miner": 1}),
        (2.0, 0, 1, "inv", 61, 0.0, 2.5),
        (2.5, 0, 1, "inv", 61),
    ]
    assert tracer.records_written == 0
    tracer.close()


def test_rows_reach_tap_and_sink_a_chunk_at_a_time():
    """Nothing is handed on until a chunk fills; then the whole chunk
    goes to both, and ``close`` hands on the rest."""
    tap = _RecordingTap()
    sink = MemorySink()
    tracer = Tracer(sink, tap)
    for n in range(CHUNK - 1):
        tracer.deliver(float(n), 0, 1, "inv", 61)
    assert tap.seen == [] and sink.records == []
    tracer.send(1.0, 0, 1, "inv", 61, 0.0, 1.5)
    assert len(tap.seen) == sink.records_written == CHUNK
    tracer.emit("block_gen", 2.0, miner=1)
    assert sink.records_written == CHUNK
    tracer.close()
    assert len(tap.seen) == sink.records_written == CHUNK + 1
    assert sink.records[-1]["ev"] == "block_gen"


def test_memory_sink_keeps_sends_and_deliveries_as_records():
    sink = MemorySink()
    tracer = Tracer(sink)
    tracer.send(2.0, 0, 1, "inv", 61, 0.25, 2.5)
    tracer.deliver(2.5, 0, 1, "inv", 61)
    tracer.flush()
    assert sink.records == [
        {"v": SCHEMA_VERSION, "ev": "send", "t": 2.0, "src": 0, "dst": 1,
         "kind": "inv", "size": 61, "qd": 0.25, "arr": 2.5},
        {"v": SCHEMA_VERSION, "ev": "deliver", "t": 2.5, "src": 0, "dst": 1,
         "kind": "inv", "size": 61},
    ]
    assert tracer.records_written == 2


def test_short_hash_is_twelve_hex_chars():
    digest = bytes(range(32))
    assert short_hash(digest) == digest.hex()[:12]
    assert len(short_hash(digest)) == 12


def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "nested" / "run.trace.jsonl"
    tracer = Tracer(JsonlSink(path))
    tracer.emit("trace_start", 0.0, seed=7)
    tracer.emit("send", 1.0, src=0, dst=1, kind="inv", size=61)
    tracer.close()
    assert path.exists()  # parent dir created lazily
    records = load_records(path)
    assert [r["ev"] for r in records] == ["trace_start", "send"]
    assert records[1]["size"] == 61


def test_jsonl_sink_writes_compact_lines(tmp_path):
    path = tmp_path / "t.trace.jsonl"
    sink = JsonlSink(path)
    sink.write_rows([("x", 0.0, {})])
    sink.close()
    line = path.read_text().strip()
    assert " " not in line  # compact separators, one object per line
    assert sink.records_written == 1


SEND_FIELDS = ("t", "src", "dst", "kind", "size", "qd", "arr")
DELIVER_FIELDS = SEND_FIELDS[:5]
# The typed rows besides send and deliver end in their event name.
TAGGED = {
    "block_arrival": (("t", "node", "hash", "kind"), ARRIVAL),
    "tip_change": (("t", "node", "tip", "height"), TIP),
    "drop": (DELIVER_FIELDS, DROP),
}
NAMES = {
    "send": SEND_FIELDS,
    "deliver": DELIVER_FIELDS,
    "emit": DELIVER_FIELDS,
    **{ev: names for ev, (names, _) in TAGGED.items()},
}
ODD_INTS = st.one_of(
    st.booleans(), st.integers(2**64, 2**80), st.integers(-(2**70), -1)
)
ODD_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324]),
    st.floats(),
    st.integers(0, 10),
)
ODD_KINDS = st.one_of(
    st.sampled_from(['q"uote', "back\\slash", "naïve", "\x7f", "tab\t", "\U0001f600"]),
    st.text(max_size=6),
)
HEX12 = st.binary(min_size=32, max_size=32).map(short_hash)
# What the network and the observation log pass, and what else each
# field could hold.
FIELDS = {
    "t": (st.floats(0.0, 1e4), ODD_FLOATS),
    "src": (st.integers(0, 999), ODD_INTS),
    "dst": (st.integers(0, 999), ODD_INTS),
    "node": (st.integers(0, 999), ODD_INTS),
    "kind": (st.sampled_from(["inv", "getdata", "object", "gettip"]), ODD_KINDS),
    "hash": (HEX12, ODD_KINDS),
    "tip": (HEX12, ODD_KINDS),
    "size": (st.integers(0, 10**6), ODD_INTS),
    "height": (st.integers(0, 10**4), ODD_INTS),
    "qd": (st.one_of(st.just(0.0), st.floats(0.0, 100.0)), ODD_FLOATS),
    "arr": (st.floats(0.0, 1e4), ODD_FLOATS),
}


def _row(ev, values):
    """The tracer's row for one record, and the record ``json.dumps`` is
    to agree with: ``qd`` and ``arr`` rounded by ``round(·, 6)``, as the
    network rounded them before the writer did.  An ``emit`` row stands
    for the rare records, here a ``gossip_retry``."""
    names = NAMES[ev]
    if ev == "emit":
        fields = dict(zip(names[1:], values[1:]))
        return ("gossip_retry", values[0], fields), {
            "v": SCHEMA_VERSION, "ev": "gossip_retry", "t": values[0], **fields
        }
    record = {"v": SCHEMA_VERSION, "ev": ev, **dict(zip(names, values))}
    if ev == "send":
        record["qd"] = round(record["qd"], 6)
        record["arr"] = round(record["arr"], 6)
    if ev in TAGGED:
        return (*values, TAGGED[ev][1]), record
    return tuple(values), record


def _trace(tracer, row):
    """Hand ``row`` to ``tracer`` through the entry point that makes it."""
    if len(row) == 3:
        tracer.emit(row[0], row[1], **row[2])
    elif len(row) == 7:
        tracer.send(*row)
    elif len(row) == 6:
        tracer.drop(*row[:5])
    elif row[4] is ARRIVAL:
        tracer.block_arrival(*row[:4])
    elif row[4] is TIP:
        tracer.tip_change(*row[:4])
    else:
        tracer.deliver(*row)


def _json_lines(records):
    return "".join(
        json.dumps(record, separators=(",", ":")) + "\n" for record in records
    )


def _write_in_chunks(path, rows, cuts):
    """Write ``rows`` through one sink, split at the indices ``cuts``."""
    sink = JsonlSink(path)
    bounds = [0, *sorted(cuts), len(rows)]
    for start, end in zip(bounds, bounds[1:]):
        if start < end:
            sink.write_rows(rows[start:end])
    sink.close()
    assert sink.records_written == len(rows)
    return path.read_text(encoding="utf-8")


@st.composite
def hot_calls(draw):
    """Typed rows as the network and the observation log make them (and
    a rare record from ``emit`` between them), most with one value bent
    the way a template can get wrong; a row often reuses the previous
    row's time object, as the records of one event do."""
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        ev = draw(st.sampled_from(sorted(NAMES)))
        names = NAMES[ev]
        values = [draw(FIELDS[name][0]) for name in names]
        if draw(st.booleans()):
            index = draw(st.integers(0, len(names) - 1))
            values[index] = draw(FIELDS[names[index]][1])
        if calls and draw(st.booleans()):
            values[0] = calls[-1][1][0]
        calls.append((ev, values))
    return calls


@settings(max_examples=300, deadline=None)
@given(hot_calls(), st.lists(st.integers(0, 8), max_size=3))
@example([("send", [1.0, 0, 1, "inv", 61, 0.0, 1.5])], [])
@example([("block_arrival", [2.0, 3, "aa" * 6, "micro"]),
          ("tip_change", [2.0, 3, "aa" * 6, 7]),
          ("drop", [2.0, 3, 4, "inv", 61])], [1])
def test_sink_lines_are_json_dumps_lines(calls, cuts):
    rows, records = zip(*(_row(ev, values) for ev, values in calls))
    with tempfile.TemporaryDirectory() as scratch:
        written = _write_in_chunks(Path(scratch) / "t.trace.jsonl", rows, cuts)
    assert written == _json_lines(records)
    sink = MemorySink()
    tracer = Tracer(sink)
    for row in rows:
        _trace(tracer, row)
    tracer.flush()
    # The same dicts, compared as text: NaN is not equal to itself, and
    # -0.0 and True must not pass for 0.0 and 1.
    assert _json_lines(sink.records) == _json_lines(records)


def _mixed_rows(n, seed):
    """``n`` rows, ordinary and odd mixed, a third of them sharing the
    previous row's time object."""
    rng = random.Random(seed)
    odd = [True, 2**64 + 1, float("nan"), -float("inf"), -0.0, 5e-324, 3]
    odd_text = ['q"uote', "naïve", "\U0001f600"]
    rows, records = [], []
    last_t = None
    for _ in range(n):
        ev = rng.choice([
            "send", "send", "deliver", "deliver", "drop", "block_arrival",
            "tip_change", "emit",
        ])
        width = len(NAMES[ev])
        if ev == "block_arrival":
            values = [
                rng.uniform(0.0, 1e4), rng.randrange(100),
                short_hash(rng.randbytes(32)), rng.choice(["key", "micro"]),
            ]
        elif ev == "tip_change":
            values = [
                rng.uniform(0.0, 1e4), rng.randrange(100),
                short_hash(rng.randbytes(32)), rng.randrange(10**4),
            ]
        else:
            values = [
                rng.uniform(0.0, 1e4), rng.randrange(100), rng.randrange(100),
                rng.choice(["inv", "getdata", "object"]), rng.randrange(10**6),
                rng.choice([0.0, rng.uniform(0.0, 1e-6), rng.expovariate(1.0)]),
                rng.uniform(0.0, 1e4),
            ][:width]
        if last_t is not None and rng.random() < 0.3:
            values[0] = last_t
        if rng.random() < 0.1:
            index = rng.randrange(width)
            # Text only where the record holds text: qd and arr are
            # rounded.
            bent = odd + odd_text if type(values[index]) is str else odd
            values[index] = rng.choice(bent)
        last_t = values[0]
        row, record = _row(ev, values)
        rows.append(row)
        records.append(record)
    return rows, records


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_rows_at_the_chunk_boundary_write_json_dumps_bytes(tmp_path, n):
    """One row short of a chunk, a chunk, one row over: through a
    tracer (which hands them on at ``CHUNK``) and through ``write_rows``
    split at random boundaries, the bytes are ``json.dumps``'s."""
    rows, records = _mixed_rows(n, seed=n)
    expected = _json_lines(records)
    path = tmp_path / "tracer.trace.jsonl"
    tracer = Tracer(JsonlSink(path))
    memory = MemorySink()
    kept = Tracer(memory)
    for row in rows:
        _trace(tracer, row)
        _trace(kept, row)
    tracer.close()
    kept.close()
    assert path.read_text(encoding="utf-8") == expected
    assert _json_lines(memory.records) == expected
    rng = random.Random(-n)
    for _ in range(3):
        cuts = rng.sample(range(1, n), 4)
        written = _write_in_chunks(tmp_path / "cut.trace.jsonl", rows, cuts)
        assert written == expected


def test_every_single_odd_value_writes_json_dumps_bytes(tmp_path):
    """The template's boundary, field by field: each odd value in turn
    in an otherwise ordinary ``send``, ``deliver``, ``drop``,
    ``block_arrival`` and ``tip_change`` — written by the sink and
    kept by a ``MemorySink``, both through the tracer's entry points."""
    odd = {
        int: [True, False, 2**64 + 1, -(2**70)],
        float: [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324, 3],
        str: ['q"uote', "back\\slash", "naïve", "\x7f", "tab\t", "\U0001f600"],
    }
    send = [0.25, 0, 1, "inv", 61, 0.5, 2.75]
    deliver = send[:5]
    calls = [
        ("send", send), ("deliver", deliver), ("drop", deliver),
        ("block_arrival", [0.25, 3, "0a1b2c3d4e5f", "micro"]),
        ("tip_change", [0.25, 3, "0a1b2c3d4e5f", 17]),
    ]
    for ev, base in calls[:]:
        for index, value in enumerate(base):
            for bent in odd[type(value)]:
                calls.append((ev, base[:index] + [bent] + base[index + 1:]))
    rows, records = zip(*(_row(ev, values) for ev, values in calls))
    written = _write_in_chunks(tmp_path / "t.trace.jsonl", rows, [])
    lines = written.splitlines(keepends=True)
    assert len(lines) == len(records) == 66 + 26 + 24 + 22
    for record, line in zip(records, lines):
        assert line == json.dumps(record, separators=(",", ":")) + "\n"
    path = tmp_path / "tracer.trace.jsonl"
    tracer = Tracer(JsonlSink(path))
    memory = MemorySink()
    kept = Tracer(memory)
    for row in rows:
        _trace(tracer, row)
        _trace(kept, row)
    tracer.close()
    kept.close()
    assert path.read_text(encoding="utf-8") == written
    assert _json_lines(memory.records) == written


@settings(max_examples=10_000, deadline=None)
@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # Log-uniform over the decades where ``%.6f`` does the work, and
    # three more on each side of them.
    st.floats(-7.0, 12.0).map(lambda e: 10.0 ** e),
))
@example(1e-4)
@example(nextafter(1e-4, 0.0))
@example(nextafter(1e9, 0.0))
@example(1e9)
@example(5e-7)
@example(0.0)
@example(-0.0)
@example(1e16)
def test_one_conversion_text_is_repr_of_round(x):
    assert _round6_text(x) == repr(round(x, 6))


def test_time_text_follows_the_float_object_not_its_value(tmp_path):
    """The text of ``t`` is reused only for the very same object: an
    equal int, or a zero of the other sign, is written as itself — also
    when the two rows fall in different chunks."""
    times = [5, 5.0, 5.0, 5, 0.0, -0.0, 0.0]
    shared = 7.5
    rows = [(t, 0, 1, "inv", 61) for t in times] + [
        (shared, 0, 1, "inv", 61, 0.0, 8.0),
        (shared, 0, 2, "inv", 61, -0.0, 8.5),
        (shared, 2, 0, "inv", 61),
    ]
    text = _write_in_chunks(tmp_path / "t.trace.jsonl", rows, [3, 8])
    written = [json.loads(line) for line in text.splitlines()]
    stamps = [line.split(",")[2] for line in text.splitlines()]
    assert stamps == [
        '"t":5', '"t":5.0', '"t":5.0', '"t":5', '"t":0.0', '"t":-0.0',
        '"t":0.0', '"t":7.5', '"t":7.5', '"t":7.5',
    ]
    assert [r["qd"] for r in written if r["ev"] == "send"] == [0.0, -0.0]
    assert '"qd":-0.0' in text


PARTITION_HEAL = json.loads(
    (Path(__file__).parent.parent / "examples" / "partition_heal.json")
    .read_text(encoding="utf-8")
)
TYPED = ("send", "deliver", "block_arrival", "tip_change", "drop")


def test_network_sends_and_deliveries_take_the_template(
    monkeypatch, tmp_path, count_calls
):
    """What the network and the observation log write fits a template;
    everything else is encoded.  A float time turned int, say, would send
    every line back through the encoder without changing a byte.  Under
    a partition, so drops are written too: no typed record comes through
    ``emit`` or the encoder, and each typed call is one line of its
    ``ev``."""
    encoded = []
    encode = trace_module._encode

    def spying_encode(record):
        encoded.append(record["ev"])
        return encode(record)

    monkeypatch.setattr(trace_module, "_encode", spying_encode)
    calls = {name: count_calls(Tracer, name) for name in TYPED}
    emitted = count_calls(Tracer, "emit")
    config = ExperimentConfig(
        protocol=Protocol.BITCOIN_NG, n_nodes=10, target_blocks=6,
        target_key_blocks=6, block_rate=0.2, key_block_rate=0.02,
        block_size_bytes=4000, cooldown=10.0, seed=3, scenario=PARTITION_HEAL,
    )
    sink = JsonlSink(tmp_path / "t.trace.jsonl")
    run_experiment(config, obs=Observability(tracer=Tracer(sink)))
    written = collections.Counter(r["ev"] for r in load_records(sink.path))
    assert "block_gen" in encoded and "partition" in written
    for name in TYPED:
        assert len(calls[name]) == written[name] > 0, name
        assert name not in encoded, name
    assert not {args[1] for args in emitted} & set(TYPED)


# Queueing delays at the writer's and the fold's edges: four that round
# to 0.0 (the file says 0.0, so the fold must not count them), and
# either side of the one-conversion range [1e-4, 1e9).
EDGE_DELAYS = [
    4e-7, nextafter(5e-7, 0.0), 5e-7, nextafter(5e-7, 1.0), 1e-6,
    nextafter(1e-4, 0.0), 1e-4, nextafter(1e-4, 1.0),
    nextafter(1e9, 0.0), 1e9, nextafter(1e9, 2e9), 0.0,
]


def _assert_same_summary(folded, read_back):
    """Equal field by field and, as JSON text, key order too: the
    metrics file a run writes is that text."""
    assert folded.to_dict() == read_back.to_dict()
    assert json.dumps(folded.to_dict()) == json.dumps(read_back.to_dict())


def _fold_in_pieces(rows, piece=700):
    """Fold ``rows`` in pieces that are not the tracer's chunks."""
    folded = TraceSummary()
    for start in range(0, len(rows), piece):
        folded.fold(rows[start:start + piece])
    return folded


def test_row_fold_equals_the_file_fold(tmp_path):
    """``fold`` over an NG run's rows leaves the summary ``summarize``
    makes of the file those rows were written to."""
    config = ExperimentConfig(
        protocol=Protocol.BITCOIN_NG, n_nodes=10, target_blocks=6,
        target_key_blocks=2, block_rate=1.0, key_block_rate=0.05,
        block_size_bytes=40000, cooldown=10.0, seed=3,
    )
    path = tmp_path / "t.trace.jsonl"
    obs = Observability(tracer=Tracer(JsonlSink(path)))
    rows = []
    live_fold = obs.summary.fold
    obs.summary.fold = lambda chunk: (rows.extend(chunk), live_fold(chunk))
    run_experiment(config, obs=obs)
    assert any(len(row) == 7 and row[5] > 0 for row in rows)
    folded = _fold_in_pieces(rows)
    _assert_same_summary(folded, summarize(load_records(path)))
    assert folded.events["send"] > 0 and folded.events["deliver"] > 0
    assert folded.queue_delay_count > 0


def test_row_fold_of_edge_delays_equals_the_file_fold(tmp_path):
    """Delays that round to 0.0 are not counted — the file says 0.0 —
    and ones either side of 1e-4 and 1e9 fold as the file reads back."""
    path = tmp_path / "t.trace.jsonl"
    tracer = Tracer(JsonlSink(path))
    tracer.emit("trace_start", 0.0, n_nodes=3)
    for n, qd in enumerate(EDGE_DELAYS):
        t = float(n)
        tracer.send(t, n % 3, (n + 1) % 3, "object", 100, qd, t + qd)
        tracer.deliver(t + qd, n % 3, (n + 1) % 3, "object", 100)
    tracer.close()
    rows = [("trace_start", 0.0, {"n_nodes": 3})] + [
        row for n, qd in enumerate(EDGE_DELAYS) for row in (
            (float(n), n % 3, (n + 1) % 3, "object", 100, qd, n + qd),
            (n + qd, n % 3, (n + 1) % 3, "object", 100),
        )
    ]
    folded = _fold_in_pieces(rows, piece=5)
    _assert_same_summary(folded, summarize(load_records(path)))
    assert folded.queue_delay_count == sum(
        round(qd, 6) > 0 for qd in EDGE_DELAYS
    ) == len(EDGE_DELAYS) - 4


def test_iter_records_rejects_unknown_schema_version(tmp_path):
    path = tmp_path / "bad.trace.jsonl"
    path.write_text(json.dumps({"v": 999, "ev": "x", "t": 0.0}) + "\n")
    with pytest.raises(TraceError, match="schema version"):
        list(iter_records(path))


def test_iter_records_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.trace.jsonl"
    path.write_text('{"v": 1, "ev": "ok", "t": 0.0}\nnot json\n')
    with pytest.raises(TraceError, match="not valid JSON"):
        list(iter_records(path))


def test_iter_records_skips_blank_lines(tmp_path):
    path = tmp_path / "t.trace.jsonl"
    path.write_text('{"v": 1, "ev": "a", "t": 0.0}\n\n{"v": 1, "ev": "b", "t": 1.0}\n')
    assert [r["ev"] for r in iter_records(path)] == ["a", "b"]
