"""The tracer and its sinks: schema-versioned JSONL records."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, Protocol, run_experiment
from repro.obs import Observability
from repro.obs import trace as trace_module
from repro.obs.analyze import TraceSummary, iter_records, load_records
from repro.obs.trace import (
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    TraceError,
    Tracer,
    short_hash,
)


def test_emit_stamps_version_event_and_time():
    sink = MemorySink()
    tracer = Tracer(sink)
    tracer.emit("block_gen", 12.5, miner=3, size=1000)
    assert sink.records == [
        {"v": SCHEMA_VERSION, "ev": "block_gen", "t": 12.5,
         "miner": 3, "size": 1000}
    ]
    assert tracer.records_written == 1


class _RecordingTap:
    """A tap that keeps what it is handed, in the shape it is handed."""

    def __init__(self):
        self.seen = []

    def add(self, ev, t, fields):
        self.seen.append((ev, t, fields))

    def add_send(self, *values):
        self.seen.append(("send", *values))

    def add_deliver(self, t):
        self.seen.append(("deliver", t))


def test_sinkless_tracer_feeds_the_tap_and_writes_nothing():
    tap = _RecordingTap()
    tracer = Tracer(None, tap)
    tracer.emit("block_gen", 2.0, miner=1)
    tracer.send(2.0, 0, 1, "inv", 61, 0.0, 2.5)
    tracer.deliver(2.5, 0, 1, "inv", 61)
    assert tap.seen == [
        ("block_gen", 2.0, {"miner": 1}),
        ("send", 2.0, 0, 1, "inv", 61, 0.0),
        ("deliver", 2.5),
    ]
    assert tracer.records_written == 0
    tracer.close()


def test_memory_sink_keeps_sends_and_deliveries_as_records():
    sink = MemorySink()
    tracer = Tracer(sink)
    tracer.send(2.0, 0, 1, "inv", 61, 0.25, 2.5)
    tracer.deliver(2.5, 0, 1, "inv", 61)
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
    sink.write({"v": 1, "ev": "x", "t": 0.0})
    sink.close()
    line = path.read_text().strip()
    assert " " not in line  # compact separators, one object per line
    assert sink.records_written == 1


SEND_FIELDS = ("t", "src", "dst", "kind", "size", "qd", "arr")
DELIVER_FIELDS = SEND_FIELDS[:5]
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
# What the network passes, and what else each field could hold.
FIELDS = {
    "t": (st.floats(0.0, 1e4), ODD_FLOATS),
    "src": (st.integers(0, 999), ODD_INTS),
    "dst": (st.integers(0, 999), ODD_INTS),
    "kind": (st.sampled_from(["inv", "getdata", "object", "gettip"]), ODD_KINDS),
    "size": (st.integers(0, 10**6), ODD_INTS),
    "qd": (st.one_of(st.just(0.0), st.floats(0.0, 100.0)), ODD_FLOATS),
    "arr": (st.floats(0.0, 1e4), ODD_FLOATS),
}


def _write(sink, ev, values):
    """Hand one record to ``sink`` the way the tracer does; return the
    record ``json.dumps`` is to agree with."""
    names = SEND_FIELDS if ev == "send" else DELIVER_FIELDS
    record = {"v": SCHEMA_VERSION, "ev": ev, **dict(zip(names, values))}
    if ev == "send":
        sink.send(*values)
    elif ev == "deliver":
        sink.deliver(*values)
    else:
        sink.write(record)
    return record


@st.composite
def hot_calls(draw):
    """``send``/``deliver`` calls as the network makes them (and a
    ``drop`` written as a dict between them), most with one value bent
    the way a template can get wrong; a call often reuses the previous
    call's time object, as the records of one event do."""
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        ev = draw(st.sampled_from(["send", "deliver", "drop"]))
        names = SEND_FIELDS if ev == "send" else DELIVER_FIELDS
        values = [draw(FIELDS[name][0]) for name in names]
        if draw(st.booleans()):
            index = draw(st.integers(0, len(names) - 1))
            values[index] = draw(FIELDS[names[index]][1])
        if calls and draw(st.booleans()):
            values[0] = calls[-1][1][0]
        calls.append((ev, values))
    return calls


@settings(max_examples=300, deadline=None)
@given(hot_calls())
@example([("send", [1.0, 0, 1, "inv", 61, 0.0, 1.5])])
def test_sink_lines_are_json_dumps_lines(calls):
    with tempfile.TemporaryDirectory() as scratch:
        sink = JsonlSink(Path(scratch) / "t.trace.jsonl")
        records = [_write(sink, ev, values) for ev, values in calls]
        sink.close()
        written = sink.path.read_text(encoding="utf-8")
    assert written == "".join(
        json.dumps(record, separators=(",", ":")) + "\n" for record in records
    )
    assert sink.records_written == len(records)


def test_every_single_odd_value_writes_json_dumps_bytes(tmp_path):
    """The template's boundary, field by field: each odd value in turn
    in an otherwise ordinary ``send`` and ``deliver``."""
    odd = {
        int: [True, False, 2**64 + 1, -(2**70)],
        float: [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324, 3],
        str: ['q"uote', "back\\slash", "naïve", "\x7f", "tab\t", "\U0001f600"],
    }
    send = [0.25, 0, 1, "inv", 61, 0.5, 2.75]
    deliver = send[:5]
    calls = [("send", send), ("deliver", deliver)]
    for ev, base in calls[:]:
        for index, value in enumerate(base):
            for bent in odd[type(value)]:
                calls.append((ev, base[:index] + [bent] + base[index + 1:]))
    sink = JsonlSink(tmp_path / "t.trace.jsonl")
    records = [_write(sink, ev, values) for ev, values in calls]
    sink.close()
    lines = sink.path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == len(records) == 66
    for record, line in zip(records, lines):
        assert line == json.dumps(record, separators=(",", ":")) + "\n"


def test_time_text_follows_the_float_object_not_its_value(tmp_path):
    """The text of ``t`` is reused only for the very same object: an
    equal int, or a zero of the other sign, is written as itself."""
    times = [5, 5.0, 5.0, 5, 0.0, -0.0, 0.0]
    sink = JsonlSink(tmp_path / "t.trace.jsonl")
    shared = 7.5
    for t in times:
        sink.deliver(t, 0, 1, "inv", 61)
    sink.send(shared, 0, 1, "inv", 61, 0.0, 8.0)
    sink.send(shared, 0, 2, "inv", 61, -0.0, 8.5)
    sink.deliver(shared, 2, 0, "inv", 61)
    sink.close()
    written = [json.loads(line) for line in sink.path.read_text().splitlines()]
    stamps = [line.split(",")[2] for line in sink.path.read_text().splitlines()]
    assert stamps == [
        '"t":5', '"t":5.0', '"t":5.0', '"t":5', '"t":0.0', '"t":-0.0',
        '"t":0.0', '"t":7.5', '"t":7.5', '"t":7.5',
    ]
    assert [r["qd"] for r in written if r["ev"] == "send"] == [0.0, -0.0]
    assert '"qd":-0.0' in sink.path.read_text()


def test_network_sends_and_deliveries_take_the_template(monkeypatch, tmp_path):
    """What the network emits fits the template; everything else is
    encoded.  A float time turned int, say, would send every line
    back through the encoder without changing a byte."""
    encoded = []
    encode = trace_module._encode

    def spying_encode(record):
        encoded.append(record["ev"])
        return encode(record)

    monkeypatch.setattr(trace_module, "_encode", spying_encode)
    config = ExperimentConfig(
        protocol=Protocol.BITCOIN_NG, n_nodes=10, target_blocks=6,
        target_key_blocks=2, block_rate=0.2, key_block_rate=0.05,
        block_size_bytes=4000, cooldown=10.0, seed=3,
    )
    sink = JsonlSink(tmp_path / "t.trace.jsonl")
    run_experiment(config, obs=Observability(tracer=Tracer(sink)))
    events = {r["ev"] for r in load_records(sink.path)}
    assert {"send", "deliver"} <= events
    assert "block_gen" in encoded
    assert "send" not in encoded and "deliver" not in encoded


def test_typed_fold_equals_the_record_fold():
    """``add_send`` / ``add_deliver`` over a run's sends and deliveries
    leave the summary ``add(ev, t, record)`` makes of the same records."""
    sink = MemorySink()
    config = ExperimentConfig(
        protocol=Protocol.BITCOIN_NG, n_nodes=10, target_blocks=6,
        target_key_blocks=2, block_rate=1.0, key_block_rate=0.05,
        block_size_bytes=40000, cooldown=10.0, seed=3,
    )
    run_experiment(config, obs=Observability(tracer=Tracer(sink)))
    records = sink.records
    assert any(r["ev"] == "send" and r["qd"] > 0 for r in records)
    typed, keyed = TraceSummary(), TraceSummary()
    for record in records:
        ev, t = record["ev"], record["t"]
        keyed.add(ev, t, record)
        if ev == "send":
            typed.add_send(
                t, record["src"], record["dst"], record["kind"],
                record["size"], record["qd"],
            )
        elif ev == "deliver":
            typed.add_deliver(t)
        else:
            typed.add(ev, t, record)
    assert typed.to_dict() == keyed.to_dict()
    assert typed.to_dict()["events"]["send"] > 0
    assert typed.queue_delay_count > 0


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
