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
from repro.obs.analyze import iter_records, load_records
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


def test_sinkless_tracer_feeds_the_tap_and_writes_nothing():
    seen = []
    tracer = Tracer(None, lambda ev, t, fields: seen.append((ev, t, fields)))
    tracer.emit("block_gen", 2.0, miner=1)
    assert seen == [("block_gen", 2.0, {"miner": 1})]
    assert tracer.records_written == 0
    tracer.close()


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


SEND_KEYS = ("v", "ev", "t", "src", "dst", "kind", "size", "qd", "arr")
ROUND_TRIP_SEND = {
    "v": 1, "ev": "send", "t": 1.0, "src": 0, "dst": 1, "kind": "inv", "size": 61,
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
# What the network emits, and what else each field could hold.
FIELDS = {
    "v": (st.just(1), ODD_INTS),
    "t": (st.floats(0.0, 1e4), ODD_FLOATS),
    "src": (st.integers(0, 999), ODD_INTS),
    "dst": (st.integers(0, 999), ODD_INTS),
    "kind": (st.sampled_from(["inv", "getdata", "object", "gettip"]), ODD_KINDS),
    "size": (st.integers(0, 10**6), ODD_INTS),
    "qd": (st.floats(0.0, 100.0), ODD_FLOATS),
    "arr": (st.floats(0.0, 1e4), ODD_FLOATS),
}


@st.composite
def hot_records(draw):
    """``send``/``deliver`` records as the network emits them, most bent
    one way a template can get wrong: one odd value, or a missing, extra
    or moved key."""
    ev = draw(st.sampled_from(["send", "deliver", "drop"]))
    keys = list(SEND_KEYS if ev == "send" else SEND_KEYS[:7])
    values = {key: draw(FIELDS[key][0]) for key in keys if key != "ev"}
    values["ev"] = ev
    bend = draw(st.sampled_from(["none", "value", "value", "missing", "extra", "moved"]))
    if bend == "value":
        key = draw(st.sampled_from(sorted(values.keys() - {"ev"})))
        values[key] = draw(FIELDS[key][1])
    elif bend == "missing":
        keys.remove(draw(st.sampled_from(keys)))
    elif bend == "extra":
        keys.insert(draw(st.integers(0, len(keys))), "x")
        values["x"] = draw(st.integers(0, 9))
    elif bend == "moved":
        keys = draw(st.permutations(keys))
    return {key: values[key] for key in keys}


@settings(max_examples=300, deadline=None)
@given(st.lists(hot_records(), min_size=1, max_size=8))
@example([ROUND_TRIP_SEND])
def test_sink_lines_are_json_dumps_lines(records):
    with tempfile.TemporaryDirectory() as scratch:
        sink = JsonlSink(Path(scratch) / "t.trace.jsonl")
        for record in records:
            sink.write(record)
        sink.close()
        written = sink.path.read_text(encoding="utf-8")
    assert written == "".join(
        json.dumps(record, separators=(",", ":")) + "\n" for record in records
    )


def test_every_single_odd_value_writes_json_dumps_bytes(tmp_path):
    """The template's boundary, field by field: each odd value in turn
    in an otherwise ordinary ``send`` and ``deliver``."""
    odd = {
        int: [True, False, 2**64 + 1, -(2**70)],
        float: [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324, 3],
        str: ['q"uote', "back\\slash", "naïve", "\x7f", "tab\t", "\U0001f600"],
    }
    send = {**ROUND_TRIP_SEND, "t": 0.25, "qd": 0.5, "arr": 2.75}
    deliver = {**ROUND_TRIP_SEND, "ev": "deliver"}
    records = [send, deliver]
    for base in (send, deliver):
        for key, value in base.items():
            if key != "ev":
                records += [{**base, key: bent} for bent in odd[type(value)]]
    sink = JsonlSink(tmp_path / "t.trace.jsonl")
    for record in records:
        sink.write(record)
    sink.close()
    lines = sink.path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == len(records) == 74
    for record, line in zip(records, lines):
        assert line == json.dumps(record, separators=(",", ":")) + "\n"


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
