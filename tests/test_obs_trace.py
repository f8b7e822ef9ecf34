"""The tracer and its sinks: schema-versioned JSONL records."""

import json

import pytest

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
