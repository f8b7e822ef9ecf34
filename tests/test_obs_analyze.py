"""Offline trace analysis: find, summarize, timeline, toptalkers."""

import dataclasses
import json

import pytest

from repro.obs.analyze import (
    TraceSummary,
    find_traces,
    format_summary,
    format_timeline,
    format_toptalkers,
    summarize,
)
from repro.obs.trace import SCHEMA_VERSION, TraceError


def _rec(ev, t, **fields):
    return {"v": SCHEMA_VERSION, "ev": ev, "t": t, **fields}


SAMPLE = [
    _rec("trace_start", 0.0, protocol="bitcoin-ng", seed=3),
    _rec("send", 1.0, src=0, dst=1, kind="inv", size=61, qd=0.0),
    _rec("send", 2.0, src=0, dst=1, kind="block", size=5000, qd=0.4),
    _rec("send", 9.0, src=2, dst=0, kind="block", size=7000, qd=1.2),
    _rec("block_gen", 2.0, hash="ab", kind="key", miner=0, size=200, n_tx=0),
    _rec("block_gen", 5.0, hash="cd", kind="micro", miner=0, size=5000, n_tx=20),
    _rec("tip_change", 5.5, node=1, tip="cd"),
    _rec("epoch_start", 2.0, leader=0, key_block="ab"),
    _rec("epoch_end", 8.0, leader=0, key_block="ab"),
    _rec("gossip_retry", 6.0, node=1, obj="cd", peer=2),
    _rec("obj_reject", 6.5, node=2, obj="ef", kind="block", sender=0),
    _rec("drop", 7.0, src=0, dst=2, kind="inv", size=61),
    _rec("sample_links", 4.0, busy=3, links=10, frac=0.3, queued_bytes=900.0),
    _rec("sample_mempool", 4.0, total=50, min=1, max=30, mean=16.7),
    _rec("sample_forks", 4.0, tips=2),
    _rec("trace_end", 100.0, records=16),
]


def test_summarize_aggregates_everything():
    s = summarize(SAMPLE)
    assert s.records == len(SAMPLE)
    assert s.meta == {"protocol": "bitcoin-ng", "seed": 3}
    # trace_start/trace_end timestamps are excluded from the span.
    assert s.t_min == 1.0
    assert s.t_max == 9.0
    assert s.events["send"] == 3
    assert s.sends_by_kind == {"inv": 1, "block": 2}
    assert s.bytes_by_kind == {"inv": 61, "block": 12000}
    assert s.total_bytes == 12061
    assert s.queue_delay_count == 2  # qd == 0 is not "delayed"
    assert s.queue_delay_mean == pytest.approx(0.8)
    assert s.queue_delay_max == 1.2
    assert s.blocks_by_kind == {"key": 1, "micro": 1}
    assert s.tip_changes == 1
    assert s.epochs_started == 1
    assert s.epochs_ended == 1
    assert s.gossip_retries == 1
    assert s.rejects == 1
    assert s.drops == 1
    assert s.peak_queued_bytes == 900.0
    assert s.peak_busy_fraction == 0.3
    assert s.peak_mempool == 30
    assert s.peak_tips == 2
    # Per-node rows, indexed by node id: booked toward a node counts as in.
    assert s.per_node == [
        {"bytes_out": 5061, "bytes_in": 7000, "messages_out": 2, "messages_in": 1},
        {"bytes_out": 0, "bytes_in": 5061, "messages_out": 0, "messages_in": 2},
        {"bytes_out": 7000, "bytes_in": 0, "messages_out": 1, "messages_in": 0},
    ]
    assert s.blocks_by_node == [2, 0, 0]


def test_summary_is_current_after_every_record_and_json_safe():
    s = TraceSummary()
    for seen, record in enumerate(SAMPLE, start=1):
        s.add(record["ev"], record["t"], record)
        assert s.records == seen
    assert (s.t_min, s.t_max) == (1.0, 9.0)
    assert s == summarize(SAMPLE)
    as_dict = s.to_dict()
    assert json.loads(json.dumps(as_dict)) == as_dict
    assert set(as_dict) == {f.name for f in dataclasses.fields(s)} | {
        "queue_delay_mean", "span_duration_mean", "span_micros_mean",
        "total_bytes",
    }
    assert as_dict["queue_delay_mean"] == pytest.approx(0.8)


def test_format_summary_mentions_the_headlines():
    text = format_summary(summarize(SAMPLE), name="demo")
    assert "== demo ==" in text
    assert "protocol=bitcoin-ng" in text
    assert "key=1, micro=1" in text
    assert "leader epochs:       1 started, 1 ended" in text
    assert "1 retries, 1 rejects, 1 drops" in text
    assert "total bytes sent:    12,061" in text


def test_summarize_empty_stream():
    s = summarize([])
    assert s.records == 0
    assert s.t_min == 0.0 and s.t_max == 0.0
    assert "epoch spans:" not in format_summary(s)


def test_epoch_spans_fold_key_block_to_handover():
    """A leader epoch (paper §4) runs from its key block through the
    leader's own microblocks to the next leader's key block."""
    s = summarize([
        _rec("trace_start", 0.0, n_nodes=4),
        _rec("epoch_start", 5.0, leader=1, key_block="ab12"),
        _rec("block_gen", 6.0, hash="m1", kind="micro", miner=1),
        _rec("block_gen", 7.0, hash="m2", kind="micro", miner=1),
        _rec("block_gen", 7.5, hash="m3", kind="micro", miner=3),  # not leading
        _rec("block_gen", 8.0, hash="cd34", kind="key", miner=2),
        _rec("epoch_end", 8.5, leader=1, key_block="ab12"),
        _rec("epoch_start", 8.5, leader=2, key_block="cd34"),
        _rec("block_gen", 9.0, hash="m4", kind="micro", miner=2),
        # Re-elected without observing its loss: the stale span closes
        # where the new one opens.
        _rec("epoch_start", 11.0, leader=2, key_block="ef56"),
        _rec("epoch_start", 12.0, leader=3, key_block="0a0b"),
        _rec("trace_end", 20.0, records=12),
    ])
    assert (s.epoch_spans, s.epoch_spans_closed) == (4, 2)
    assert s.span_duration_sum == pytest.approx(3.5 + 2.5)
    assert s.span_micros_sum == 2 + 1
    # ef56 and 0a0b never closed: reported open, outside the means.
    assert (
        "epoch spans:         4, mean 3.0 s, mean 1.5 microblocks, "
        "2 open at run end"
    ) in format_summary(s).splitlines()


def test_timeline_buckets_activity():
    text = format_timeline(SAMPLE, buckets=4, width=10)
    lines = text.splitlines()
    assert len(lines) == 5  # header + 4 buckets
    # Span is 1.0..9.0 s; the two early sends land in bucket 0, the
    # late 7000-byte send in the last bucket, which owns the peak bar.
    assert lines[1].split()[1] == "2"
    assert lines[-1].rstrip().endswith("#" * 10)


def test_timeline_with_no_events():
    assert format_timeline([_rec("trace_start", 0.0)]) == "(empty trace)"


def test_timeline_rejects_zero_buckets():
    with pytest.raises(ValueError):
        format_timeline(SAMPLE, buckets=0)


def test_toptalkers_ranks_by_bytes_out():
    text = format_toptalkers(summarize(SAMPLE), top=2)
    lines = text.splitlines()
    # Node 2 sent 7000 bytes, node 0 sent 5061: ranked in that order.
    assert lines[1].split()[0] == "2"
    assert lines[2].split()[0] == "0"
    assert lines[2].split()[3] == "2"  # node 0 generated both blocks


def test_toptalkers_without_traffic():
    quiet = summarize([_rec("trace_start", 0.0, n_nodes=3)])
    assert len(quiet.per_node) == 3  # a row per node, none with traffic
    assert format_toptalkers(quiet) == "(no traffic recorded)"


def test_find_traces_on_a_file_and_a_directory(tmp_path):
    a = tmp_path / "b.trace.jsonl"
    b = tmp_path / "a.trace.jsonl"
    a.write_text("")
    b.write_text("")
    (tmp_path / "notes.txt").write_text("ignored")
    assert find_traces(a) == [a]
    assert find_traces(tmp_path) == [b, a]  # sorted


def test_find_traces_errors(tmp_path):
    with pytest.raises(TraceError, match="no .trace.jsonl files"):
        find_traces(tmp_path)
    with pytest.raises(TraceError, match="no such file"):
        find_traces(tmp_path / "missing")


FAULT_SAMPLE = SAMPLE[:-1] + [
    _rec("node_crash", 3.0, node=4, down_for=10.0),
    _rec("node_restart", 13.0, node=4),
    _rec("partition", 4.0, groups=2, cut=12),
    _rec("heal", 6.0, restored=12),
    _rec("link_degrade", 7.0, links=40, latency_mult=2.0, bandwidth_mult=0.5),
    _rec("link_restore", 8.0, links=40),
    _rec("msg_loss", 8.5, rate=0.05),
    _rec("trace_end", 100.0, records=23),
]


def test_summarize_counts_fault_events():
    s = summarize(FAULT_SAMPLE)
    assert s.faults == {
        "node_crash": 1,
        "node_restart": 1,
        "partition": 1,
        "heal": 1,
        "link_degrade": 1,
        "link_restore": 1,
        "msg_loss": 1,
    }
    text = format_summary(s)
    assert "faults injected:" in text
    assert "node_crash=1" in text


def test_summary_without_faults_omits_the_line():
    assert "faults injected:" not in format_summary(summarize(SAMPLE))


def test_timeline_fault_column_only_when_present():
    bare = format_timeline(SAMPLE, buckets=4)
    assert "faults" not in bare.splitlines()[0]
    faulty = format_timeline(FAULT_SAMPLE, buckets=4)
    header = faulty.splitlines()[0]
    assert "faults" in header
    # Fault events at t=3..13 land in the early buckets.
    total_faults = sum(
        int(line.split()[5]) for line in faulty.splitlines()[1:]
    )
    assert total_faults == 7
