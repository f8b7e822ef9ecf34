"""Observability wired through a whole experiment, serial and pooled."""

import json

import pytest

from repro.experiments import ExperimentConfig, Protocol, run_experiment
from repro.experiments.parallel import run_many
from repro.obs import (
    NULL_OBS,
    Observability,
    config_slug,
    format_summary,
    load_records,
    summarize,
)
from repro.obs.trace import CHUNK, JsonlSink, MemorySink, Tracer
from repro.prof.runtime import ProfilerRuntime

SMALL = ExperimentConfig(
    n_nodes=12,
    target_blocks=8,
    target_key_blocks=4,
    block_rate=0.1,
    block_size_bytes=4000,
    cooldown=15.0,
    seed=5,
)


def _run_traced(config):
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    result, log = run_experiment(config, obs=obs)
    return result, log, sink.records


def test_ng_run_emits_the_full_vocabulary(check_trace_metrics):
    result, log, records = _run_traced(SMALL.with_(protocol=Protocol.BITCOIN_NG))
    events = {r["ev"] for r in records}
    assert {
        "trace_start", "send", "deliver", "block_gen", "block_arrival",
        "tip_change", "epoch_start", "sample_links", "sample_mempool",
        "sample_forks", "trace_end",
    } <= events
    start = records[0]
    assert start["ev"] == "trace_start"
    assert start["protocol"] == "bitcoin-ng"
    assert start["seed"] == 5
    end = records[-1]
    assert end["ev"] == "trace_end"
    assert end["records"] == len(records)
    kinds = {r["kind"] for r in records if r["ev"] == "block_gen"}
    assert kinds == {"key", "micro"}
    assert result.obs is not None
    check_trace_metrics(records, result, log)


def test_bitcoin_run_traces_blocks_and_tips(check_trace_metrics):
    result, log, records = _run_traced(SMALL.with_(protocol=Protocol.BITCOIN))
    gens = [r for r in records if r["ev"] == "block_gen"]
    assert len(gens) == len(log.index)
    assert all(r["kind"] == "block" for r in gens)
    assert any(r["ev"] == "tip_change" for r in records)
    check_trace_metrics(records, result, log)


def test_snapshot_carries_metrics_traffic_and_samples():
    result, _, _ = _run_traced(SMALL.with_(protocol=Protocol.BITCOIN))
    snapshot = result.obs
    assert snapshot["snapshot_version"] == 3
    metrics = snapshot["metrics"]
    assert set(metrics["sends_by_kind"]) == {"inv", "getdata", "object"}
    assert metrics["blocks_by_kind"] == {"block": result.blocks_generated}
    assert metrics["events"]["trace_end"] == 1
    assert metrics["records"] == snapshot["trace_records"]
    assert "trace_path" not in snapshot  # a sink, but no output directory
    assert all(n > 0 for n in snapshot["samples_taken"].values())
    traffic = snapshot["traffic"]
    per_node = traffic["per_node"]
    assert len(per_node) == SMALL.n_nodes
    assert sum(n["bytes_out"] for n in per_node) == traffic["total_bytes_sent"]
    assert sum(n["bytes_in"] for n in per_node) == traffic["total_bytes_sent"]
    assert traffic["total_bytes_sent"] == metrics["total_bytes"]


PIN_SCENARIO = {
    "version": 1,
    "name": "pin",
    "faults": [
        {"at": 20.0, "kind": "partition", "split": "halves"},
        {"at": 50.0, "kind": "heal"},
        {"at": 55.0, "kind": "loss", "rate": 0.05},
    ],
}


def test_summary_reports_the_numbers_the_registry_and_link_counters_did():
    """Literals of one lossy run, as ints: what the metric registry and
    per-link counters of snapshot v1 reported is what the fold reports.

    Re-drawn when relay stopped announcing to known announcers: the
    fault RNG draws once per send, so with fewer invs sent the 5% loss
    window drops *different* messages and the run after t=55 is another
    sample of the same scenario (inv 2866 -> 2543, drops 202 -> 197,
    micro 32 -> 42, tip changes 354 -> 369).  The same config without
    the loss fault sends 2878 -> 1993 invs and is otherwise identical.
    """
    config = SMALL.with_(protocol=Protocol.BITCOIN_NG, scenario=PIN_SCENARIO)
    snapshot = _run_traced(config)[0].obs
    metrics = snapshot["metrics"]
    assert metrics["sends_by_kind"] == {"getdata": 520, "inv": 2543, "object": 502}
    assert metrics["bytes_by_kind"] == {
        "getdata": 31720, "inv": 155123, "object": 1813436,
    }
    assert metrics["drops"] == 197
    assert metrics["blocks_by_kind"] == {"key": 4, "micro": 42}
    assert metrics["tip_changes"] == 369
    assert metrics["epochs_started"] == 4
    keys = ("bytes_out", "bytes_in", "messages_out", "messages_in")
    assert snapshot["traffic"] == {
        "total_bytes_sent": 2000279,
        "per_node": [
            dict(zip(keys, row))
            for row in (
                (25252, 175951, 223, 268),
                (9699, 182762, 159, 316),
                (57849, 174957, 173, 317),
                (13725, 187154, 225, 388),
                (759396, 72657, 472, 295),
                (24785, 179102, 279, 256),
                (129959, 174914, 335, 251),
                (14558, 179184, 175, 321),
                (627353, 129521, 514, 274),
                (19926, 182823, 263, 317),
                (114133, 178004, 278, 238),
                (203644, 183250, 469, 324),
            )
        ],
    }


LIVE_RUNS = [
    pytest.param(protocol, extra, profiled, id=f"{protocol.value}-{label}")
    for label, extra, profiled, protocols in (
        ("plain", {}, False, tuple(Protocol)),
        ("audit", {"check": True, "check_mode": "audit"}, False, tuple(Protocol)),
        ("faults", {"scenario": PIN_SCENARIO, "check": True}, False, tuple(Protocol)),
        ("profiled", {"check": True}, True, (Protocol.BITCOIN_NG,)),
    )
    for protocol in protocols
]


@pytest.mark.parametrize("protocol, extra, profiled", LIVE_RUNS)
def test_live_snapshot_is_the_offline_summary(
    tmp_path, protocol, extra, profiled, check_trace_metrics
):
    """One fold: what the run reports is what ``repro trace summarize``
    makes of the file it wrote, and the six metrics are what the file's
    block rows give."""
    config = SMALL.with_(protocol=protocol, obs_dir=str(tmp_path), **extra)
    profiler = ProfilerRuntime() if profiled else None
    result, log = run_experiment(config, profiler=profiler)
    slug = config_slug(config)
    records = load_records(tmp_path / f"{slug}.trace.jsonl")
    offline = summarize(records)
    assert result.obs["metrics"] == offline.to_dict()
    assert result.obs["traffic"]["per_node"] == offline.per_node
    assert result.obs["trace_records"] == len(records) == offline.records
    on_disk = json.loads((tmp_path / f"{slug}.metrics.json").read_text())
    assert on_disk == result.obs
    check_trace_metrics(records, result, log)
    if protocol is Protocol.BITCOIN_NG:
        # Every NG trace carries its leader epochs, profiled or not.
        metrics = result.obs["metrics"]
        assert metrics["epoch_spans"] == metrics["epochs_started"] > 0
        assert 0 < metrics["epoch_spans_closed"] <= metrics["epoch_spans"]
        assert metrics["span_duration_sum"] > 0
        assert 0 < metrics["span_micros_sum"] <= metrics["blocks_by_kind"]["micro"]
    if "scenario" in extra:
        assert offline.drops > 0 and offline.faults


def test_sinkless_observability_folds_everything_and_writes_nothing():
    obs = Observability()
    result, _ = run_experiment(SMALL.with_(protocol=Protocol.BITCOIN_NG), obs=obs)
    _, _, records = _run_traced(SMALL.with_(protocol=Protocol.BITCOIN_NG))
    assert obs.tracer.records_written == 0
    assert "trace_records" not in result.obs
    assert "trace_path" not in result.obs
    assert result.obs["metrics"] == summarize(records).to_dict()


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_profiled_obs_trace_is_the_unprofiled_trace(tmp_path, protocol):
    """The profiler times a run and writes nothing into its trace."""
    config = SMALL.with_(protocol=protocol)
    traces = []
    for profiler in (None, ProfilerRuntime()):
        out = tmp_path / str(len(traces))
        run_experiment(config.with_(obs_dir=str(out)), profiler=profiler)
        traces.append((out / f"{config_slug(config)}.trace.jsonl").read_bytes())
    assert traces[0] == traces[1]


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_profiled_run_without_obs_keeps_every_tracer_off(monkeypatch, protocol):
    """What ``prof run`` times is what ``repro run`` runs: no tracer
    anywhere, so every node's emit guard stays false."""
    from repro.experiments import runner
    from repro.protocols import get_adapter

    adapter_class = type(get_adapter(protocol))
    build_network, build_nodes = runner.build_network, adapter_class.build_nodes
    built = {}

    def spy_network(*args, **kwargs):
        built["network"] = build_network(*args, **kwargs)
        return built["network"]

    def spy_nodes(self, *args):
        built["nodes"], scheduler = build_nodes(self, *args)
        return built["nodes"], scheduler

    monkeypatch.setattr(runner, "build_network", spy_network)
    monkeypatch.setattr(adapter_class, "build_nodes", spy_nodes)
    run_experiment(SMALL.with_(protocol=protocol), profiler=ProfilerRuntime())
    assert built["network"].obs is NULL_OBS
    assert built["network"].tracer is None
    assert built["nodes"] and all(node._tracer is None for node in built["nodes"])
    assert built["nodes"][0].log.tracer is None


def test_obs_results_match_bare_results():
    """Instrumentation must not perturb the simulation itself."""
    config = SMALL.with_(protocol=Protocol.BITCOIN_NG)
    bare, _ = run_experiment(config)
    traced, _, _ = _run_traced(config)
    assert traced.as_row() == bare.as_row()
    assert traced.blocks_generated == bare.blocks_generated
    assert traced.main_chain_length == bare.main_chain_length
    # Sampler firings are extra simulator events, so the raw event
    # counter is the one number allowed to differ — and it must grow.
    assert traced.events_processed > bare.events_processed


def test_from_config_writes_trace_and_metrics_files(tmp_path):
    config = SMALL.with_(
        protocol=Protocol.BITCOIN_NG, obs_dir=str(tmp_path)
    )
    result, _ = run_experiment(config)
    slug = config_slug(config)
    trace_path = tmp_path / f"{slug}.trace.jsonl"
    metrics_path = tmp_path / f"{slug}.metrics.json"
    assert trace_path.exists()
    assert metrics_path.exists()
    records = load_records(trace_path)
    assert records[0]["ev"] == "trace_start"
    assert records[-1]["ev"] == "trace_end"
    assert records[-1]["records"] == len(records)
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["slug"] == slug
    assert snapshot == result.obs
    assert result.obs["trace_path"] == str(trace_path)
    assert result.obs["trace_records"] == len(records)


def test_disabled_config_produces_no_snapshot():
    result, _ = run_experiment(SMALL.with_(protocol=Protocol.BITCOIN))
    assert result.obs is None


def test_obs_round_trips_through_the_process_pool(tmp_path):
    configs = [
        SMALL.with_(protocol=protocol, seed=seed, obs_dir=str(tmp_path))
        for protocol in (Protocol.BITCOIN, Protocol.BITCOIN_NG)
        for seed in (0, 1)
    ]
    results = run_many(configs, jobs=2)
    for config, result in zip(configs, results):
        slug = config_slug(config)
        assert (tmp_path / f"{slug}.trace.jsonl").exists()
        assert (tmp_path / f"{slug}.metrics.json").exists()
        assert result.obs is not None
        assert result.obs["slug"] == slug


def test_pooled_obs_results_equal_serial_obs_results(tmp_path):
    configs = [
        SMALL.with_(
            protocol=Protocol.BITCOIN_NG,
            seed=seed,
            obs_dir=str(tmp_path / "pooled"),
        )
        for seed in (0, 1, 2)
    ]
    serial = run_many(configs, jobs=1)
    pooled = run_many(configs, jobs=3)
    # Frozen-dataclass equality covers every metric; the obs snapshot
    # is compare=False so wall-clock noise cannot break this.
    assert pooled == serial
    assert [r.obs["metrics"] for r in pooled] == [
        r.obs["metrics"] for r in serial
    ]


def test_slug_distinguishes_sweep_axes():
    slugs = {
        config_slug(SMALL.with_(protocol=Protocol.BITCOIN)),
        config_slug(SMALL.with_(protocol=Protocol.BITCOIN_NG)),
        config_slug(SMALL.with_(protocol=Protocol.BITCOIN, seed=6)),
        config_slug(SMALL.with_(protocol=Protocol.BITCOIN, block_rate=0.2)),
        config_slug(
            SMALL.with_(protocol=Protocol.BITCOIN, block_size_bytes=8000)
        ),
    }
    assert len(slugs) == 5


class _Boom(Exception):
    pass


def test_a_run_that_raises_keeps_every_record_it_emitted(
    tmp_path, monkeypatch, count_calls
):
    """A callback raises halfway through: the same exception comes out
    of ``run_experiment``, and the file holds every record the tracer
    was handed — none pending, no ``trace_end`` — so ``summarize``
    reports it truncated."""
    boom = _Boom("halfway")
    config = SMALL.with_(protocol=Protocol.BITCOIN_NG)
    install = Observability.install

    def install_and_arm(self, sim, network, nodes, horizon, meta=None):
        install(self, sim, network, nodes, horizon, meta)

        def explode():
            raise boom

        sim.schedule(horizon / 2, explode)

    monkeypatch.setattr(Observability, "install", install_and_arm)
    handed = [
        count_calls(Tracer, name)
        for name in ("emit", "send", "deliver", "block_arrival", "tip_change", "drop")
    ]
    path = tmp_path / "t.trace.jsonl"
    with pytest.raises(_Boom) as raised:
        run_experiment(config, obs=Observability(tracer=Tracer(JsonlSink(path))))
    assert raised.value is boom
    records = load_records(path)
    emitted = sum(map(len, handed))
    assert len(records) == emitted
    assert emitted > CHUNK and emitted % CHUNK  # rows were pending
    assert "trace_end" not in {r["ev"] for r in records}
    assert "truncated:" in format_summary(summarize(records))
