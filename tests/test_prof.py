"""The deterministic profiler: schema, spans, reports, diffs, CLI.

Determinism of profiled runs (bit-identical to bare runs) is pinned in
``tests/test_determinism.py``; this module covers the artifacts — the
``.prof.json`` schema round-trip, folded-stack export, epoch span
tracking, and the golden report/diff formats the ``repro prof`` family
renders.
"""

import json

import pytest

from repro.cli import main
from repro.prof import (
    PROFILE_VERSION,
    EpochSpan,
    PhaseStat,
    Profile,
    ProfileError,
    ProfilerRuntime,
    load_profile,
    profile_experiment,
    to_folded,
)
from repro.prof.report import compare_profiles, format_diff, format_report


def _sample_profile() -> Profile:
    """A hand-built profile with stable numbers for golden assertions."""
    return Profile(
        meta={"slug": "ng-n60-s0", "protocol": "bitcoin-ng", "seed": 0},
        wall_setup_seconds=0.25,
        wall_simulate_seconds=2.0,
        loop_wall_seconds=1.9,
        events_processed=10_000,
        phases={
            "deliver:inv:micro": PhaseStat(calls=6_000, seconds=1.2),
            "mining:block": PhaseStat(calls=40, seconds=0.3),
            "heappop": PhaseStat(calls=10_000, seconds=0.15),
            "sanitize": PhaseStat(calls=150, seconds=0.2),
            "dispatch": PhaseStat(calls=10_000, seconds=0.05),
        },
        checkers={
            "INV104": PhaseStat(calls=150, seconds=0.15),
            "INV101": PhaseStat(calls=150, seconds=0.02),
        },
        nodes=[[100, 0.01], [9_000, 1.4], [0, 0.0]],
        spans=[
            EpochSpan(leader=1, key_block="ab12", start=5.0, end=25.0, micros=40),
            EpochSpan(
                leader=2,
                key_block="cd34",
                start=25.0,
                end=30.0,
                micros=8,
                closed=False,
            ),
        ],
    )


# -- schema round-trip ------------------------------------------------------


def test_profile_round_trip(tmp_path):
    profile = _sample_profile()
    path = profile.save(tmp_path / "run.prof.json")
    loaded = load_profile(path)
    assert loaded.meta == profile.meta
    assert loaded.events_processed == profile.events_processed
    assert loaded.phases.keys() == profile.phases.keys()
    for name, stat in profile.phases.items():
        assert loaded.phases[name].calls == stat.calls
        assert loaded.phases[name].seconds == pytest.approx(stat.seconds)
    assert loaded.checkers.keys() == profile.checkers.keys()
    assert loaded.nodes == [[100, 0.01], [9_000, 1.4], [0, 0.0]]
    assert [s.to_dict() for s in loaded.spans] == [
        s.to_dict() for s in profile.spans
    ]
    assert loaded.attributed_seconds == pytest.approx(
        profile.attributed_seconds
    )


def test_profile_json_is_schema_versioned(tmp_path):
    path = _sample_profile().save(tmp_path / "run.prof.json")
    data = json.loads(path.read_text())
    assert data["profile_version"] == PROFILE_VERSION
    assert data["coverage"] == pytest.approx(0.95)
    assert data["attributed_seconds"] == pytest.approx(1.9)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.prof.json"
    path.write_text(json.dumps({"profile_version": 999}))
    with pytest.raises(ProfileError, match="unsupported profile version"):
        load_profile(path)


def test_load_rejects_garbage(tmp_path):
    missing = tmp_path / "nope.prof.json"
    with pytest.raises(ProfileError, match="cannot read"):
        load_profile(missing)
    bad = tmp_path / "bad.prof.json"
    bad.write_text("not json {")
    with pytest.raises(ProfileError, match="not valid JSON"):
        load_profile(bad)


def test_coverage_and_top_rankings():
    profile = _sample_profile()
    assert profile.coverage == pytest.approx(0.95)
    assert [name for name, _ in profile.top_phases(2)] == [
        "deliver:inv:micro",
        "mining:block",
    ]
    # Node 2 never handled an event, so it is not ranked.
    assert [node for node, _, _ in profile.top_nodes()] == [1, 0]


# -- folded-stack export ----------------------------------------------------


def test_folded_export():
    folded = to_folded(_sample_profile())
    lines = folded.strip().split("\n")
    assert "setup 250000" in lines
    assert "simulate;deliver:inv:micro 1200000" in lines
    assert "simulate;heappop 150000" in lines
    # Sanitize splits per checker plus the sweep-machinery remainder.
    assert "simulate;sanitize;INV104 150000" in lines
    assert "simulate;sanitize;INV101 20000" in lines
    assert "simulate;sanitize;(sweep) 30000" in lines
    assert not any(line.startswith("simulate;sanitize ") for line in lines)
    # Every line is "frames count" with integer microseconds.
    for line in lines:
        frames, count = line.rsplit(" ", 1)
        assert frames
        assert int(count) > 0
    assert folded.endswith("\n")


def test_folded_skips_zero_phases():
    profile = Profile(
        wall_simulate_seconds=1.0,
        phases={"dispatch": PhaseStat(calls=5, seconds=0.0)},
    )
    assert to_folded(profile) == ""


# -- epoch span tracking ----------------------------------------------------


def test_span_lifecycle_via_tap_tracer():
    from repro.obs import Observability
    from repro.obs.trace import MemorySink, Tracer

    runtime = ProfilerRuntime()
    sink = MemorySink()
    obs = runtime.wrap_observability(Observability(tracer=Tracer(sink)))
    tap = obs.tracer
    tap.emit("epoch_start", 5.0, leader=1, key_block="ab12")
    tap.emit("block_gen", 6.0, kind="micro", miner=1, hash="m1")
    tap.emit("block_gen", 7.0, kind="micro", miner=1, hash="m2")
    tap.emit("block_gen", 7.5, kind="micro", miner=9, hash="m3")  # not leader
    tap.emit("block_gen", 8.0, kind="key", miner=2, hash="cd34")
    tap.emit("epoch_end", 8.5, leader=1, key_block="ab12")
    tap.emit("epoch_start", 8.5, leader=2, key_block="cd34")

    assert len(runtime.spans) == 1
    span = runtime.spans[0]
    assert (span.leader, span.key_block, span.micros) == (1, "ab12", 2)
    assert span.start == 5.0 and span.end == 8.5 and span.closed

    # Closing emitted a prof_span record into the sink — ahead of the
    # epoch_end that closed it, since the tap runs before the write; the
    # originals are all there too (a tap sees records, it does not filter).
    events = [record["ev"] for record in sink.records]
    assert events.count("prof_span") == 1
    assert events.index("prof_span") == events.index("epoch_end") - 1
    assert sink.records[events.index("prof_span")] == {
        "v": 1,
        "ev": "prof_span",
        "t": 8.5,
        "leader": 1,
        "key_block": "ab12",
        "start": 5.0,
        "micros": 2,
        "closed": True,
    }
    assert events.count("epoch_start") == 2
    assert tap.records_written == len(sink.records) == 8
    # The summary folds what the file holds, in the file's order: the
    # span once, ahead of its epoch_end.
    assert obs.summary.records == 8
    assert obs.summary.prof_spans == obs.summary.prof_spans_closed == 1
    assert list(obs.summary.events) == [
        "epoch_start", "block_gen", "prof_span", "epoch_end",
    ]

    # The still-open epoch closes unclosed at profile build time.
    profile = runtime.build_profile({}, 0.0, 1.0, 0, end_time=12.0)
    assert len(profile.spans) == 2
    assert profile.spans[1].leader == 2
    assert profile.spans[1].end == 12.0
    assert not profile.spans[1].closed


def test_reelected_leader_closes_stale_span():
    from repro.obs.trace import Tracer

    runtime = ProfilerRuntime()
    tap = Tracer(None, runtime.observe_trace)
    tap.emit("epoch_start", 1.0, leader=3, key_block="aa")
    tap.emit("epoch_start", 4.0, leader=3, key_block="bb")
    assert len(runtime.spans) == 1
    assert runtime.spans[0].key_block == "aa"
    assert runtime.spans[0].end == 4.0
    assert runtime.spans[0].closed
    # No sink: the tap is all there is, and nothing was written anywhere.
    assert tap.records_written == 0
    tap.close()


def test_null_obs_tapped_stays_disabled():
    from repro.obs.facade import NULL_OBS

    seen = []
    tapped = NULL_OBS.tapped(lambda ev, t, fields: seen.append((ev, t, fields)))
    assert tapped.enabled is False
    tapped.tracer.emit("epoch_start", 2.0, leader=4)
    assert seen == [("epoch_start", 2.0, {"leader": 4})]
    assert tapped.tracer.records_written == 0
    assert tapped.finalize() is None
    # The singleton itself is untouched.
    assert tapped is not NULL_OBS
    assert NULL_OBS.tracer is None


def test_dispatch_phase_absorbs_loop_residual():
    runtime = ProfilerRuntime()
    runtime._loop_wall = 1.0
    runtime._pop_calls = 10
    runtime._pop_seconds = 0.2
    runtime._phases["mining:block"] = [3, 0.5]
    profile = runtime.build_profile({"slug": "x"}, 0.1, 1.2, 10)
    assert profile.phases["dispatch"].seconds == pytest.approx(0.3)
    assert profile.attributed_seconds == pytest.approx(1.0)
    assert "sanitize" not in profile.phases  # no probe ran


# -- report and diff golden output ------------------------------------------


def test_report_golden():
    report = format_report(_sample_profile())
    lines = report.split("\n")
    assert lines[0] == "== profile: ng-n60-s0 =="
    assert "run:                 protocol=bitcoin-ng, seed=0" in report
    assert "events processed:    10,000" in report
    assert "wall simulate:       2.000 s" in report
    assert "attributed:          1.900 s (95.0% of simulate wall)" in report
    assert "deliver:inv:micro                   1.200   60.0%       6,000     200.0" in report
    assert "INV104                              0.150    7.5%         150" in report
    assert "(sweep machinery)                   0.030    1.5%" in report
    assert "node 1                              1.400   70.0%       9,000" in report
    assert (
        "epochs:              2 spans, mean 20.0 s, "
        "mean 40.0 microblocks (1 open at run end)" in report
    )


def test_report_truncates_phase_table():
    profile = _sample_profile()
    report = format_report(profile, top=2)
    assert "(3 more phases totalling 0.400 s)" in report


def test_diff_flags_regressions():
    base = _sample_profile()
    cand = _sample_profile()
    cand.phases["deliver:inv:micro"] = PhaseStat(calls=6_000, seconds=1.8)
    cand.phases["other:new_handler"] = PhaseStat(calls=5, seconds=0.5)
    rows = compare_profiles(base, cand)
    by_phase = {row["phase"]: row for row in rows}
    assert by_phase["deliver:inv:micro"]["regression"]
    assert by_phase["deliver:inv:micro"]["delta"] == pytest.approx(0.6)
    assert by_phase["other:new_handler"]["regression"]
    assert by_phase["other:new_handler"]["ratio"] == float("inf")
    assert not by_phase["heappop"]["regression"]

    text = format_diff(base, cand, label_a="base", label_b="cand")
    assert "== profile diff ==" in text
    assert "A: base" in text
    assert "deliver:inv:micro                   1.200      1.800     +0.600    1.50x  ***" in text
    assert "other:new_handler                   0.000      0.500     +0.500      new  ***" in text
    assert "flagged 2 regressions (>= +25% and >= +0.010 s)" in text


def test_diff_absolute_floor_mutes_noise():
    base = _sample_profile()
    cand = _sample_profile()
    # 2x relative, but only 2 ms absolute: under the 10 ms floor.
    base.phases["gossip:timeout"] = PhaseStat(calls=10, seconds=0.002)
    cand.phases["gossip:timeout"] = PhaseStat(calls=10, seconds=0.004)
    rows = compare_profiles(base, cand)
    row = next(r for r in rows if r["phase"] == "gossip:timeout")
    assert not row["regression"]


# -- profiled experiment end to end -----------------------------------------


def _small_config(**overrides):
    from repro.experiments import ExperimentConfig

    base = dict(
        protocol="bitcoin-ng",
        n_nodes=12,
        target_blocks=12,
        target_key_blocks=4,
        block_rate=0.2,
        block_size_bytes=4_000,
        cooldown=15.0,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_profile_experiment_attributes_phases():
    result, _log, profile = profile_experiment(_small_config())
    assert profile.events_processed == result.events_processed
    assert profile.phases["heappop"].calls == result.events_processed
    # Phase sums exactly equal the loop wall by construction.
    assert profile.attributed_seconds == pytest.approx(
        profile.loop_wall_seconds
    )
    assert 0.5 < profile.coverage <= 1.0
    assert any(name.startswith("deliver:") for name in profile.phases)
    assert "mining:block" in profile.phases
    assert profile.spans, "an NG run must produce epoch spans"
    # Per-node attribution covers the handler work.
    assert sum(calls for calls, _ in profile.nodes) > 0


def test_profiler_accounting_on_the_dispatch_seam():
    """Phases sum to the loop wall; one pop and one dispatch per event;
    a cancelled event's pop is nobody's phase, so it is ``dispatch``'s."""
    from repro.net.simulator import Simulator

    sim = Simulator()
    runtime = ProfilerRuntime()
    runtime.install(sim, 0)

    def work():
        sum(range(200))

    for index in range(50):
        sim.schedule(index, work)
        sim.schedule(index + 0.5, work).cancel()
    sim.run(max_events=20)
    sim.run()
    assert sim.events_processed == 50
    profile = runtime.build_profile({}, 0.0, 1.0, sim.events_processed)
    assert profile.phases["heappop"].calls == 50  # not the 100 pops made
    assert profile.phases["dispatch"].calls == 50
    assert profile.phases["other:" + work.__qualname__].calls == 50
    assert "sanitize" not in profile.phases
    assert profile.phases["dispatch"].seconds > 0
    assert profile.attributed_seconds == pytest.approx(
        profile.loop_wall_seconds
    )


def test_loop_wall_covers_the_cancelled_pops_a_drained_queue_ends_on(monkeypatch):
    """Request timers cancelled on receipt are what a drained queue ends
    on; their pops follow the last probe and are loop wall all the same
    (a clock that ticks once per read makes the wall countable)."""
    import itertools

    import repro.prof.runtime as runtime_mod
    from repro.net.simulator import Simulator

    ticks = itertools.count(1)
    monkeypatch.setattr(runtime_mod, "wall_clock", lambda: float(next(ticks)))
    sim = Simulator()
    runtime = ProfilerRuntime()
    runtime.install(sim, 0)
    sim.schedule(1.0, lambda: None)
    for delay in (2.0, 3.0, 4.0):
        sim.schedule(delay, lambda: None).cancel()
    sim.run()
    profile = runtime.build_profile({}, 0.0, 1.0, sim.events_processed)
    # Reads 1 (loop start) to 11 (the last cancelled pop's end).
    assert profile.loop_wall_seconds == 10.0
    assert profile.phases["heappop"].calls == 1
    assert profile.attributed_seconds == pytest.approx(10.0)


def test_profiler_times_a_sanitizer_attached_first():
    from repro.net.simulator import Simulator
    from repro.sanitizer import SanitizerRuntime

    sim = Simulator()
    sanitizer = SanitizerRuntime((), stride=4)
    sanitizer.install(sim, [])
    runtime = ProfilerRuntime()
    runtime.install(sim, 0)
    for index in range(30):
        sim.schedule(index, lambda: None)
    sim.schedule(3.5, lambda: None).cancel()
    sim.run()
    sanitizer.finalize()
    profile = runtime.build_profile({}, 0.0, 1.0, sim.events_processed)
    assert sanitizer.events_seen == sim.events_processed == 30
    assert profile.phases["sanitize"].calls == 30
    assert profile.phases["heappop"].calls == 30
    assert profile.attributed_seconds == pytest.approx(
        profile.loop_wall_seconds
    )


def test_profile_experiment_checked_run_attributes_checkers():
    _result, _log, profile = profile_experiment(
        _small_config(check=True, check_stride=16)
    )
    assert "sanitize" in profile.phases
    assert profile.checkers
    assert all(code.startswith("INV") for code in profile.checkers)
    checker_total = sum(s.seconds for s in profile.checkers.values())
    assert checker_total <= profile.phases["sanitize"].seconds + 1e-9


@pytest.mark.parametrize("mode", ["incremental", "audit"])
def test_profiled_sweep_is_the_unprofiled_sweep(mode, count_calls):
    """The profiler's timing proxies neither skip nor double-call a
    checker: same sweeps, same findings, same per-checker call counts
    as the bare sweep — and the counts the profile reports are those."""
    from repro.experiments import run_experiment
    from repro.protocols import get_adapter
    from repro.sanitizer import SanitizerRuntime

    config = _small_config(check=True, check_mode=mode, check_stride=16)

    def spied_run(profiler):
        checkers = get_adapter(config.protocol).invariant_checkers()
        spies = {
            checker.code: (
                count_calls(checker, "check_block"),
                count_calls(checker, "check_dirty"),
            )
            for checker in checkers
        }
        runtime = SanitizerRuntime(
            checkers, stride=16, mode=mode, profiler=profiler
        )
        result, _log = run_experiment(
            config, sanitizer=runtime, profiler=profiler
        )
        calls = {
            code: len(blocks) + len(dirties)
            for code, (blocks, dirties) in spies.items()
        }
        return result, runtime, calls

    bare_result, bare_runtime, bare_calls = spied_run(None)
    profiler = ProfilerRuntime()
    result, runtime, calls = spied_run(profiler)
    assert runtime.violations == bare_runtime.violations == []
    assert runtime.sweeps == bare_runtime.sweeps > 0
    assert runtime.audits == bare_runtime.audits
    assert result.events_processed == bare_result.events_processed
    assert calls == bare_calls
    assert all(calls.values())  # every checker was reached
    profile = profiler.build_profile(
        meta={},
        wall_setup=result.wall_setup_seconds,
        wall_simulate=result.wall_simulate_seconds,
        events=result.events_processed,
        end_time=config.duration + config.cooldown,
    )
    assert {
        code: stat.calls for code, stat in profile.checkers.items()
    } == calls


def test_prof_span_records_land_in_trace(tmp_path):
    from repro.obs import Observability
    from repro.obs.trace import MemorySink, Tracer

    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    runtime = ProfilerRuntime()
    from repro.experiments import run_experiment

    run_experiment(_small_config(), obs=obs, profiler=runtime)
    spans = [r for r in sink.records if r["ev"] == "prof_span"]
    closed = [s for s in runtime.spans if s.closed]
    assert len(spans) == len(closed) > 0
    for record, span in zip(spans, closed):
        assert record["leader"] == span.leader
        assert record["micros"] == span.micros
        assert record["closed"] is True


# -- CLI --------------------------------------------------------------------


def _run_args(out_dir, *extra):
    return [
        "prof", "run",
        "--protocol", "bitcoin-ng",
        "--nodes", "12",
        "--blocks", "10",
        "--key-blocks", "4",
        "--block-rate", "0.2",
        "--block-size", "4000",
        "--seed", "3",
        "--out", str(out_dir),
        *extra,
    ]


def test_cli_prof_run_writes_artifacts(tmp_path, capsys):
    code = main(_run_args(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "== profile:" in out
    assert "heappop" in out
    profiles = list(tmp_path.glob("*.prof.json"))
    folded = list(tmp_path.glob("*.folded"))
    assert len(profiles) == 1 and len(folded) == 1
    loaded = load_profile(profiles[0])
    assert loaded.events_processed > 0
    assert "simulate;heappop " in folded[0].read_text()


def test_cli_prof_report_and_diff(tmp_path, capsys):
    assert main(_run_args(tmp_path / "a")) == 0
    assert main(_run_args(tmp_path / "b", "--seed", "4")) == 0
    capsys.readouterr()
    path_a = str(next((tmp_path / "a").glob("*.prof.json")))
    path_b = str(next((tmp_path / "b").glob("*.prof.json")))

    assert main(["prof", "report", path_a]) == 0
    assert "== profile:" in capsys.readouterr().out

    code = main(["prof", "diff", path_a, path_b])
    out = capsys.readouterr().out
    assert "== profile diff ==" in out
    assert code in (0, 1)  # seeds differ; regression flag is data-dependent

    # Identical profiles never flag.
    assert main(["prof", "diff", path_a, path_a]) == 0


def test_cli_prof_report_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.prof.json"
    bad.write_text("{}")
    assert main(["prof", "report", str(bad)]) == 2
    assert "unsupported profile version" in capsys.readouterr().err


def test_trace_summarize_counts_prof_spans(tmp_path, capsys):
    out = tmp_path / "trace"
    assert main(_run_args(tmp_path / "prof", "--obs", str(out))) == 0
    capsys.readouterr()
    trace_file = next(out.glob("*.jsonl*"))
    assert main(["trace", "summarize", str(trace_file)]) == 0
    summary = capsys.readouterr().out
    assert "prof_span" in summary
    assert "epoch spans:" in summary
