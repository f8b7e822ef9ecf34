"""The deterministic profiler: schema, reports, CLI.

Determinism of profiled runs (bit-identical to bare runs) is pinned in
``tests/test_determinism.py``; this module covers the artifacts — the
``.prof.json`` schema round-trip, folded-stack export, and the golden
report format the ``repro prof`` family renders.
"""

import json

import pytest

from repro.cli import main
from repro.prof import (
    PROFILE_VERSION,
    PhaseStat,
    Profile,
    ProfileError,
    ProfilerRuntime,
    load_profile,
    profile_experiment,
    to_folded,
)
from repro.prof.report import format_report


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
    assert loaded.attributed_seconds == pytest.approx(
        profile.attributed_seconds
    )


def test_profile_json_is_schema_versioned(tmp_path):
    path = _sample_profile().save(tmp_path / "run.prof.json")
    data = json.loads(path.read_text())
    assert data["profile_version"] == PROFILE_VERSION
    assert data["coverage"] == pytest.approx(0.95)
    assert data["attributed_seconds"] == pytest.approx(1.9)
    assert "spans" not in data
    # A file written while profiles still carried epoch spans loads
    # unchanged: the key is ignored, so the version stayed 1.
    data["spans"] = [{"leader": 1, "key_block": "ab12", "start": 5.0,
                      "end": 25.0, "micros": 40, "closed": True}]
    path.write_text(json.dumps(data))
    assert load_profile(path).phases.keys() == _sample_profile().phases.keys()


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


# -- report golden output ---------------------------------------------------


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


def test_report_truncates_phase_table():
    profile = _sample_profile()
    report = format_report(profile, top=2)
    assert "(3 more phases totalling 0.400 s)" in report


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
    from repro.sanitizer import InvariantChecker, SanitizerRuntime

    sim = Simulator()
    # A checker and stride 1, so the sanitizer sweeps once per event
    # the profiler hands its probe.
    sanitizer = SanitizerRuntime((InvariantChecker(),), stride=1)
    sanitizer.install(sim, [])
    runtime = ProfilerRuntime()
    runtime.install(sim, 0)
    for index in range(30):
        sim.schedule(index, lambda: None)
    sim.schedule(3.5, lambda: None).cancel()
    sim.run()
    assert sanitizer.sweeps == sim.events_processed == 30
    sanitizer.finalize()
    profile = runtime.build_profile({}, 0.0, 1.0, sim.events_processed)
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
                count_calls(checker, "check_state"),
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
            code: len(blocks) + len(states)
            for code, (blocks, states) in spies.items()
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
    )
    assert {
        code: stat.calls for code, stat in profile.checkers.items()
    } == calls


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

    # Two single profiles cannot say whether a phase moved (that is
    # bench/run.py --compare's question), so there is no diff command.
    with pytest.raises(SystemExit) as excinfo:
        main(["prof", "diff", path_a, path_b])
    assert excinfo.value.code == 2
    assert "invalid choice: 'diff'" in capsys.readouterr().err


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
    assert "prof_span" not in summary
    assert "epoch spans:" in summary
