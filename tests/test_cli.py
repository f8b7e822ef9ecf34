"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_run_command(capsys):
    code = main(
        [
            "run",
            "--protocol", "bitcoin",
            "--nodes", "15",
            "--blocks", "10",
            "--block-rate", "0.1",
            "--block-size", "5000",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mining_power_utilization" in out
    assert "blocks generated" in out


def test_run_ng_command(capsys):
    code = main(
        [
            "run",
            "--protocol", "bitcoin-ng",
            "--nodes", "15",
            "--blocks", "10",
            "--block-rate", "0.2",
            "--key-block-rate", "0.05",
            "--block-size", "5000",
        ]
    )
    assert code == 0
    assert "consensus_delay" in capsys.readouterr().out


def test_incentives_command(capsys):
    code = main(["incentives", "--alpha", "0.25"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.3684" in out
    assert "0.4286" in out
    assert "True" in out


def test_incentives_optimal_network(capsys):
    main(["incentives", "--alpha", "0.3333"])
    out = capsys.readouterr().out
    assert "feasible:                False" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_check_flag_parses_bare_and_with_mode():
    parser = build_parser()
    assert parser.parse_args(["run"]).check is None
    assert parser.parse_args(["run", "--check"]).check == "incremental"
    assert parser.parse_args(["run", "--check", "audit"]).check == "audit"
    assert (
        parser.parse_args(["sweep", "frequency", "--check", "audit"]).check
        == "audit"
    )
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--check", "bogus"])
    # The retired full-sweep mode is refused by every --check surface.
    for command in (
        ["run"],
        ["sweep", "frequency"],
        ["prof", "run", "--out", "unused"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args([*command, "--check", "full"])


@pytest.mark.parametrize("command", ["diverge", "record"])
def test_retired_check_subcommands_are_usage_errors(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", command])
    assert excinfo.value.code == 2
    assert "invalid choice: 'check'" in capsys.readouterr().err


_TINY_RUN = [
    "run", "--protocol", "bitcoin-ng", "--nodes", "10", "--blocks", "5",
    "--json",
]


@pytest.mark.parametrize("value", ["audti", "full"])
def test_repro_check_env_typo_exits_naming_valid_values(monkeypatch, value):
    monkeypatch.setenv("REPRO_CHECK", value)
    with pytest.raises(SystemExit) as excinfo:
        main(_TINY_RUN)
    message = str(excinfo.value.code)
    assert excinfo.value.code != 0
    assert value in message
    assert "incremental" in message and "audit" in message


@pytest.mark.parametrize(
    "value, expected", [("1", "incremental"), ("audit", "audit"), ("0", None)]
)
def test_repro_check_env_valid_values(monkeypatch, capsys, value, expected):
    import json

    monkeypatch.setenv("REPRO_CHECK", value)
    assert main(_TINY_RUN) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload.get("check_mode") == expected


def test_run_checked_json_reports_mode_and_violations(capsys):
    import json

    code = main(
        [
            "run",
            "--protocol", "bitcoin-ng",
            "--nodes", "10",
            "--blocks", "8",
            "--block-rate", "0.2",
            "--key-block-rate", "0.05",
            "--block-size", "3000",
            "--check", "audit",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check_mode"] == "audit"
    assert payload["invariant_violations"] == 0
    assert payload["violations"] == []


def test_parser_rejects_unknown_protocol():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--protocol", "dogecoin"])


def test_save_trace_is_a_usage_error(capsys):
    """The observation log is not exported on its own: ``--obs DIR``'s
    trace carries every fact the six metrics read."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--save-trace", "x"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --save-trace" in capsys.readouterr().err


def test_run_json_output(capsys):
    import json

    code = main(
        [
            "run",
            "--protocol", "bitcoin",
            "--nodes", "12",
            "--blocks", "8",
            "--block-rate", "0.1",
            "--block-size", "3000",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["protocol"] == "bitcoin"
    assert payload["config"]["n_nodes"] == 12
    assert set(payload["metrics"]) >= {
        "consensus_delay", "fairness", "mining_power_utilization",
    }
    assert payload["events_processed"] > 0
    assert payload["events_per_sec"] > 0
    # Rate is timed over the simulate phase only.
    assert payload["events_per_sec"] == pytest.approx(
        payload["events_processed"] / payload["wall_simulate_seconds"],
        rel=1e-6,
    )
    assert "obs" not in payload  # not enabled on this run


def test_run_obs_then_trace_subcommands(tmp_path, capsys):
    obs_dir = tmp_path / "obs"
    code = main(
        [
            "run",
            "--protocol", "bitcoin-ng",
            "--nodes", "12",
            "--blocks", "8",
            "--block-rate", "0.2",
            "--key-block-rate", "0.05",
            "--block-size", "3000",
            "--obs", str(obs_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "obs trace:" in out
    traces = list(obs_dir.glob("*.trace.jsonl"))
    assert len(traces) == 1
    assert len(list(obs_dir.glob("*.metrics.json"))) == 1

    assert main(["trace", "summarize", str(obs_dir)]) == 0
    summary = capsys.readouterr().out
    assert traces[0].name in summary
    assert "blocks generated:" in summary
    assert "leader epochs:" in summary

    assert main(["trace", "timeline", str(obs_dir), "--buckets", "5"]) == 0
    timeline = capsys.readouterr().out
    assert len(timeline.strip().splitlines()) == 7  # name + header + 5 rows

    assert main(["trace", "toptalkers", str(obs_dir), "--top", "3"]) == 0
    talkers = capsys.readouterr().out
    assert "bytes out" in talkers


def test_run_obs_json_includes_snapshot(tmp_path, capsys):
    import json

    code = main(
        [
            "run",
            "--protocol", "bitcoin",
            "--nodes", "12",
            "--blocks", "6",
            "--block-rate", "0.1",
            "--block-size", "3000",
            "--obs", str(tmp_path),
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["obs"]["snapshot_version"] == 3
    assert payload["obs"]["metrics"]["sends_by_kind"]["inv"] > 0


def test_obs_pointing_at_a_file_is_rejected_before_the_run(
    tmp_path, capsys, monkeypatch
):
    import repro.cli

    def never(*args, **kwargs):
        raise AssertionError("the run was started")

    monkeypatch.setattr(repro.cli, "run_experiment", never)
    target = tmp_path / "not-a-dir"
    target.write_text("")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--nodes", "12", "--blocks", "6", "--obs", str(target)])
    assert str(excinfo.value) == f"error: --obs {target}: not a directory"


@pytest.mark.parametrize(
    "command", [["prof", "run"]], ids=["prof run --out FILE"]
)
def test_out_of_the_wrong_kind_is_rejected_before_the_run(
    tmp_path, monkeypatch, command
):
    from repro.net.simulator import Simulator

    def never(*args, **kwargs):
        raise AssertionError("the run was started")

    monkeypatch.setattr(Simulator, "run", never)
    target = tmp_path / "out"
    target.write_text("kept")
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--nodes", "12", "--blocks", "6", "--out", str(target)])
    assert str(excinfo.value) == f"error: --out {target}: not a directory"
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "kept"


def test_trace_of_a_killed_run_still_summarizes(tmp_path, capsys):
    obs_dir = tmp_path / "obs"
    run = ["run", "--protocol", "bitcoin", "--nodes", "12", "--blocks", "6"]
    assert main(run + ["--block-size", "3000", "--obs", str(obs_dir)]) == 0
    (trace,) = obs_dir.glob("*.trace.jsonl")
    whole = trace.read_text()
    capsys.readouterr()

    assert main(["trace", "summarize", str(trace)]) == 0
    assert "truncated" not in capsys.readouterr().out

    # Killed mid-write: the buffered sink leaves the last line cut short.
    trace.write_text(whole[: len(whole) // 2].rsplit("\n", 1)[0] + '\n{"v":1,"ev":"se')
    for command in ("summarize", "timeline", "toptalkers"):
        assert main(["trace", command, str(trace)]) == 0
    captured = capsys.readouterr()
    assert "truncated:           no trace_end record" in captured.out
    assert captured.err == ""

    # The same damage anywhere but the end is not a torn write.
    lines = whole.splitlines(keepends=True)
    lines[50] = '{"v":1,"ev":"se\n'
    trace.write_text("".join(lines))
    assert main(["trace", "summarize", str(trace)]) == 1
    assert f"error: {trace}:51: not valid JSON" in capsys.readouterr().err


def test_trace_errors_on_missing_path(tmp_path, capsys):
    code = main(["trace", "summarize", str(tmp_path / "nowhere")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_with_chart(capsys):
    code = main(
        ["sweep", "frequency", "--nodes", "10", "--blocks", "6",
         "--chart", "mining_power_utilization"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mining_power_utilization vs" in out


def _write_scenario(tmp_path, spec):
    import json

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def test_run_with_scenario_and_obs_shows_faults(tmp_path, capsys):
    scenario = _write_scenario(
        tmp_path,
        {
            "version": 1,
            "name": "cli-crash",
            "faults": [
                {"at": 15.0, "kind": "crash", "node": 2, "down_for": 20.0},
                {"at": 45.0, "kind": "loss", "rate": 0.05},
                {"at": 55.0, "kind": "loss", "rate": 0.0},
            ],
        },
    )
    obs_dir = tmp_path / "obs"
    code = main(
        [
            "run",
            "--protocol", "bitcoin-ng",
            "--nodes", "12",
            "--blocks", "8",
            "--block-rate", "0.2",
            "--key-block-rate", "0.05",
            "--block-size", "3000",
            "--scenario", str(scenario),
            "--obs", str(obs_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario:                cli-crash" in out
    assert "faults injected:         3" in out

    # Fault events land in the trace and surface in the analyzers.
    assert main(["trace", "summarize", str(obs_dir)]) == 0
    summary = capsys.readouterr().out
    assert "faults injected:" in summary
    assert "node_crash=1" in summary
    assert "node_restart=1" in summary
    assert "msg_loss=2" in summary

    assert main(["trace", "timeline", str(obs_dir), "--buckets", "6"]) == 0
    timeline = capsys.readouterr().out
    assert "faults" in timeline.splitlines()[1]  # header gains the column


def test_run_with_scenario_json_output(tmp_path, capsys):
    import json

    scenario = _write_scenario(
        tmp_path,
        {"version": 1, "name": "j", "faults": [{"at": 5.0, "kind": "heal"}]},
    )
    code = main(
        [
            "run",
            "--protocol", "bitcoin",
            "--nodes", "10",
            "--blocks", "5",
            "--block-rate", "0.2",
            "--block-size", "2000",
            "--scenario", str(scenario),
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "j"
    assert payload["faults_injected"] == 1


def test_run_with_invalid_scenario_fails_loudly(tmp_path, capsys):
    scenario = _write_scenario(tmp_path, {"version": 1, "faults": [{"at": 1}]})
    with pytest.raises(SystemExit):
        main(
            [
                "run",
                "--protocol", "bitcoin",
                "--scenario", str(scenario),
            ]
        )


def test_sweep_with_scenario(tmp_path, capsys):
    scenario = _write_scenario(
        tmp_path,
        {
            "version": 1,
            "name": "sweep-loss",
            "faults": [{"at": 10.0, "kind": "loss", "rate": 0.02}],
        },
    )
    code = main(
        [
            "sweep", "frequency",
            "--nodes", "10",
            "--blocks", "4",
            "--jobs", "1",
            "--scenario", str(scenario),
        ]
    )
    assert code == 0
    assert "sweep-loss" in capsys.readouterr().out


# -- one run description ------------------------------------------------------

_RUN_FLAGS = {"nodes", "seed", "blocks"}
_PROTOCOL_FLAGS = {
    "protocol", "block_rate", "block_size", "key_block_rate", "key_blocks",
}

# subcommand -> (its own flags beside the shared block, the shared block's
# defaults: nodes, blocks, and — when it takes --protocol — the block
# parameters).  Sharing the block must not silently change a workload.
_RUN_SURFACES = {
    ("run",): (
        _PROTOCOL_FLAGS | {"check", "obs", "scenario", "json"},
        (100, 60, 0.1, 20_000, 0.01),
    ),
    ("sweep", "frequency"): (
        {"axis", "check", "obs", "scenario", "seeds", "jobs", "chart",
         "progress"},
        (100, 60),
    ),
    ("propagation",): (set(), (100, 60)),
    ("prof", "run"): (
        _PROTOCOL_FLAGS
        | {"check", "obs", "prof_command", "out", "top", "stride"},
        (60, 60, 0.2, 8_000, 0.02),
    ),
}


@pytest.mark.parametrize("command", _RUN_SURFACES, ids=" ".join)
def test_run_flag_surface_and_defaults(command):
    own, defaults = _RUN_SURFACES[command]
    args = build_parser().parse_args(list(command))
    assert set(vars(args)) == _RUN_FLAGS | own | {"command", "handler"}
    assert (args.nodes, args.blocks, args.seed) == (*defaults[:2], 0)
    if "protocol" in own:
        assert args.protocol == "bitcoin-ng" and args.key_blocks is None
        assert (
            args.block_rate, args.block_size, args.key_block_rate
        ) == defaults[2:]
    if "stride" in own:
        assert args.stride == 64
    for flag in {"check", "obs", "scenario"} & own:
        assert getattr(args, flag) is None


def test_config_from_args_is_the_inverse_of_the_flag_block():
    from repro.cli import config_from_args
    from repro.experiments import ExperimentConfig, Protocol

    args = build_parser().parse_args(
        ["prof", "run", "--protocol", "ghost", "--nodes", "7", "--seed", "3",
         "--blocks", "9", "--key-blocks", "2", "--block-rate", "0.5",
         "--block-size", "999", "--key-block-rate", "0.25", "--check", "audit",
         "--obs", "somewhere"]
    )
    assert config_from_args(args) == ExperimentConfig(
        protocol=Protocol.GHOST, n_nodes=7, seed=3, target_blocks=9,
        target_key_blocks=2, block_rate=0.5, block_size_bytes=999,
        key_block_rate=0.25, check=True, check_mode="audit",
        obs_dir="somewhere",
    )
    # Flags a subcommand does not declare keep the config's defaults.
    args = build_parser().parse_args(["propagation", "--nodes", "12"])
    assert config_from_args(args) == ExperimentConfig(n_nodes=12)


@pytest.mark.parametrize(
    "command",
    [
        ["prof", "run", "--out", "unused"],
        ["propagation"],
        ["sweep", "frequency"],
    ],
    ids=" ".join,
)
def test_repro_check_env_reaches_every_experiment_subcommand(
    monkeypatch, command
):
    monkeypatch.setenv("REPRO_CHECK", "audti")
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    assert "audti" in str(excinfo.value.code)
    assert "incremental, audit" in str(excinfo.value.code)


def test_repro_check_env_checks_prof_run(monkeypatch, tmp_path, capsys):
    import json

    from repro.sanitizer import SanitizerRuntime

    modes = []
    real_init = SanitizerRuntime.__init__

    def spy(self, checkers, **kwargs):
        real_init(self, checkers, **kwargs)
        modes.append((self.mode, len(self.checkers)))

    monkeypatch.setattr(SanitizerRuntime, "__init__", spy)
    monkeypatch.setenv("REPRO_CHECK", "audit")
    tiny = ["--nodes", "8", "--blocks", "4", "--key-blocks", "2"]
    assert main(["prof", "run", "--out", str(tmp_path), *tiny]) == 0
    [(mode, n_checkers)] = modes
    assert mode == "audit" and n_checkers > 0
    [profile] = tmp_path.glob("*.prof.json")
    assert json.loads(profile.read_text())["meta"]["check"] is True
    capsys.readouterr()


# -- a checked propagation study reports what it found --------------------------


def test_checked_propagation_reports_violations_and_exits_nonzero(
    monkeypatch, capsys
):
    from repro.experiments import propagation_study
    from repro.protocols import BitcoinAdapter
    from repro.sanitizer import InvariantChecker
    from repro.sanitizer.violations import make_violation

    class AlwaysFires(InvariantChecker):
        code = "INV999"
        name = "always-fires"

        def check_state(self, node, node_id, now):
            return [make_violation(self, node_id, now, "planted")]

    # Two sizes instead of Figure 7's five: the test is about the count.
    monkeypatch.setattr(
        "repro.cli.propagation_study",
        lambda config: propagation_study(config, sizes=(20_000, 40_000)),
    )
    tiny = ["propagation", "--nodes", "6", "--blocks", "3"]
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    assert main(tiny) == 0
    assert "invariant violations" not in capsys.readouterr().out

    monkeypatch.setattr(
        BitcoinAdapter, "invariant_checkers", lambda self: [AlwaysFires()]
    )
    monkeypatch.setenv("REPRO_CHECK", "1")
    assert main(tiny) == 1
    # One finding per (code, node), in each of the two runs.
    assert (
        "invariant violations across all sizes: 12" in capsys.readouterr().out
    )


# -- worker-count mistakes are usage errors -------------------------------------


def test_bad_repro_jobs_env_is_an_error_not_a_traceback(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    for command in (
        ["sweep", "frequency", "--nodes", "10", "--blocks", "3"],
        ["mutate", "run", "--max-mutants", "1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(command)
        message = str(excinfo.value.code)
        assert message.startswith("error: REPRO_JOBS='abc'")
        assert ">= 1" in message


def test_jobs_zero_is_an_error_not_a_traceback(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "frequency", "--nodes", "10", "--blocks", "3",
              "--jobs", "0"])
    assert str(excinfo.value.code) == "error: jobs must be >= 1, got 0"


# -- so are run flags ExperimentConfig rejects ------------------------------------


@pytest.mark.parametrize(
    "command, message",
    [
        (["run", "--nodes", "1"], "error: need at least two nodes"),
        (["run", "--nodes", "4"],
         "error: min_degree must be below node count"),
        (["run", "--block-rate", "0"], "error: rates must be positive"),
        (["sweep", "frequency", "--blocks", "0"],
         "error: need at least one block"),
        (["run", "--key-blocks", "0"], "error: need at least one block"),
        (["prof", "run", "--out", "unused", "--stride", "0"],
         "error: check_stride must be at least 1"),
        (["sweep", "size", "--nodes", "6", "--blocks", "2",
          "--seeds", "0", "0"],
         "error: seeds must be distinct, got [0, 0]"),
        (["sweep", "frequency", "--seeds", "3", "1", "3"],
         "error: seeds must be distinct, got [3, 1, 3]"),
        (["incentives", "--alpha", "1.5"],
         "error: attacker fraction must be in [0, 1), got 1.5"),
        (["incentives", "--alpha", "-1"],
         "error: attacker fraction must be in [0, 1), got -1.0"),
    ],
)
def test_bad_run_flag_is_an_error_not_a_traceback(
    monkeypatch, command, message
):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    # SystemExit(str): the interpreter prints that one line and exits 1.
    assert str(excinfo.value.code) == message


@pytest.mark.parametrize(
    "command",
    [
        ["trace", "timeline", "x", "--buckets", "0"],
        ["trace", "timeline", "x", "--buckets", "-3"],
        ["trace", "toptalkers", "x", "--top", "0"],
        ["trace", "toptalkers", "x", "--top", "-1"],
        ["prof", "run", "--top", "-2"],
        ["prof", "report", "x", "--top", "-2"],
    ],
    ids=" ".join,
)
def test_row_or_bucket_count_below_one_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {command[-2]}: must be at least 1, got {command[-1]}" in err


# -- and a window in which nothing was mined --------------------------------------

_NO_KEY_BLOCK = ["--nodes", "8", "--blocks", "3", "--key-blocks", "1"]


@pytest.mark.parametrize("seed", ["0", "2"])
@pytest.mark.parametrize(
    "command",
    [["run"], ["prof", "run", "--out", "unused"]],
    ids=" ".join,
)
def test_run_that_mines_no_weight_block_is_one_error_line(
    monkeypatch, tmp_path, command, seed
):
    """P(no key block) is e^-1 at --key-blocks 1: a message, not
    ``ValueError: empty main chain`` out of the fairness metric."""
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main([*command, *_NO_KEY_BLOCK, "--seed", seed])
    message = str(excinfo.value.code)
    assert message.startswith("error: no key/PoW block reached the main chain")
    assert " s of simulated mining (1 expected)" in message
    assert not list(tmp_path.iterdir())
