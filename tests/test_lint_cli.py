"""CLI-level analyzer tests: exit codes, JSON round-trip, --explain.

Drives ``repro lint`` through :func:`repro.cli.main` exactly as a user
or CI job would, asserting the contract the CI ``lint`` job and any
pre-commit hook rely on: exit 0 on clean trees, exit 1 with findings,
exit 2 on usage errors, and machine-readable ``--json`` output that
round-trips through :meth:`Finding.from_dict`.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import RULES, Finding
from repro.lint.engine import JSON_SCHEMA_VERSION

FIXTURES = Path(__file__).parent / "lint_fixtures"
BAD = FIXTURES / "NG101_bad.py"


def test_clean_tree_exits_zero(capsys):
    src = Path(__file__).parent.parent / "src"
    assert main(["lint", str(src)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_findings_exit_one_with_location_and_snippet(capsys):
    assert main(["lint", str(BAD)]) == 1
    out = capsys.readouterr().out
    assert "NG101" in out
    assert "NG101_bad.py:4" in out
    assert "random.random()" in out


def test_missing_path_exits_two(capsys):
    assert main(["lint", "no/such/path.txt"]) == 2
    assert "error" in capsys.readouterr().err


def test_directory_without_python_files_exits_two(tmp_path, capsys):
    (tmp_path / "notes.md").write_text("no code here\n", encoding="utf-8")
    assert main(["lint", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no .py files in {tmp_path}\n"
    assert "finding(s)" not in captured.out


def test_non_utf8_source_exits_two_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "latin1.py"
    bad.write_bytes(b'NAME = "caf\xe9"\n')
    assert main(["lint", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid UTF-8")
    assert len(err.splitlines()) == 1


def test_json_output_round_trips(capsys):
    assert main(["lint", str(FIXTURES), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_SCHEMA_VERSION == 4
    assert sorted(payload["summary"]) == [
        "files_scanned", "findings", "suppressed",
    ]
    assert payload["summary"]["findings"] == len(payload["findings"])
    assert payload["summary"]["suppressed"] == len(RULES)
    assert sorted(f["code"] for f in payload["findings"]) == sorted(RULES)
    # Round-trip: parse back into Finding objects and re-serialize.
    for entry in payload["findings"]:
        finding = Finding.from_dict(entry)
        assert finding.to_dict() == entry


def test_semantic_cache_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "src", "--semantic-cache", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --semantic-cache" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flags", [["--baseline", "x.json"], ["--write-baseline"]]
)
def test_baseline_flags_are_usage_errors(flags, capsys):
    # `# repro: allow[CODE]` is the one escape hatch.
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", str(BAD), *flags])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


# -- rule selection (--select / --ignore / --list-rules) ---------------------


def test_select_runs_only_named_codes(capsys):
    assert main(["lint", str(FIXTURES), "--select", "NG101,NG302",
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert sorted({f["code"] for f in payload["findings"]}) == [
        "NG101", "NG302",
    ]


def test_ignore_drops_named_codes(capsys):
    assert main(["lint", str(FIXTURES), "--ignore", "NG101", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    codes = {f["code"] for f in payload["findings"]}
    assert "NG101" not in codes
    assert codes == set(RULES) - {"NG101"}


def test_select_can_turn_findings_green(capsys):
    # The NG101 bad fixture is clean under every other rule.
    assert main(["lint", str(BAD), "--select", "NG302"]) == 0


def test_select_unknown_code_exits_two(capsys):
    assert main(["lint", str(FIXTURES), "--select", "NG999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_ignore_unknown_code_exits_two(capsys):
    assert main(["lint", str(FIXTURES), "--ignore", "NG999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--select", ","], ["--ignore", ",".join(sorted(RULES))]]
)
def test_selection_of_no_rule_exits_two(flags, capsys):
    assert main(["lint", str(BAD), *flags]) == 2
    captured = capsys.readouterr()
    assert "leaves no rule to run" in captured.err
    assert "finding(s)" not in captured.out


def test_select_and_ignore_conflict_exits_two(capsys):
    assert main(["lint", str(FIXTURES), "--select", "NG101",
                 "--ignore", "NG102"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_list_rules_prints_full_table(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code, rule in RULES.items():
        assert code in out
        assert rule.name in out
    # Every family label appears.
    for family in ("rng", "clock/env", "ordering", "layering"):
        assert family in out


@pytest.mark.parametrize("code", sorted(RULES))
def test_explain_prints_rationale_and_examples(code, capsys):
    assert main(["lint", "--explain", code]) == 0
    out = capsys.readouterr().out
    rule = RULES[code]
    assert out.startswith(f"{code} ({rule.name})")
    assert rule.rationale in out
    assert "bad:" in out and "good:" in out
    # The examples shown are the fixture files' content.
    for line in rule.bad_example.rstrip().splitlines():
        assert line in out
    assert f"allow[{code}]" in out


def test_explain_unknown_code_exits_two(capsys):
    assert main(["lint", "--explain", "NG999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--select", "--explain"])
def test_retired_ng601_is_a_usage_error(flag, capsys):
    # NG601 went with the version counters it refereed.
    assert main(["lint", str(BAD), flag, "NG601"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_why_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", str(BAD), "--why"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --why" in capsys.readouterr().err
