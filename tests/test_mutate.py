"""Mutation subsystem tests: operators, sites, engine, cache, pipeline.

The planted-bug port at the bottom replaces a hand-rolled
plant-and-check test with assertions through the real kill pipeline:
the overpaying fee split that ``test_sanitizer`` builds by hand is the
``arith-swap`` operator on ``core/remuneration.py`` killed by the probe.
"""

import ast
import json
import shutil
import subprocess
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.mutate.engine import (
    ORACLE_TESTS,
    TIERS,
    MutantTask,
    MutationEngine,
    MutantVerdict,
    ShadowTree,
    _config_sig,
    _probe_tier,
    companion_tests,
)
from repro.mutate.operators import (
    OPERATORS,
    OPERATORS_BY_NAME,
    generate_mutants,
)
from repro.mutate.report import (
    MutationRun,
    bench_section,
    gate,
    kill_matrix,
    module_scores,
    parse_allowlist,
)
from repro.mutate.sites import (
    ANCHOR_SUFFIXES,
    TARGET_PACKAGES,
    enumerate_sites,
)

REPO = Path(__file__).parent.parent
SRC = REPO / "src"


def _mutants(source: str, qualnames: set[str], operator: str):
    source = textwrap.dedent(source)
    ops = (OPERATORS_BY_NAME[operator],)
    return source, generate_mutants("src/repro/core/x.py", source,
                                    qualnames, ops)


# -- operators ---------------------------------------------------------------


def test_arith_swap_flips_fee_sum():
    source, mutants = _mutants(
        """
        def total(subsidy, fees):
            return subsidy + fees
        """,
        {"total"},
        "arith-swap",
    )
    assert [m.replacement for m in mutants] == ["-"]
    mutated = mutants[0].apply(source)
    assert "subsidy - fees" in mutated


def test_cmp_flip_is_off_by_one_on_boundaries():
    source, mutants = _mutants(
        """
        def mature(height, coin_height, maturity):
            return height - coin_height >= maturity
        """,
        {"mature"},
        "cmp-flip",
    )
    assert [(m.original, m.replacement) for m in mutants] == [(">=", ">")]


def test_frac_swap_complements_the_split():
    source, mutants = _mutants(
        """
        LEADER_FRACTION = 0.4

        def cut(fee):
            return int(fee * 0.4)
        """,
        {"<module>", "cut"},
        "frac-swap",
    )
    assert sorted(m.qualname for m in mutants) == ["<module>", "cut"]
    assert all(m.replacement == "0.6" for m in mutants)


def test_sig_drop_forces_and_inverts_the_verdict():
    source, mutants = _mutants(
        """
        def accept(block, key):
            if not block.verify_signature(key):
                return False
            return True
        """,
        {"accept"},
        "sig-drop",
    )
    assert sorted(m.replacement for m in mutants) == [
        "(not block.verify_signature(key))",
        "True",
    ]


def test_int_shift_only_at_decision_points():
    source, mutants = _mutants(
        """
        def check(depth):
            tag = 7
            if depth > 100:
                return 3
            return tag
        """,
        {"check"},
        "int-shift",
    )
    assert sorted(m.replacement for m in mutants) == ["101", "4"]


def test_mutant_ids_are_line_free():
    """Prepending code must not change any mutant's identity."""
    body = """
        def total(subsidy, fees):
            return subsidy + fees
    """
    source_a, mutants_a = _mutants(body, {"total"}, "arith-swap")
    source_b, mutants_b = _mutants(
        "PADDING = 1\n\n" + textwrap.dedent(body), {"total"}, "arith-swap"
    )
    assert [m.mutant_id for m in mutants_a] == [
        m.mutant_id for m in mutants_b
    ]
    assert mutants_a[0].start != mutants_b[0].start


def test_every_generated_mutant_parses_and_applies():
    path = "src/repro/ledger/utxo.py"
    source = (REPO / path).read_text(encoding="utf-8")
    sites = enumerate_sites(SRC)
    key = next(p for p in sites.files if p.endswith("ledger/utxo.py"))
    mutants = generate_mutants(path, source, set(sites.files[key]))
    assert mutants
    ids = [m.mutant_id for m in mutants]
    assert len(ids) == len(set(ids)), "mutant ids must be unique"
    for mutant in mutants:
        assert mutant.apply(source) != source


def test_no_operator_without_a_mutant():
    """An operator the real tree gives nothing to is dead weight."""
    assert sorted(OPERATORS_BY_NAME) == [
        "arith-swap", "cmp-flip", "cond-neg", "frac-swap", "int-shift",
        "sig-drop",
    ]
    engine = MutationEngine(REPO, cache_path=None)
    mutants, _shas, _n_sites = engine.collect_mutants()
    produced = {mutant.operator for mutant in mutants}
    assert produced == {operator.name for operator in OPERATORS}


# -- site enumeration --------------------------------------------------------


def test_sites_are_every_definition_in_the_target_packages():
    """One rule: every top-level def and every method of a top-level
    class under TARGET_PACKAGES, plus the anchors' ``<module>``."""
    expected: dict[str, list[str]] = {}
    for package in TARGET_PACKAGES:
        base = SRC.joinpath(*package.split("."))
        files = sorted(base.rglob("*.py")) if base.is_dir() else [
            base.with_suffix(".py")
        ]
        for path in files:
            names = set()
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
                elif isinstance(node, ast.ClassDef):
                    names.update(
                        f"{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                    )
            if path.as_posix().endswith(ANCHOR_SUFFIXES):
                names.add("<module>")
            if names:
                expected[path.as_posix()] = sorted(names)
    sites = enumerate_sites(SRC)
    assert sites.files == expected
    assert sites.n_sites == sum(map(len, expected.values()))
    # What the old call-graph walk could not see is in the net now.
    for suffix, qualname in (
        ("crypto/ecdsa.py", "verify"),
        ("core/chain.py", "FraudProof.verify"),
        ("ledger/transactions.py", "Transaction.sighash"),
        ("core/incentives.py", "<module>"),
    ):
        path = next(p for p in sites.files if p.endswith(suffix))
        assert qualname in sites.files[path], (suffix, qualname)


def test_sites_respect_package_filter():
    ledger_only = enumerate_sites(SRC, ("repro.ledger",))
    assert ledger_only.files
    assert all("/ledger/" in p for p in ledger_only.files)


def test_companion_test_mapping():
    assert companion_tests("src/repro/ledger/utxo.py") == (
        "tests/test_ledger_utxo.py",
    )
    # A cross-module oracle runs after the companion, for each file it
    # judges.
    ng_is_bitcoin = "tests/test_ng_without_microblocks.py"
    assert companion_tests("src/repro/core/chain.py") == (
        "tests/test_core_chain.py",
        ng_is_bitcoin,
    )
    assert companion_tests("src/repro/bitcoin/chain.py") == (
        "tests/test_bitcoin_chain.py",
        ng_is_bitcoin,
    )
    assert companion_tests("src/repro/crypto/merkle.py") == (
        "tests/test_crypto_merkle.py",
        "tests/test_properties_crypto.py",
    )
    for files in ORACLE_TESTS.values():
        assert all((REPO / test_file).is_file() for test_file in files)


def test_oracle_table_is_in_the_cache_signature(monkeypatch):
    before = _config_sig(TIERS)
    monkeypatch.setitem(
        ORACLE_TESTS, "src/repro/core/node.py", ("tests/test_x.py",)
    )
    assert _config_sig(TIERS) != before


def test_pytest_flags_are_in_the_cache_signature(monkeypatch):
    # Verdicts from rewritten and plain asserts never mix in one cache.
    from repro.mutate import engine

    assert "--assert=plain" in engine.PYTEST_ARGS
    before = _config_sig(TIERS)
    rewritten = tuple(a for a in engine.PYTEST_ARGS if a != "--assert=plain")
    monkeypatch.setattr(engine, "PYTEST_ARGS", rewritten)
    assert _config_sig(TIERS) != before


# -- shadow trees ------------------------------------------------------------


def test_shadow_tree_mutates_without_touching_original(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)
    original = repo / "src" / "pkg" / "mod.py"
    original.write_text("X = 1\n", encoding="utf-8")
    shadow = ShadowTree(repo, "src", tmp_path / "shadow")
    target = shadow.shadow_dir / "src" / "pkg" / "mod.py"
    assert target.read_text(encoding="utf-8") == "X = 1\n"

    shadow.mutate("src/pkg/mod.py", "X = 2\n")
    assert target.read_text(encoding="utf-8") == "X = 2\n"
    assert original.read_text(encoding="utf-8") == "X = 1\n"

    shadow.restore()
    assert target.read_text(encoding="utf-8") == "X = 1\n"


# -- report / gate -----------------------------------------------------------


def _verdict(mutant_id, operator, status, tier, path="src/repro/core/x.py"):
    return MutantVerdict(
        mutant_id=mutant_id,
        operator=operator,
        path=path,
        qualname="f",
        description="d",
        lineno=1,
        status=status,
        tier=tier,
        detail="",
    )


def test_kill_matrix_and_scores():
    run = MutationRun(
        verdicts=[
            _verdict("a", "cmp-flip", "killed", "sanitizer"),
            _verdict("b", "cmp-flip", "killed", "tests"),
            _verdict("c", "cmp-flip", "survived", ""),
            _verdict("d", "sig-drop", "killed", "golden",
                     path="src/repro/core/y.py"),
        ]
    )
    matrix = kill_matrix(run)
    assert matrix["cmp-flip"]["sanitizer"] == 1
    assert matrix["cmp-flip"]["tests"] == 1
    assert matrix["cmp-flip"]["survived"] == 1
    assert matrix["sig-drop"]["golden"] == 1
    scores = module_scores(run)
    assert scores["src/repro/core/x.py"]["score"] == pytest.approx(
        2 / 3, abs=1e-4
    )
    assert run.score == pytest.approx(3 / 4)
    section = bench_section(run)
    assert section["n_mutants"] == 4
    assert section["kills_by_tier"]["sanitizer"] == 1


def test_gate_requires_survivors_to_be_catalogued(tmp_path):
    run = MutationRun(
        verdicts=[_verdict("cmp-flip:src/x.py:f:deadbee1",
                           "cmp-flip", "survived", "")]
    )
    doc = tmp_path / "mutation.md"
    doc.write_text("nothing here\n", encoding="utf-8")
    ok, message = gate(run, parse_allowlist(doc))
    assert not ok
    assert "cmp-flip:src/x.py:f:deadbee1" in message

    doc.write_text(
        "## Survivors\n\n- `cmp-flip:src/x.py:f:deadbee1` — equivalent "
        "mutant: dead branch.\n",
        encoding="utf-8",
    )
    ok, message = gate(run, parse_allowlist(doc))
    assert ok


# -- tier selection ----------------------------------------------------------

CLEAN = [1, 2, 3]
VIOLATION = [{"code": "INV102", "name": "fee-split", "message": "m"}]

#: (tiers, probe stdout, expected verdict): a tier left out scores
#: nothing, even when the probe saw what that tier kills on.
PROBE_CASES = [
    (("golden", "tests"), {"ok": True, "violations": VIOLATION,
                           "fingerprint": CLEAN}, None),
    (("golden", "tests"), {"ok": True, "violations": VIOLATION,
                           "fingerprint": [9, 9, 9]}, "golden"),
    (("sanitizer",), {"ok": True, "violations": [],
                      "fingerprint": [9, 9, 9]}, None),
    (("sanitizer",), "not json", None),
]


@pytest.mark.parametrize(
    "tiers, stdout, expected", PROBE_CASES,
    ids=[f"{'+'.join(t)}-{e}-{i}" for i, (t, _, e) in enumerate(PROBE_CASES)],
)
def test_probe_scores_only_selected_tiers(monkeypatch, tiers, stdout,
                                          expected):
    text = stdout if isinstance(stdout, str) else json.dumps(stdout)
    monkeypatch.setattr(
        subprocess, "run",
        lambda *a, **k: subprocess.CompletedProcess(a, 0, text, ""),
    )
    _, (mutant,) = _mutants("def f(a, b):\n    return a + b\n", {"f"},
                            "arith-swap")
    task = MutantTask(mutant=mutant, repo_root=".", tree_sha="t",
                      baseline_fingerprint=tuple(CLEAN), tiers=tiers)
    state = {"shadow": SimpleNamespace(src_path=Path("src"))}
    hit = _probe_tier(task, state)
    assert (hit[0] if hit else None) == expected


def test_cache_signature_covers_the_tier_set(tmp_path):
    """A survivor of a subset run is never served warm to a fuller one."""
    subset = ("golden", "tests")
    engine = MutationEngine(tmp_path, cache_path=Path("c.json"),
                            tiers=subset)
    engine.cache.store("f" * 64, _verdict("m", "cmp-flip", "survived", ""))
    engine.cache.save()

    full = MutationEngine(tmp_path, cache_path=Path("c.json"))
    assert full.cache.lookup("f" * 64, "m") is None
    same = MutationEngine(tmp_path, cache_path=Path("c.json"), tiers=subset)
    assert same.cache.lookup("f" * 64, "m").status == "survived"


# -- the pipeline on a hermetic repo copy ------------------------------------


@pytest.fixture(scope="module")
def mini_repo(tmp_path_factory):
    """A trimmed repo copy: full src tree, no tests, isolated caches."""
    root = tmp_path_factory.mktemp("mutrepo")
    shutil.copytree(SRC, root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_ported_fee_split_mutants_die_dynamically(mini_repo):
    """The INV102 plant, through the real pipeline.

    ``test_sanitizer`` builds an overpaying coinbase by hand; here
    ``arith-swap`` breaks the 40/60 split arithmetic inside
    ``core/remuneration.py`` and the probe simulation must catch every
    mutant on the coinbase path — an invariant violation (sanitizer
    tier) or a state divergence/crash (golden tier).  Mutants in the
    post-hoc reward-accounting methods may survive these two tiers
    (only the tests tier sees them), so the assertion pins the
    coinbase-path functions the simulation actually drives.
    """
    engine = MutationEngine(
        mini_repo,
        cache_path=None,
        tiers=("sanitizer", "golden"),
        operators=(OPERATORS_BY_NAME["arith-swap"],),
    )
    run = engine.run(
        ("repro.core",),
        only_files=["src/repro/core/remuneration.py"],
    )
    hot = [
        v
        for v in run.verdicts
        if v.qualname in ("split_fee", "build_ng_coinbase")
    ]
    assert hot, "the fee-split arithmetic must expose arith-swap sites"
    for verdict in hot:
        assert verdict.status == "killed"
        assert verdict.tier in ("sanitizer", "golden")


def test_verdict_cache_makes_reruns_warm(mini_repo):
    cache = mini_repo / "cache.json"
    kwargs = dict(
        cache_path=Path("cache.json"),
        tiers=("sanitizer", "golden"),
        operators=(OPERATORS_BY_NAME["frac-swap"],),
    )
    scope = dict(only_files=["src/repro/core/params.py"])
    cold = MutationEngine(mini_repo, **kwargs).run(("repro.core",), **scope)
    assert cold.verdicts
    assert cold.cache_misses == len(cold.verdicts)
    assert cache.exists()

    warm = MutationEngine(mini_repo, **kwargs).run(("repro.core",), **scope)
    assert warm.cache_hits == len(warm.verdicts)
    assert warm.cache_misses == 0
    assert [v.to_dict() for v in warm.verdicts] == [
        v.to_dict() for v in cold.verdicts
    ]


def test_serial_runs_remove_their_shadow_trees(mini_repo):
    """A run removes its shadow trees.  In-process (``jobs=1``) the
    worker memo outlives the run, so it is cleared too: otherwise the
    next run would plant its mutants in the deleted tree."""
    for _ in range(2):
        run = MutationEngine(
            mini_repo,
            cache_path=None,
            jobs=1,
            tiers=("sanitizer", "golden"),
            operators=(OPERATORS_BY_NAME["arith-swap"],),
        ).run(
            ("repro.core",),
            only_files=["src/repro/core/remuneration.py"],
        )
        split = [v for v in run.verdicts if v.qualname == "split_fee"]
        assert split and all(v.status == "killed" for v in split)
        assert not list(mini_repo.glob(".mutate-shadow/w*"))
