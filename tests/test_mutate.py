"""Mutation subsystem tests: operators, sites, engine, cache, pipeline.

The planted-bug ports at the bottom replace hand-rolled plant-and-check
tests with assertions through the real kill pipeline: the deleted
version bump that ``test_lint_semantic`` used to plant by string
replacement is now the ``bump-del`` operator killed at the lint tier,
and the overpaying fee split that ``test_sanitizer`` builds by hand is
the ``frac-swap``/``arith-swap`` operators on ``core/remuneration.py``
killed by the probe — one pipeline, one assertion style, per defect.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.mutate.engine import (
    MutationEngine,
    MutantVerdict,
    ShadowTree,
    companion_test,
)
from repro.mutate.operators import (
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
from repro.mutate.sites import build_site_index, enumerate_sites

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


def test_bump_del_removes_version_bumps_only():
    source, mutants = _mutants(
        """
        class Store:
            def put(self, key):
                self.items[key] = 1
                self.version += 1
                self.count += 1
        """,
        {"Store.put"},
        "bump-del",
    )
    assert [m.original for m in mutants] == ["self.version += 1"]
    assert "self.version" not in mutants[0].apply(source)
    assert "self.count += 1" in mutants[0].apply(source)


def test_rng_swap_needs_two_streams():
    source, mutants = _mutants(
        """
        def draw(rng_mining, rng_latency):
            return rng_mining.random() + rng_latency.random()
        """,
        {"draw"},
        "rng-swap",
    )
    assert mutants, "two streams present: swaps must be generated"
    assert all(m.original != m.replacement for m in mutants)

    _, none = _mutants(
        """
        def draw(rng_mining):
            return rng_mining.random()
        """,
        {"draw"},
        "rng-swap",
    )
    assert none == []


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
    index = build_site_index(SRC)
    sites = enumerate_sites(index)
    key = next(p for p in sites.files if p.endswith("ledger/utxo.py"))
    mutants = generate_mutants(path, source, set(sites.files[key]))
    assert mutants
    ids = [m.mutant_id for m in mutants]
    assert len(ids) == len(set(ids)), "mutant ids must be unique"
    for mutant in mutants:
        assert mutant.apply(source) != source


# -- site enumeration --------------------------------------------------------


def test_sites_cover_adapter_reachable_versioned_and_anchor():
    index = build_site_index(SRC)
    sites = enumerate_sites(index)
    by_suffix = {
        Path(p).name: (p, sites.reasons[p]) for p in sites.files
    }
    assert "adapter-reachable" in by_suffix["chain.py"][1]
    assert "versioned-class" in by_suffix["utxo.py"][1]
    assert "anchor-module" in by_suffix["incentives.py"][1]
    incentives_path = by_suffix["incentives.py"][0]
    assert "<module>" in sites.files[incentives_path]
    assert sites.n_roots > 0
    assert sites.n_sites >= 100
    # Everything admitted lives in the consensus packages.
    for path in sites.files:
        assert any(
            seg in path
            for seg in (
                "/core/",
                "/ledger/",
                "/crypto/",
                "/mining/",
                "/bitcoin/chain.py",
                "/bitcoin/node.py",
                "/ghost/",
            )
        ), path


def test_sites_respect_package_filter():
    index = build_site_index(SRC)
    ledger_only = enumerate_sites(index, ("repro.ledger",))
    assert ledger_only.files
    assert all("/ledger/" in p for p in ledger_only.files)


def test_companion_test_mapping():
    assert (
        companion_test("src/repro/core/chain.py")
        == "tests/test_core_chain.py"
    )
    assert (
        companion_test("src/repro/ledger/utxo.py")
        == "tests/test_ledger_utxo.py"
    )


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
            _verdict("a", "cmp-flip", "killed", "lint"),
            _verdict("b", "cmp-flip", "killed", "tests"),
            _verdict("c", "cmp-flip", "survived", ""),
            _verdict("d", "sig-drop", "killed", "golden",
                     path="src/repro/core/y.py"),
        ]
    )
    matrix = kill_matrix(run)
    assert matrix["cmp-flip"]["lint"] == 1
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
    assert section["kills_by_tier"]["lint"] == 1


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


# -- the pipeline on a hermetic repo copy ------------------------------------


@pytest.fixture(scope="module")
def mini_repo(tmp_path_factory):
    """A trimmed repo copy: full src tree, no tests, isolated caches."""
    root = tmp_path_factory.mktemp("mutrepo")
    shutil.copytree(SRC, root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_ported_planted_bump_del_dies_in_lint_tier(mini_repo):
    """The NG601 plant, through the real pipeline.

    ``test_lint_semantic`` used to delete a ``self.version += 1`` by
    string replacement and assert NG601 by hand; here the ``bump-del``
    operator plants the same defect in every versioned method and the
    lint tier must kill every one — no probe, no pytest, pure static.
    """
    engine = MutationEngine(
        mini_repo,
        cache_path=None,
        tiers=("lint",),
        operators=(OPERATORS_BY_NAME["bump-del"],),
    )
    run = engine.run(("repro.ledger",))
    bump_dels = [v for v in run.verdicts if v.operator == "bump-del"]
    assert len(bump_dels) >= 3  # apply/undo/credit at minimum
    for verdict in bump_dels:
        assert verdict.status == "killed"
        assert verdict.tier == "lint"
        assert verdict.detail.startswith("NG601")


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
        tiers=("lint",),
        operators=(OPERATORS_BY_NAME["bump-del"],),
    )
    cold = MutationEngine(mini_repo, **kwargs).run(("repro.ledger",))
    assert cold.cache_misses == len(cold.verdicts)
    assert cache.exists()

    warm = MutationEngine(mini_repo, **kwargs).run(("repro.ledger",))
    assert warm.cache_hits == len(warm.verdicts)
    assert warm.cache_misses == 0
    assert [v.to_dict() for v in warm.verdicts] == [
        v.to_dict() for v in cold.verdicts
    ]
