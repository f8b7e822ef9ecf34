"""Semantic index tests: symbol tables, call graph, determinism.

The fixture package under ``tests/semantic_fixtures/`` is the golden
input: small modules exercising versioned classes, self-call bump
coverage, and cross-module call edges.  The planted-bug tests then
prove NG601 catches real violations: the real mempool and UTXO set with
any one `self.version += 1` deleted must trip it.
"""

import ast
import shutil
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.semantic import build_index

FIXTURES = Path(__file__).parent / "semantic_fixtures"
SRC = Path(__file__).parent.parent / "src"


def _parse_dir(directory: Path):
    parsed = []
    for path in sorted(directory.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        parsed.append(
            (
                path.as_posix(),
                path.stem,
                ast.parse(source),
                source.splitlines(),
                source,
            )
        )
    return parsed


def _fixture_index():
    return build_index(_parse_dir(FIXTURES))


# -- symbol tables -----------------------------------------------------------


def test_symbol_table_golden():
    index = _fixture_index()
    ledger = index.module_named("ledger")
    assert ledger is not None
    store = ledger.classes["Store"]
    assert store.versioned
    assert sorted(store.methods) == ["__init__", "drop", "put", "put_many"]
    put = store.methods["put"]
    assert put.params == ("self", "key", "value")
    assert put.is_method
    assert [w.target for w in put.self_writes] == ["items"]
    assert put.bump_formula is True
    # put_many bumps through the self-call; drop bumps past a guard.
    assert store.methods["put_many"].bump_formula == ("call", "put")
    assert store.methods["drop"].bump_formula is True


# -- call graph --------------------------------------------------------------


def test_cross_module_call_resolution():
    index = _fixture_index()
    flows = index.module_named("flows")
    (call,) = [
        c for c in flows.functions["touch"].calls if c.kind == "import"
    ]
    assert call.target == ("helpers", "mutate_store")
    resolved = index.resolve_call(flows, None, call.kind, call.target)
    assert resolved is not None
    key, fn = resolved
    assert key.function == "mutate_store"
    assert key.display_path.endswith("helpers.py")


# -- determinism -------------------------------------------------------------


def test_index_json_is_byte_identical_across_builds():
    """Two builds of the same sources compare equal, summary by summary.

    The index never leaves the process (no JSON since the on-disk cache
    went); what still leans on this is ``repro.mutate``'s site
    enumeration, which must name the same sites run after run.
    """
    first = _fixture_index()
    second = build_index(_parse_dir(FIXTURES))
    assert first.modules == second.modules
    assert list(first.modules) == list(second.modules)


# -- NG601 planted bugs -------------------------------------------------------


def test_escape_via_self_call_is_flagged():
    """A write escaping through `self._push` flags caller and helper."""
    report = lint_paths([FIXTURES / "leaky.py"])
    assert [f.code for f in report.findings] == ["NG601", "NG601"]
    by_line = sorted(report.findings, key=lambda f: f.line)
    assert "_push" in by_line[0].message
    assert "push" in by_line[1].message
    # The caller's why-path walks through the self-call to the write.
    caller = by_line[1]
    assert any("self._push" in step for step in caller.why)
    assert any("self.rows" in step for step in caller.why)


BUMP = "self.version += 1"

#: (file, method whose bump is dropped, callers the write escapes through)
BUMP_SITES = [
    ("mempool.py", "Mempool.add", {"Mempool.seed"}),
    ("mempool.py", "Mempool.remove", {"Mempool.evict_conflicts"}),
    ("mempool.py", "Mempool.clear", set()),
    ("utxo.py", "UtxoSet.apply", set()),
    ("utxo.py", "UtxoSet.undo", set()),
    ("utxo.py", "UtxoSet.credit", set()),
]


@pytest.fixture
def ledger_copy(tmp_path):
    """The real ``repro.ledger`` sources, under a path lint reads as such."""
    copy = tmp_path / "repro" / "ledger"
    shutil.copytree(
        SRC / "repro" / "ledger", copy,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    assert lint_paths([copy], codes=("NG601",)).findings == []
    return copy


@pytest.mark.parametrize(
    "filename, method, callers", BUMP_SITES, ids=[s[1] for s in BUMP_SITES]
)
def test_dropped_version_bump_is_ng601(ledger_copy, filename, method, callers):
    """Every bump the incremental sanitizer trusts is one NG601 guards.

    Drops, in turn, each ``self.version += 1`` of the real mempool and
    UTXO set: the method that lost it is flagged, and so is each method
    whose write reaches it by a self-call — nothing else.
    """
    path = ledger_copy / filename
    source = path.read_text(encoding="utf-8")
    in_file = [site[1] for site in BUMP_SITES if site[0] == filename]
    assert source.count(BUMP) == len(in_file)
    pieces = source.split(BUMP)
    nth = in_file.index(method)
    path.write_text(
        BUMP.join(pieces[: nth + 1]) + "pass" + BUMP.join(pieces[nth + 1 :]),
        encoding="utf-8",
    )
    findings = lint_paths([ledger_copy], codes=("NG601",)).findings
    assert {f.code for f in findings} == {"NG601"}
    assert {f.message.split("`")[1] for f in findings} == {method} | callers


def test_real_tree_has_no_semantic_findings():
    report = lint_paths([SRC], codes=["NG601"])
    assert report.findings == [], "\n".join(
        f.format(show_why=True) for f in report.findings
    )
