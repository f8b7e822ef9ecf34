"""Semantic index tests: symbol tables, call graph, determinism.

The fixture package under ``tests/semantic_fixtures/`` is the golden
input: small modules exercising a container class with self-calls and
cross-module call edges.
"""

import ast
from pathlib import Path

from repro.lint.semantic import build_index

FIXTURES = Path(__file__).parent / "semantic_fixtures"


def _parse_dir(directory: Path):
    parsed = []
    for path in sorted(directory.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        parsed.append(
            (
                path.as_posix(),
                path.stem,
                ast.parse(source),
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
    assert sorted(store.methods) == ["__init__", "drop", "put", "put_many"]
    put = store.methods["put"]
    assert put.params == ("self", "key", "value")
    assert put.is_method
    # put_many reaches put through a self-call the index resolves.
    (call,) = store.methods["put_many"].calls
    assert (call.kind, call.target) == ("self", ("put",))
    key, _ = index.resolve_call(ledger, store, call.kind, call.target)
    assert (key.class_name, key.function) == ("Store", "put")


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
