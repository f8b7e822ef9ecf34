"""Every keyed cache in ``src/repro`` has a row in the cache ledger.

A cache is a fork — a cold path, a warm path and an invalidation
argument — so one stays only where a committed measurement says the
warm path pays.  ``docs/simulation.md`` ("Caches: what is kept, what it
buys") holds that measurement per cache; this test holds the list of
files that may contain one.  A new ``*Cache`` class, ``lru_cache`` or
``_cache`` attribute in any other file fails here until the ledger has
its row (and its number) and the file is added below.
"""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
LEDGER_DOC = ROOT / "docs" / "simulation.md"

#: ``class`` is anchored at column 0, so a ``class FooCache`` inside an
#: indented example string does not count.
CACHE_MARK = re.compile(
    r"^class \w*Cache\b|lru_cache|functools\.cache\b|\w_cache\b",
    re.MULTILINE,
)

#: Files that may hold a keyed cache, with their ledger rows.
LEDGERED = [
    "mutate/engine.py",  # row 9
    "net/latency.py",  # row 8
    "sanitizer/__init__.py",  # re-exports row 5's names
    "sanitizer/checkers.py",  # row 5
]


def test_only_ledgered_files_hold_a_cache():
    found = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if CACHE_MARK.search(path.read_text(encoding="utf-8"))
    )
    assert found == LEDGERED


def test_every_ledgered_file_is_named_in_the_ledger():
    doc = LEDGER_DOC.read_text(encoding="utf-8")
    start = doc.index("## Caches: what is kept, what it buys")
    section = doc[start:doc.index("\n## ", start + 1)]
    for path in LEDGERED:
        if path.endswith("__init__.py"):
            continue  # re-exports only
        assert path in section, f"no ledger row names {path}"
    rows = [line for line in section.splitlines() if re.match(r"\| \d+ \|", line)]
    assert len(rows) == 10
