"""Rule-level analyzer tests: every code triggers, suppresses, passes.

The fixture files under ``tests/lint_fixtures/`` are the ground truth:
``{CODE}_bad.py`` must yield exactly one finding with that code,
``{CODE}_good.py`` must be clean, and ``{CODE}_suppressed.py`` is the
bad snippet silenced by an inline ``# repro: allow[CODE]`` comment.
The bad/good files are pinned byte-for-byte to the examples embedded in
the rule classes, which is what makes ``repro lint --explain`` and the
fixtures a single source of truth.
"""

from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths
from repro.lint.engine import (
    harvest_set_idents,
    harvest_tuple_dict_idents,
    infer_module,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
ALL_CODES = sorted(RULES)


def test_rules_span_four_families():
    families = {code[:3] for code in ALL_CODES}
    assert families == {"NG1", "NG2", "NG3", "NG4"}
    assert ALL_CODES == [
        "NG101", "NG102", "NG104", "NG201", "NG202",
        "NG301", "NG302", "NG303", "NG401",
    ]


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_triggers_exactly_its_code(code):
    report = lint_paths([FIXTURES / f"{code}_bad.py"])
    assert [f.code for f in report.findings] == [code]
    finding = report.findings[0]
    assert finding.line >= 1
    assert finding.snippet  # carries the offending source line
    assert finding.message


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_is_clean(code):
    report = lint_paths([FIXTURES / f"{code}_good.py"])
    assert report.findings == []
    assert report.suppressed == 0


@pytest.mark.parametrize("code", ALL_CODES)
def test_suppressed_fixture_is_silenced_but_counted(code):
    report = lint_paths([FIXTURES / f"{code}_suppressed.py"])
    assert report.findings == []
    assert report.suppressed == 1


@pytest.mark.parametrize("code", ALL_CODES)
def test_fixtures_match_rule_embedded_examples(code):
    """``--explain`` and the fixture tree share one source of truth."""
    rule = RULES[code]
    bad = (FIXTURES / f"{code}_bad.py").read_text(encoding="utf-8")
    good = (FIXTURES / f"{code}_good.py").read_text(encoding="utf-8")
    assert bad == rule.bad_example
    assert good == rule.good_example


def test_fixture_directory_yields_one_finding_per_code():
    """The seeded fixture tree: exactly the expected findings, no more."""
    report = lint_paths([FIXTURES])
    assert sorted(f.code for f in report.findings) == ALL_CODES
    assert report.suppressed == len(ALL_CODES)


def test_rule_selection_by_code(tmp_path):
    report = lint_paths([FIXTURES], codes=["NG101"])
    assert sorted(f.code for f in report.findings) == ["NG101"]
    with pytest.raises(KeyError):
        lint_paths([FIXTURES], codes=["NG999"])


# -- the cross-module set-type harvest (what catches topology.edges) --------


def test_harvest_finds_annotations_across_modules(tmp_path):
    """A set declared in one module flags iteration in another."""
    decl = tmp_path / "decl.py"
    decl.write_text(
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Topo:\n"
        "    edges: set[frozenset[int]] = field(default_factory=set)\n",
        encoding="utf-8",
    )
    use = tmp_path / "use.py"
    use.write_text(
        "def wire(topo, net, rng):\n"
        "    for edge in topo.edges:\n"
        "        net.send(0, 1, rng.random())\n",
        encoding="utf-8",
    )
    report = lint_paths([tmp_path])
    assert [f.code for f in report.findings] == ["NG301"]
    assert report.findings[0].path.endswith("use.py")


def test_harvest_identifier_sources():
    import ast

    tree = ast.parse(
        "peers: set[int] = set()\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.blocked = frozenset()\n"
        "    def f(self, group: frozenset[int] | None):\n"
        "        inline = {1, 2}\n"
    )
    names = set(harvest_set_idents(tree))
    assert {"peers", "blocked", "group", "inline"} <= names


def test_ordered_iteration_not_flagged(tmp_path):
    """sorted()/list views over sets are the approved pattern."""
    ok = tmp_path / "ok.py"
    ok.write_text(
        "def flood(net, peers: set[int], message) -> None:\n"
        "    for peer in sorted(peers):\n"
        "        net.send(0, peer, message)\n"
        "    for peer in peers:\n"
        "        print(peer)  # no scheduling/RNG in the body\n",
        encoding="utf-8",
    )
    assert lint_paths([ok]).findings == []


# -- the tuple-keyed dict harvest and the NG303 net-layer scope -------------


def test_tuple_dict_iteration_flagged_only_inside_net(tmp_path):
    """Harvest is project-wide; the rule fires only in repro.net."""
    decl = tmp_path / "decl.py"
    decl.write_text(
        "class Seed:\n"
        "    links: dict[tuple[int, int], float]\n",
        encoding="utf-8",
    )
    loop = (
        "def total(links) -> float:\n"
        "    acc = 0.0\n"
        "    for pair in links:\n"
        "        acc += 1.0\n"
        "    return acc\n"
    )
    inside = tmp_path / "inside.py"
    inside.write_text(
        "# repro-lint: module=repro.net.stats\n" + loop, encoding="utf-8"
    )
    outside = tmp_path / "outside.py"
    outside.write_text(
        "# repro-lint: module=repro.experiments.stats\n" + loop,
        encoding="utf-8",
    )
    report = lint_paths([tmp_path], codes=["NG303"])
    assert [f.code for f in report.findings] == ["NG303"]
    assert report.findings[0].path.endswith("inside.py")


def test_tuple_dict_point_lookup_not_flagged(tmp_path):
    """Point lookups are the approved use; only iteration is a finding."""
    ok = tmp_path / "ok.py"
    ok.write_text(
        "# repro-lint: module=repro.net.lookup\n"
        "def eid(table: dict[tuple[int, int], int], s: int, d: int) -> int:\n"
        "    return table[(s, d)]\n",
        encoding="utf-8",
    )
    assert lint_paths([ok]).findings == []


def test_tuple_dict_harvest_identifier_sources():
    import ast

    tree = ast.parse(
        "class Net:\n"
        "    def __init__(self):\n"
        "        self.eids: dict[tuple[int, int], int] = {}\n"
        "        self.by_node: dict[int, list[int]] = {}\n"
        "def f(grid: dict[tuple[str, int], float]) -> None:\n"
        "    pass\n"
    )
    names = set(harvest_tuple_dict_idents(tree))
    assert {"eids", "grid"} <= names
    assert "by_node" not in names


def test_module_inference_and_directive(tmp_path):
    assert infer_module(Path("src/repro/net/network.py")) == "repro.net.network"
    assert infer_module(Path("src/repro/net/__init__.py")) == "repro.net"
    assert infer_module(Path("somewhere/helper.py")) == "helper"
    # The fixture directive claims a module identity, enabling
    # allowlist rules to pass outside the real tree.
    claimed = tmp_path / "claimed.py"
    claimed.write_text(
        "# repro-lint: module=repro.crypto.entropy\n"
        "import os\n"
        "def e() -> bytes:\n"
        "    return os.urandom(8)\n",
        encoding="utf-8",
    )
    assert lint_paths([claimed]).findings == []


def test_src_tree_is_clean():
    """The merged tree carries zero findings and zero frozen debt."""
    src = Path(__file__).parent.parent / "src"
    report = lint_paths([src])
    assert report.findings == [], "\n".join(
        f.format() for f in report.findings
    )
