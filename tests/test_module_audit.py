"""Every module in ``src/repro`` has a reader outside the tests.

The use audit that keeps an option only while a caller outside its own
unit test sets it, applied to whole files: a module stays while a
benchmark, a ``bench/`` workload, the CLI, ``run_experiment``, an
example or a kept ``src/`` module imports it.  ``docs/simulation.md``
("Options and modules") names one such importer per module; this test
holds the table to the tree.  A re-export is not a use, so the importer
is never the module's own package ``__init__.py``; a ``src/`` importer
must itself lead, importer by importer, to a file outside ``src/``.
"""

import ast
import functools
import re
from pathlib import Path

import repro

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"
AUDIT_DOC = ROOT / "docs" / "simulation.md"

#: Where a module's reader may live: the system itself, the benchmark
#: and the figure regenerators, the examples, and CI (which starts the
#: CLI with ``python -m repro``).
READER_ROOTS = ("src/", "bench/", "benchmarks/", "examples/", ".github/")

ROW = re.compile(r"^\| `(repro[\w.]*)` \| `([^`]+)` \|", re.MULTILINE)
RUN_AS_MAIN = re.compile(r"(?:python3? -m |\"-m\", \")(repro[\w.]*)")


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def module_path(name: str) -> Path:
    base = SRC.joinpath(*name.split("."))
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


def audit_table() -> dict[str, str]:
    doc = AUDIT_DOC.read_text(encoding="utf-8")
    start = doc.index("## Options and modules")
    section = doc[start:doc.index("\n## ", start + 1)]
    return dict(ROW.findall(section))


@functools.cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _absolute(path: Path, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    if not path.is_relative_to(SRC):
        return ""
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    package = package[: len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


@functools.cache
def _defining(base: str, name: str) -> frozenset[str]:
    """The modules ``from base import name`` reads, re-exports followed."""
    target = f"{base}.{name}"
    if module_path(target).exists():
        return frozenset({target})
    path = module_path(base)
    if not base.startswith("repro") or not path.exists():
        return frozenset()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    origin = _absolute(path, node)
                    return frozenset({origin}) | _defining(origin, alias.name)
    return frozenset()


@functools.cache
def imported_modules(path: Path) -> set[str]:
    """Every module ``path`` imports or starts with ``-m``."""
    text = path.read_text(encoding="utf-8")
    found = set()
    for started in RUN_AS_MAIN.findall(text):
        found |= {started, f"{started}.__main__"}
    if path.suffix != ".py":
        return found
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(path, node)
            found.add(base)
            for alias in node.names:
                found |= _defining(base, alias.name)
    return found


def names(importer: str, module: str) -> bool:
    """Importing a package's submodule runs the package's ``__init__``."""
    found = imported_modules(ROOT / importer)
    if module_path(module).name == "__init__.py":
        return any(m == module or m.startswith(module + ".") for m in found)
    return module in found


def test_the_table_lists_every_module_once():
    modules = sorted(module_name(p) for p in (SRC / "repro").rglob("*.py"))
    table = audit_table()
    assert sorted(table) == modules, (
        f"modules without a row: {sorted(set(modules) - set(table))}; "
        f"rows without a module: {sorted(set(table) - set(modules))}"
    )


def test_each_importer_is_a_reader_outside_the_tests():
    for module, importer in audit_table().items():
        own, package_init = (
            module_path(name).relative_to(ROOT).as_posix()
            for name in (module, module.rpartition(".")[0])
        )
        assert importer.startswith(READER_ROOTS), (module, importer)
        assert (ROOT / importer).is_file(), (module, importer)
        assert importer not in (own, package_init), (module, importer)
        assert names(importer, module), f"{importer} does not import {module}"


def test_src_importers_lead_out_of_src():
    table = audit_table()
    for module, importer in table.items():
        seen = {module}
        while importer.startswith("src/"):
            module = module_name(ROOT / importer)
            assert module not in seen, f"import cycle through {module}"
            seen.add(module)
            importer = table[module]


def test_the_package_lists_only_what_exists():
    for name in repro.__all__:
        assert module_path(f"repro.{name}").exists(), name
