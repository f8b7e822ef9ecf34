"""Every module and every public name in ``src/repro`` has a reader
outside the tests.

The use audit that keeps an option only while a caller outside its own
unit test sets it, applied to whole files: a module stays while a
benchmark, a ``bench/`` workload, the CLI, ``run_experiment``, an
example or a kept ``src/`` module imports it.  ``docs/simulation.md``
("Options and modules") names one such importer per module; this test
holds the table to the tree.  A re-export is not a use, so the importer
is never the module's own package ``__init__.py``; a ``src/`` importer
must itself lead, importer by importer, to a file outside ``src/``.

The same rule applied to names: every public function, class and
method needs a use outside ``tests/``, counted by identifier to a
fixpoint, or a row in ``docs/simulation.md`` ("Names kept for tests")
that says why a test-only name stays and names a test that reads it.
"""

import ast
import functools
import re
from collections import defaultdict
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
KEPT_ROW = re.compile(
    r"^\| `(repro\.[\w.]+)` \| (\w+) \| `(tests/\w+\.py)::(\w+)` \|", re.MULTILINE
)
KEPT_KINDS = ("oracle", "probe", "fixture")
#: A string constant read as identifiers: ``"install"``, ``"a.b:c"``.
IDENTIFIER_STRING = re.compile(r"[A-Za-z_][\w.:]*")
WORD = re.compile(r"[A-Za-z_]\w*")
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


# -- names -------------------------------------------------------------------


def kept_table() -> dict[str, tuple[str, str, str]]:
    """Qualified name -> (kind, test file, test function)."""
    doc = AUDIT_DOC.read_text(encoding="utf-8")
    start = doc.index("## Names kept for tests")
    end = doc.find("\n## ", start + 1)
    section = doc[start:end if end >= 0 else len(doc)]
    return {name: rest for name, *rest in KEPT_ROW.findall(section)}


class _Uses(ast.NodeVisitor):
    """Collect one file's definitions and the identifiers it uses.

    Each use is filed under the top-level function, class or method it
    sits in (``None`` for module-level code and files outside
    ``src/repro``), so a definition's uses count only once it is used.
    """

    def __init__(self, path: Path, definitions: list, inside: dict, roots: set):
        self.module = (
            module_name(path) if path.is_relative_to(SRC / "repro") else None
        )
        self.reexports = path.name == "__init__.py"
        self.definitions = definitions
        self.inside = inside
        self.roots = roots
        self.scope: str | None = None

    def use(self, name: str) -> None:
        if self.scope is None:
            self.roots.add(name)
        elif self.scope != name:
            self.inside[self.scope].add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self.use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.use(node.attr)
        self.visit(node.value)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # A plain import is used where the name is; only a rename hides it.
        if not self.reexports:
            for alias in node.names:
                if alias.asname:
                    self.use(alias.name)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and IDENTIFIER_STRING.fullmatch(node.value):
            for part in re.split(r"[.:]", node.value):
                if part:
                    self.use(part)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(getattr(t, "id", None) == "__all__" for t in node.targets):
            self.generic_visit(node)

    def _define(self, node, qualname: str, exempt: bool, body: list) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.definitions.append((node.name, f"{self.module}.{qualname}", exempt))
        outer, self.scope = self.scope, node.name
        for child in body:
            self.visit(child)
        self.scope = outer

    def visit_FunctionDef(
        self, node: ast.FunctionDef, owner: str = "", exempt: bool = False
    ) -> None:
        if self.module is None or self.scope is not None:
            self.generic_visit(node)
            return
        body = [node.args, *node.body, *filter(None, [node.returns])]
        self._define(node, owner + node.name, exempt, body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.module is None or self.scope is not None:
            self.generic_visit(node)
            return
        # Dunders and ``visit_*`` are called by dispatch, so they live
        # and die with their class: their bodies count as the class's.
        methods = [
            item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith(("__", "visit_"))
        ]
        body = [*node.bases, *node.keywords]
        body += [item for item in node.body if item not in methods]
        registered = any(getattr(d, "id", None) == "register" for d in node.decorator_list)
        self._define(node, node.name, registered, body)
        for method in methods:
            self.visit_FunctionDef(method, f"{node.name}.", registered)


def _reader_files() -> list[Path]:
    files = []
    for root in READER_ROOTS:
        files += sorted((ROOT / root).rglob("*.py"))
    files += sorted(p for p in (ROOT / ".github").rglob("*") if p.suffix in (".yml", ".yaml"))
    return files


@functools.cache
def unread_names() -> frozenset[str]:
    """Qualified public names nothing outside ``tests/`` reaches."""
    definitions: list[tuple[str, str, bool]] = []
    inside: dict[str, set[str]] = defaultdict(set)
    roots: set[str] = set()
    for path in _reader_files():
        if path.suffix == ".py":
            collector = _Uses(path, definitions, inside, roots)
            collector.visit(_parse(path))
        else:
            roots.update(WORD.findall(path.read_text(encoding="utf-8")))
    roots |= {name for name, _, exempt in definitions if exempt}
    live: set[str] = set()
    frontier = list(roots)
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            frontier.extend(inside.get(name, ()))
    return frozenset(
        qualname
        for name, qualname, _ in definitions
        if name not in live and not name.startswith("_")
    )


def test_every_public_name_is_read_outside_the_tests_or_kept():
    unread, kept = unread_names(), set(kept_table())
    assert unread == kept, (
        f"read only by tests, without a kept row: {sorted(unread - kept)}; "
        f"kept rows with a reader outside tests/ or no definition: "
        f"{sorted(kept - unread)}"
    )


def test_each_kept_name_has_a_kind_and_a_test_that_reads_it():
    for name, (kind, test_file, test_name) in kept_table().items():
        assert kind in KEPT_KINDS, (name, kind)
        tests = {
            node.name: node
            for node in _parse(ROOT / test_file).body
            if isinstance(node, ast.FunctionDef)
        }
        assert test_name in tests, f"{name}: no {test_file}::{test_name}"
        bare = name.rpartition(".")[2]
        read = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(tests[test_name])
        }
        assert bare in read, f"{test_file}::{test_name} does not read {bare}"
