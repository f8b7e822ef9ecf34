"""The analyzer driver: collect files, harvest identifiers, run the rules.

One lint run has three stages:

1. parse every scanned file once;
2. harvest, per module, the identifiers it types or builds as a set
   (NG301) or annotates as a tuple-keyed dict (NG303), and union them
   project-wide — a name declared in one module is iterated in another;
3. run the per-module AST rules (one visitor instance per rule ×
   module), then drop what an inline suppression allows.

Findings come out sorted by (path, line, code) so output is stable for
tests and CI diffs.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .findings import Finding, is_suppressed
from .rules import ImportMap, ModuleContext, Rule, all_rules

#: Fixture files (and only fixtures) may claim a module identity so
#: layer/allowlist rules can be exercised outside the real tree.
MODULE_DIRECTIVE_RE = re.compile(
    r"#\s*repro-lint:\s*module=([A-Za-z_][\w.]*)"
)
#: How many leading lines are searched for the module directive.
DIRECTIVE_WINDOW = 5

JSON_SCHEMA_VERSION = 4


@dataclass
class LintReport:
    """Outcome of one analyzer run."""

    findings: list[Finding]  #: surviving findings (fail the run)
    suppressed: int  #: hits silenced by inline ``# repro: allow[...]``
    files_scanned: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_payload(self) -> dict[str, Any]:
        """The ``repro lint --json`` document."""
        return {
            "version": JSON_SCHEMA_VERSION,
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "files_scanned": self.files_scanned,
                "findings": len(self.findings),
                "suppressed": self.suppressed,
            },
        }


@dataclass
class _ParsedModule:
    display_path: str
    module: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" not in candidate.parts:
                    seen.setdefault(candidate, None)
        elif path.suffix == ".py":
            seen.setdefault(path, None)
        else:
            raise FileNotFoundError(f"not a .py file or directory: {path}")
    return sorted(seen)


def infer_module(path: Path) -> str:
    """Dotted module name, anchored at the last ``repro`` path part."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[anchor:])
    return parts[-1] if parts else ""


def _module_name(path: Path, lines: list[str]) -> str:
    for line in lines[:DIRECTIVE_WINDOW]:
        match = MODULE_DIRECTIVE_RE.search(line)
        if match:
            return match.group(1)
    return infer_module(path)


def _parse(path: Path) -> _ParsedModule:
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # Python itself refuses an undecodable source file with a
        # SyntaxError; report it the same way, naming the file.
        raise SyntaxError(
            f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    return _ParsedModule(
        display_path=path.as_posix(),
        module=_module_name(path, lines),
        tree=tree,
        lines=lines,
    )


def _annotation_is_setlike(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in (
            "set",
            "frozenset",
            "Set",
            "FrozenSet",
        ):
            return True
    return False


def _annotation_is_tuple_keyed_dict(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("dict", "Dict")
            and isinstance(node.slice, ast.Tuple)
            and node.slice.elts
        ):
            key = node.slice.elts[0]
            for part in ast.walk(key):
                if isinstance(part, ast.Name) and part.id in ("tuple", "Tuple"):
                    return True
    return False


def _target_identifier(target: ast.expr) -> str | None:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        return target.attr
    return None


def harvest_set_idents(tree: ast.Module) -> tuple[str, ...]:
    """Identifiers this module declares or builds as set/frozenset.

    Over-approximates on purpose (a name counts if the module types it
    as a set anywhere): the consumer rule (NG301) only fires when the
    loop body is effectful, and a stray hit is one ``sorted()`` or
    inline suppression away — cheap compared to a silent ordering
    heisenbug.  :func:`lint_paths` unions these per-module tuples
    project-wide.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            if _annotation_is_setlike(node.annotation):
                identifier = _target_identifier(node.target)
                if identifier:
                    names.add(identifier)
        elif isinstance(node, ast.arg):
            if _annotation_is_setlike(node.annotation):
                names.add(node.arg)
        elif isinstance(node, ast.Assign):
            value = node.value
            is_set_value = isinstance(value, ast.Set) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "frozenset")
            )
            if is_set_value:
                for target in node.targets:
                    identifier = _target_identifier(target)
                    if identifier:
                        names.add(identifier)
    return tuple(sorted(names))


def harvest_tuple_dict_idents(tree: ast.Module) -> tuple[str, ...]:
    """Identifiers this module annotates as ``dict[tuple[...], ...]``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            if _annotation_is_tuple_keyed_dict(node.annotation):
                identifier = _target_identifier(node.target)
                if identifier:
                    names.add(identifier)
        elif isinstance(node, ast.arg):
            if _annotation_is_tuple_keyed_dict(node.annotation):
                names.add(node.arg)
    return tuple(sorted(names))


def lint_paths(
    paths: Sequence[str | Path],
    *,
    codes: Sequence[str] | None = None,
) -> LintReport:
    """Run every registered rule over ``paths``, minus inline suppressions.

    ``codes`` restricts the run to a subset of rule codes (used by the
    fixture tests to exercise one rule at a time).
    """
    files = collect_files(paths)
    modules = [_parse(path) for path in files]
    set_attrs = frozenset(
        name for m in modules for name in harvest_set_idents(m.tree)
    )
    tuple_dict_attrs = frozenset(
        name for m in modules for name in harvest_tuple_dict_idents(m.tree)
    )

    selected = all_rules()
    if codes is not None:
        unknown = set(codes) - {rule.code for rule in selected}
        if unknown:
            raise KeyError(f"unknown rule codes: {sorted(unknown)}")
        selected = [rule for rule in selected if rule.code in set(codes)]

    raw: list[Finding] = []
    suppressed = 0
    for parsed in modules:
        context = ModuleContext(
            path=parsed.display_path,
            module=parsed.module,
            lines=parsed.lines,
            imports=ImportMap.of(parsed.tree),
            set_attrs=set_attrs,
            tuple_dict_attrs=tuple_dict_attrs,
        )
        for rule_cls in selected:
            if not rule_cls.applies_to(parsed.module):
                continue
            rule: Rule = rule_cls(context)
            rule.visit(parsed.tree)
            for finding in rule.findings:
                if is_suppressed(finding, parsed.lines):
                    suppressed += 1
                else:
                    raw.append(finding)

    raw.sort(key=lambda f: (f.path, f.line, f.code))
    return LintReport(
        findings=raw,
        suppressed=suppressed,
        files_scanned=len(files),
    )
