"""Per-module extraction: AST → :class:`ModuleSummary`.

One pass over each module builds the symbol tables and, per function,
its parameters and every call site classified for later resolution.
Calls inside nested ``def``/``class`` bodies belong to those scopes and
are not recorded; calls inside lambdas and comprehensions are.
Resolution is deliberately approximate: self-calls, local names and
imports resolve, duck-typed receivers do not.
"""

from __future__ import annotations

import ast
import hashlib
from collections import deque
from typing import Iterator

from ..rules import resolve_import_from
from .model import CallSite, ClassSummary, FunctionSummary, ModuleSummary


def content_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _extract_imports(
    tree: ast.Module, module: str
) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Local alias maps with relative imports resolved to absolute."""
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                modules[local] = target
        elif isinstance(node, ast.ImportFrom):
            origin = resolve_import_from(module, node)
            for alias in node.names:
                local = alias.asname or alias.name
                names[local] = (origin, alias.name)
    return modules, names


# -- set / tuple-dict identifier harvests (feed NG301 / NG303) ---------------


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
    heisenbug.  The index unions these per-module tuples project-wide.
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


# -- per-function summary ----------------------------------------------------


def _calls_in(body: list[ast.stmt]) -> Iterator[ast.Call]:
    """Every call in ``body``, breadth first, skipping nested scopes."""
    todo: deque[ast.AST] = deque(body)
    while todo:
        node = todo.popleft()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def _module_of(node: ast.expr, import_modules: dict[str, str]) -> str | None:
    """The module an ``alias`` / ``alias.sub`` expression names, if any."""
    if isinstance(node, ast.Name):
        return import_modules.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _module_of(node.value, import_modules)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def _classify_call(
    call: ast.Call,
    *,
    local_names: set[str],
    import_names: dict[str, tuple[str, str]],
    import_modules: dict[str, str],
    is_method: bool,
) -> CallSite:
    func = call.func
    kind = "unknown"
    target: tuple[str, ...] = ()
    if isinstance(func, ast.Name):
        name = func.id
        if name in local_names:
            kind, target = "local", (name,)
        elif name in import_names:
            kind, target = "import", import_names[name]
    elif isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name) and base.id == "self" and is_method:
            kind, target = "self", (func.attr,)
        else:
            module = _module_of(base, import_modules)
            if module is not None:
                kind, target = "module", (module, func.attr)
    return CallSite(call.lineno, kind, target)


# -- module extraction -------------------------------------------------------


def _resolve_base(
    base: ast.expr,
    *,
    module: str,
    local_classes: set[str],
    import_names: dict[str, tuple[str, str]],
    import_modules: dict[str, str],
) -> str | None:
    if isinstance(base, ast.Name):
        name = base.id
        if name in local_classes:
            return f"{module}.{name}" if module else name
        if name in import_names:
            origin, original = import_names[name]
            return f"{origin}.{original}" if origin else original
        return name
    if isinstance(base, ast.Attribute):
        origin = None
        if isinstance(base.value, ast.Name):
            origin = import_modules.get(base.value.id)
        if origin is not None:
            return f"{origin}.{base.attr}"
        return base.attr
    return None


def extract_module(
    tree: ast.Module,
    *,
    display_path: str,
    module: str,
    sha: str,
) -> ModuleSummary:
    """Build one module's summary (the unit of index state)."""
    import_modules, import_names = _extract_imports(tree, module)
    local_classes = {
        node.name for node in tree.body if isinstance(node, ast.ClassDef)
    }
    local_names = local_classes | {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def summarize(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool
    ) -> FunctionSummary:
        args = fn.args
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        calls = tuple(
            _classify_call(
                call,
                local_names=local_names,
                import_names=import_names,
                import_modules=import_modules,
                is_method=is_method,
            )
            for call in _calls_in(fn.body)
        )
        return FunctionSummary(
            name=fn.name,
            lineno=fn.lineno,
            params=tuple(a.arg for a in ordered),
            is_method=is_method,
            calls=calls,
        )

    functions: dict[str, FunctionSummary] = {}
    classes: dict[str, ClassSummary] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = summarize(node, is_method=False)
        elif isinstance(node, ast.ClassDef):
            methods = {
                item.name: summarize(item, is_method=True)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            bases = []
            for base in node.bases:
                resolved = _resolve_base(
                    base,
                    module=module,
                    local_classes=local_classes,
                    import_names=import_names,
                    import_modules=import_modules,
                )
                if resolved is not None:
                    bases.append(resolved)
            classes[node.name] = ClassSummary(
                name=node.name,
                lineno=node.lineno,
                bases=tuple(bases),
                methods=methods,
            )

    return ModuleSummary(
        display_path=display_path,
        module=module,
        sha=sha,
        import_modules=import_modules,
        import_names=import_names,
        functions=functions,
        classes=classes,
        set_idents=harvest_set_idents(tree),
        tuple_dict_idents=harvest_tuple_dict_idents(tree),
    )
