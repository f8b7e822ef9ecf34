"""Per-module extraction: AST → :class:`ModuleSummary`.

One pass over each module builds the symbol tables and, per function, a
summary: which ``self`` attributes it writes, whether every path bumps
``self.version``, and every call site classified for later resolution.

The analyses are deliberately approximate, always in the direction that
*under*-reports:

* **Taint** tracks ``self``-rooted values through assignment, attribute
  access, subscripting, ``getattr(self, "literal")`` and for-loop
  targets; it does not follow values through containers or returns.
* **Bump formulas** are lenient: a statement sequence "definitely
  bumps" if *any* statement in order is covering — a direct
  ``self.version`` write, or a self-call whose callee definitely bumps
  (resolved later against the class).  ``if`` requires both branches to
  cover (a missing ``else`` never covers); loop bodies count as if they
  run, so the common "mutate + bump inside the same loop" shape passes.
  Early ``return``\\ s are ignored on purpose: guard clauses like
  ``if tx is None: return None`` exit *before* any write, so demanding
  a bump on that path would be a false positive.
* **Writes** are keyed on a name set (:data:`MUTATING_METHODS`) plus
  assignment/del through ``self``-rooted values; reads never count.
"""

from __future__ import annotations

import ast
import hashlib

from ..rules import resolve_import_from
from .model import (
    CallSite,
    ClassSummary,
    Formula,
    FunctionSummary,
    ModuleSummary,
    WriteSite,
)

#: A ``self``-rooted value: the attribute path under ``self`` it was
#: read from (``()`` is ``self`` itself, ``("_entries",)`` is
#: ``self._entries``).
SelfPath = tuple[str, ...]

#: Method names whose invocation on a ``self``-rooted receiver counts as
#: a write: container mutators and ledger state transitions.
MUTATING_METHODS = frozenset(
    {
        # container mutators
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "reverse", "setdefault", "sort", "update",
        # ledger / node state transitions
        "apply", "undo", "credit", "seed", "evict_conflicts",
    }
)

#: Marker registering a class with NG601: every mutator must bump
#: ``.version``.  Recognised on the ``class`` line or the line above.
VERSIONED_MARKER = "# repro: versioned"


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


class _FunctionWalker:
    """One statement-ordered walk of a function body.

    Maintains a name → :data:`SelfPath` environment of ``self``-rooted
    values.  Control flow is handled flow-insensitively inside branches
    (both arms are walked with the shared environment) — sound enough
    for the root-level facts NG601 consumes.
    """

    def __init__(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        lines: list[str],
        local_names: set[str],
        import_names: dict[str, tuple[str, str]],
        import_modules: dict[str, str],
        is_method: bool,
    ) -> None:
        self.lines = lines
        self.local_names = local_names
        self.import_names = import_names
        self.import_modules = import_modules
        self.is_method = is_method
        args = fn.args
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        self.params: tuple[str, ...] = tuple(a.arg for a in ordered)
        self.env: dict[str, SelfPath] = {"self": ()} if is_method else {}
        self.self_writes: list[WriteSite] = []
        self.calls: list[CallSite] = []
        self._seen_calls: set[int] = set()

    # -- helpers -------------------------------------------------------------

    def _module_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.import_modules.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._module_of(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def taint_of(self, node: ast.expr) -> SelfPath | None:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.taint_of(node.value)
            return None if base is None else base + (node.attr,)
        if isinstance(node, (ast.Subscript, ast.Starred)):
            return self.taint_of(node.value)
        if isinstance(node, (ast.BoolOp, ast.IfExp)):
            values = (
                node.values if isinstance(node, ast.BoolOp)
                else [node.body, node.orelse]
            )
            for value in values:
                path = self.taint_of(value)
                if path is not None:
                    return path
            return None
        # getattr(x, "attr"[, default]) is attribute access in disguise.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            base = self.taint_of(node.args[0])
            return None if base is None else base + (node.args[1].value,)
        return None

    def _record_write(self, path: SelfPath, lineno: int) -> None:
        attr = path[0] if path else "self"
        if attr == "version":
            return  # bump writes are tracked by the formula
        desc = self.lines[lineno - 1].strip() if lineno <= len(self.lines) else ""
        self.self_writes.append(WriteSite(attr, lineno, desc))

    def _write_through(self, target: ast.expr, lineno: int) -> None:
        """An attribute/subscript store or del: a write if self-rooted."""
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            path = self.taint_of(target.value)
            if path is not None:
                if isinstance(target, ast.Attribute):
                    path += (target.attr,)
                self._record_write(path, lineno)

    # -- call recording ------------------------------------------------------

    def record_call(self, call: ast.Call) -> None:
        if id(call) in self._seen_calls:
            return
        self._seen_calls.add(id(call))
        func = call.func
        kind = "unknown"
        target: tuple[str, ...] = ()
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.local_names:
                kind, target = "local", (name,)
            elif name in self.import_names:
                kind, target = "import", self.import_names[name]
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self" and self.is_method:
                kind, target = "self", (func.attr,)
            else:
                module = self._module_of(base)
                if module is not None:
                    kind, target = "module", (module, func.attr)
                else:
                    # Duck-typed receiver: unresolvable as a call edge,
                    # but a mutating method name on a self-rooted
                    # receiver is a write right here.
                    path = self.taint_of(base)
                    if path is not None and func.attr in MUTATING_METHODS:
                        self._record_write(path, call.lineno)
        self.calls.append(CallSite(call.lineno, kind, target))

    def scan_expr(self, node: ast.expr | None) -> None:
        """Record every call in an expression (lambda bodies included)."""
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self.record_call(sub)

    # -- statement walk ------------------------------------------------------

    def assign_target(self, target: ast.expr, taint: SelfPath | None,
                      lineno: int) -> None:
        if isinstance(target, ast.Name):
            if taint is not None:
                self.env[target.id] = taint
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign_target(elt, taint, lineno)
        elif isinstance(target, ast.Starred):
            self.assign_target(target.value, taint, lineno)
        else:
            self._write_through(target, lineno)

    def walk(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes keep their own discipline
        if isinstance(stmt, ast.Assign):
            self.scan_expr(stmt.value)
            taint = self.taint_of(stmt.value)
            for target in stmt.targets:
                self.assign_target(target, taint, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            self.scan_expr(stmt.value)
            if stmt.value is not None:
                taint = self.taint_of(stmt.value)
                self.assign_target(stmt.target, taint, stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            self.scan_expr(stmt.value)
            self._write_through(stmt.target, stmt.lineno)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._write_through(target, stmt.lineno)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            self.scan_expr(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.scan_expr(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.scan_expr(stmt.iter)
            # Iterating a tainted container yields tainted elements.
            self.assign_target(stmt.target, self.taint_of(stmt.iter),
                               stmt.lineno)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.scan_expr(item.context_expr)
            self.walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            self.scan_expr(stmt.exc)
            self.scan_expr(stmt.cause)
        elif isinstance(stmt, ast.Assert):
            self.scan_expr(stmt.test)
            self.scan_expr(stmt.msg)


# -- bump formulas -----------------------------------------------------------


def _is_bump_stmt(stmt: ast.stmt) -> bool:
    """``self.version += ...`` or ``self.version = ...``."""
    if isinstance(stmt, ast.AugAssign):
        target: ast.expr = stmt.target
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    else:
        return False
    return (
        isinstance(target, ast.Attribute)
        and target.attr == "version"
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    )


def _self_call_name(stmt: ast.stmt) -> str | None:
    """The method of a statement-level self-call, covering both the
    bare ``self.m(...)`` and the ``x = self.m(...)`` shapes."""
    value: ast.expr | None = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    elif isinstance(stmt, ast.AnnAssign):
        value = stmt.value
    elif isinstance(stmt, ast.Return):
        value = stmt.value
    if isinstance(value, ast.Call):
        func = value.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return func.attr
    return None


def _stmt_formula(stmt: ast.stmt) -> Formula:
    if _is_bump_stmt(stmt):
        return True
    name = _self_call_name(stmt)
    if name is not None:
        return ("call", name)
    if isinstance(stmt, ast.If):
        if stmt.orelse:
            return ("and", _seq_formula(stmt.body), _seq_formula(stmt.orelse))
        return False
    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
        # Lenient: a bump inside the loop pairs with the writes inside
        # the same loop; a zero-iteration loop also performs no writes.
        return _seq_formula(stmt.body)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return _seq_formula(stmt.body)
    if isinstance(stmt, ast.Try):
        return ("or", _seq_formula(stmt.body), _seq_formula(stmt.finalbody))
    return False


def _seq_formula(stmts: list[ast.stmt]) -> Formula:
    parts = [_stmt_formula(stmt) for stmt in stmts]
    parts = [p for p in parts if p is not False]
    if not parts:
        return False
    if True in parts:
        return True
    if len(parts) == 1:
        return parts[0]
    return ("or", *parts)


# -- module extraction -------------------------------------------------------


def _has_versioned_marker(lines: list[str], lineno: int) -> bool:
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines):
            if VERSIONED_MARKER in lines[candidate - 1]:
                return True
    return False


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
    lines: list[str],
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
        walker = _FunctionWalker(
            fn,
            lines=lines,
            local_names=local_names,
            import_names=import_names,
            import_modules=import_modules,
            is_method=is_method,
        )
        walker.walk(fn.body)
        return FunctionSummary(
            name=fn.name,
            lineno=fn.lineno,
            params=walker.params,
            is_method=is_method,
            self_writes=tuple(walker.self_writes),
            bump_formula=_seq_formula(fn.body) if is_method else False,
            calls=tuple(walker.calls),
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
                versioned=_has_versioned_marker(lines, node.lineno),
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
