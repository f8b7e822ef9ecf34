"""Per-module extraction: AST → :class:`ModuleSummary`.

One pass over each module builds the symbol tables and, per function, a
dataflow summary: which ``self`` attributes it writes, which parameters
it mutates (directly or through attribute chains), which parameters its
return value derives from, whether every path bumps ``self.version``,
and every call site classified for later resolution.

The analyses are deliberately approximate, always in the direction that
*under*-reports:

* **Taint** tracks roots through assignment, attribute access,
  subscripting, ``getattr(x, "literal")``, for-loop targets, and
  same-module call-return (via ``returns_params``); it does not follow
  values through containers or cross-module returns.
* **Bump formulas** are lenient: a statement sequence "definitely
  bumps" if *any* statement in order is covering — a direct
  ``self.version`` write, or a self-call whose callee definitely bumps
  (resolved later against the class).  ``if`` requires both branches to
  cover (a missing ``else`` never covers); loop bodies count as if they
  run, so the common "mutate + bump inside the same loop" shape passes.
  Early ``return``\\ s are ignored on purpose: guard clauses like
  ``if tx is None: return None`` exit *before* any write, so demanding
  a bump on that path would be a false positive.
* **Mutation** is keyed on a name set (:data:`MUTATING_METHODS`) plus
  assignment/del through tainted roots; reads never count.
"""

from __future__ import annotations

import ast
import hashlib

from .model import (
    ArgInfo,
    CallSite,
    ClassSummary,
    Formula,
    FunctionSummary,
    ModuleSummary,
    ParamRef,
    RngAssign,
    WriteSite,
)

#: Method names whose invocation on a tainted root counts as a write:
#: container mutators, ledger state transitions, and simulation side
#: effects (a checker scheduling an event perturbs the run as surely as
#: a state write would).
MUTATING_METHODS = frozenset(
    {
        # container mutators
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "reverse", "setdefault", "sort", "update",
        # ledger / node state transitions
        "apply", "undo", "credit", "seed", "evict_conflicts",
        # simulation side effects
        "push", "push_batch", "schedule", "schedule_at", "schedule_batch",
        "send", "broadcast", "announce", "abdicate", "reset_relay_state",
    }
)

#: Marker registering a class with NG601: every mutator must bump
#: ``.version``.  Recognised on the ``class`` line or the line above.
VERSIONED_MARKER = "# repro: versioned"

_RNG_GENERIC = frozenset({"rng"})


def rng_stream_tag(name: str | None) -> str | None:
    """The RNG stream a name claims: ``topo_rng`` → ``"topo"``.

    Plain ``rng`` (and dotted tails like ``sim.rng``) are generic —
    they carry no stream claim, so they never participate in NG604
    mismatches.
    """
    if not name:
        return None
    base = name.rsplit(".", 1)[-1].lstrip("_")
    if base in _RNG_GENERIC:
        return None
    if base.endswith("_rng") and len(base) > len("_rng"):
        return base[: -len("_rng")]
    if base.startswith("rng_") and len(base) > len("rng_"):
        return base[len("rng_"):]
    return None


def content_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _resolve_import_from(module: str, node: ast.ImportFrom) -> str:
    """Absolute dotted module an ``ImportFrom`` refers to."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    base = parts[: len(parts) - node.level]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


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
            origin = _resolve_import_from(module, node)
            for alias in node.names:
                local = alias.asname or alias.name
                names[local] = (origin, alias.name)
    return modules, names


def _dotted_display(node: ast.expr) -> str | None:
    """Source-ish dotted text for Name/Attribute chains, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_display(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def _decorator_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    names = []
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return tuple(names)


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

    Maintains a name → :class:`ParamRef` taint environment.  Control
    flow is handled flow-insensitively inside branches (both arms are
    walked with the shared environment) — sound enough for the
    root-level facts the rules consume.
    """

    def __init__(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        lines: list[str],
        local_functions: set[str],
        local_classes: set[str],
        local_params: dict[str, tuple[str, ...]],
        local_returns: dict[str, tuple[str, ...]],
        import_names: dict[str, tuple[str, str]],
        import_modules: dict[str, str],
        is_method: bool,
    ) -> None:
        self.fn = fn
        self.lines = lines
        self.local_functions = local_functions
        self.local_classes = local_classes
        self.local_params = local_params
        self.local_returns = local_returns
        self.import_names = import_names
        self.import_modules = import_modules
        self.is_method = is_method
        args = fn.args
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        self.params: tuple[str, ...] = tuple(a.arg for a in ordered)
        self.env: dict[str, ParamRef] = {
            p: ParamRef(p) for p in self.params
        }
        self.self_writes: list[WriteSite] = []
        self.param_mutations: list[WriteSite] = []
        self.returns_params: list[str] = []
        self.calls: list[CallSite] = []
        self.rng_assign_mismatches: list[RngAssign] = []
        self._seen_calls: set[int] = set()

    # -- helpers -------------------------------------------------------------

    def _line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _module_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.import_modules.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._module_of(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def taint_of(self, node: ast.expr) -> ParamRef | None:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.taint_of(node.value)
            return base.extend(node.attr) if base else None
        if isinstance(node, ast.Subscript):
            return self.taint_of(node.value)
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                taint = self.taint_of(value)
                if taint is not None:
                    return taint
            return None
        if isinstance(node, ast.IfExp):
            return self.taint_of(node.body) or self.taint_of(node.orelse)
        if isinstance(node, ast.Call):
            return self._call_result_taint(node)
        return None

    def _call_result_taint(self, call: ast.Call) -> ParamRef | None:
        func = call.func
        # getattr(x, "attr"[, default]) is attribute access in disguise
        # — the checkers' dominant aliasing idiom.
        if (
            isinstance(func, ast.Name)
            and func.id == "getattr"
            and len(call.args) >= 2
            and isinstance(call.args[1], ast.Constant)
            and isinstance(call.args[1].value, str)
        ):
            base = self.taint_of(call.args[0])
            if base is not None:
                return base.extend(call.args[1].value)
            return None
        # Same-module function whose return derives from a parameter:
        # taint the result from the argument bound to that parameter
        # (``chain = chain_of(node)`` taints ``chain`` from ``node``).
        if isinstance(func, ast.Name) and func.id in self.local_returns:
            returned = self.local_returns[func.id]
            if returned:
                bound = self._bind_simple(call, func.id)
                for param in returned:
                    taint = bound.get(param)
                    if taint is not None:
                        return taint
        return None

    def _bind_simple(
        self, call: ast.Call, func_name: str
    ) -> dict[str, ParamRef]:
        """Positional/keyword binding against a same-module function."""
        params = self.local_params.get(func_name, ())
        bound: dict[str, ParamRef] = {}
        for index, arg in enumerate(call.args):
            if index < len(params):
                taint = self.taint_of(arg)
                if taint is not None:
                    bound[params[index]] = taint
        for keyword in call.keywords:
            if keyword.arg is not None:
                taint = self.taint_of(keyword.value)
                if taint is not None:
                    bound[keyword.arg] = taint
        return bound

    def _record_write(self, taint: ParamRef, lineno: int) -> None:
        desc = self._line(lineno)
        if taint.root == "self":
            attr = taint.chain[0] if taint.chain else "self"
            if attr == "version":
                return  # bump writes are tracked by the formula
            self.self_writes.append(WriteSite(attr, lineno, desc))
        elif taint.root in self.params:
            self.param_mutations.append(WriteSite(taint.root, lineno, desc))

    # -- call recording ------------------------------------------------------

    def _arg_info(self, node: ast.expr) -> ArgInfo:
        display = _dotted_display(node)
        return ArgInfo(
            taint=self.taint_of(node),
            display=display,
            rng_tag=rng_stream_tag(display),
        )

    def record_call(self, call: ast.Call) -> None:
        if id(call) in self._seen_calls:
            return
        self._seen_calls.add(id(call))
        func = call.func
        kind = "unknown"
        target: tuple[str, ...] = ()
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.local_functions or name in self.local_classes:
                kind, target = "local", (name,)
            elif name in self.import_names:
                origin, original = self.import_names[name]
                kind, target = "import", (origin, original)
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
                    # but a mutating method name on a tainted receiver
                    # is a write right here.
                    taint = self.taint_of(base)
                    if taint is not None and func.attr in MUTATING_METHODS:
                        self._record_write(taint, call.lineno)
        self.calls.append(
            CallSite(
                lineno=call.lineno,
                kind=kind,
                target=target,
                args=tuple(self._arg_info(a) for a in call.args),
                keywords=tuple(
                    (k.arg, self._arg_info(k.value))
                    for k in call.keywords
                    if k.arg is not None
                ),
            )
        )

    def scan_expr(self, node: ast.expr | None) -> None:
        """Record every call in an expression (lambda bodies included)."""
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self.record_call(sub)

    # -- statement walk ------------------------------------------------------

    def assign_target(self, target: ast.expr, taint: ParamRef | None,
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
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            base_taint = self.taint_of(target.value)
            if base_taint is not None:
                if isinstance(target, ast.Attribute):
                    base_taint = base_taint.extend(target.attr)
                self._record_write(base_taint, lineno)

    def _check_rng_assign(self, target: ast.expr, value: ast.expr,
                          lineno: int) -> None:
        target_name = _dotted_display(target)
        value_name = _dotted_display(value)
        target_tag = rng_stream_tag(target_name)
        value_tag = rng_stream_tag(value_name)
        if (
            target_tag is not None
            and value_tag is not None
            and target_tag != value_tag
            and target_name is not None
            and value_name is not None
        ):
            self.rng_assign_mismatches.append(
                RngAssign(lineno, target_name, target_tag,
                          value_name, value_tag)
            )

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
                self._check_rng_assign(target, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            self.scan_expr(stmt.value)
            if stmt.value is not None:
                taint = self.taint_of(stmt.value)
                self.assign_target(stmt.target, taint, stmt.lineno)
                self._check_rng_assign(stmt.target, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            self.scan_expr(stmt.value)
            target = stmt.target
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                base_taint = self.taint_of(target.value)
                if base_taint is not None:
                    if isinstance(target, ast.Attribute):
                        base_taint = base_taint.extend(target.attr)
                    self._record_write(base_taint, stmt.lineno)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    base_taint = self.taint_of(target.value)
                    if base_taint is not None:
                        if isinstance(target, ast.Attribute):
                            base_taint = base_taint.extend(target.attr)
                        self._record_write(base_taint, stmt.lineno)
        elif isinstance(stmt, ast.Return):
            self.scan_expr(stmt.value)
            if stmt.value is not None:
                taint = self.taint_of(stmt.value)
                if (
                    taint is not None
                    and taint.root in self.params
                    and taint.root != "self"
                    and taint.root not in self.returns_params
                ):
                    self.returns_params.append(taint.root)
        elif isinstance(stmt, ast.Expr):
            self.scan_expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self.scan_expr(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, (ast.While,)):
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


def _summarize_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    lines: list[str],
    local_functions: set[str],
    local_classes: set[str],
    local_params: dict[str, tuple[str, ...]],
    local_returns: dict[str, tuple[str, ...]],
    import_names: dict[str, tuple[str, str]],
    import_modules: dict[str, str],
    is_method: bool,
) -> FunctionSummary:
    walker = _FunctionWalker(
        fn,
        lines=lines,
        local_functions=local_functions,
        local_classes=local_classes,
        local_params=local_params,
        local_returns=local_returns,
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
        has_vararg=fn.args.vararg is not None,
        has_kwarg=fn.args.kwarg is not None,
        decorators=_decorator_names(fn),
        self_writes=tuple(walker.self_writes),
        param_mutations=tuple(walker.param_mutations),
        returns_params=tuple(walker.returns_params),
        bump_formula=_seq_formula(fn.body) if is_method else False,
        calls=tuple(walker.calls),
        rng_assign_mismatches=tuple(walker.rng_assign_mismatches),
    )


def extract_module(
    tree: ast.Module,
    *,
    display_path: str,
    module: str,
    lines: list[str],
    sha: str,
) -> ModuleSummary:
    """Build one module's summary (the cached unit of index state)."""
    import_modules, import_names = _extract_imports(tree, module)

    local_functions: set[str] = set()
    local_classes: set[str] = set()
    local_params: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_functions.add(node.name)
            args = node.args
            local_params[node.name] = tuple(
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            )
        elif isinstance(node, ast.ClassDef):
            local_classes.add(node.name)

    # Pass 1: return-taint of module-level functions, so pass 2 can
    # taint through same-module call results (``chain_of(node)``).
    local_returns: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _summarize_function(
                node,
                lines=lines,
                local_functions=local_functions,
                local_classes=local_classes,
                local_params=local_params,
                local_returns={},
                import_names=import_names,
                import_modules=import_modules,
                is_method=False,
            )
            if summary.returns_params:
                local_returns[node.name] = summary.returns_params

    functions: dict[str, FunctionSummary] = {}
    classes: dict[str, ClassSummary] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = _summarize_function(
                node,
                lines=lines,
                local_functions=local_functions,
                local_classes=local_classes,
                local_params=local_params,
                local_returns=local_returns,
                import_names=import_names,
                import_modules=import_modules,
                is_method=False,
            )
        elif isinstance(node, ast.ClassDef):
            methods: dict[str, FunctionSummary] = {}
            class_attrs: list[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = _summarize_function(
                        item,
                        lines=lines,
                        local_functions=local_functions,
                        local_classes=local_classes,
                        local_params=local_params,
                        local_returns=local_returns,
                        import_names=import_names,
                        import_modules=import_modules,
                        is_method=True,
                    )
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            class_attrs.append(target.id)
                elif isinstance(item, ast.AnnAssign) and item.value is not None:
                    if isinstance(item.target, ast.Name):
                        class_attrs.append(item.target.id)
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
                class_attrs=tuple(class_attrs),
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
