"""The project-wide semantic index: assembly and resolution.

A :class:`SemanticIndex` is the union of every scanned module's
:class:`~repro.lint.semantic.model.ModuleSummary` plus the cross-module
machinery ``repro.mutate``'s site enumeration needs:

* dotted-module lookup and a scanned-base-chain walk (an approximate
  MRO: DFS over resolved base names, restricted to scanned classes);
* call-site resolution into ``(module, class | None, function)`` owners,
  and reachability over the resolved call edges.

The index is rebuilt from source on every lint run and never leaves
the process: an on-disk copy cost more to read and rewrite than the
extraction it saved (docs/simulation.md, cache ledger row 2).  Each
summary still carries its source's content hash — ``repro.mutate`` keys
its verdict cache and shadow trees on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from .extract import content_sha, extract_module
from .model import ClassSummary, FunctionSummary, ModuleSummary


@dataclass(frozen=True)
class FunctionKey:
    """Stable identity of one function in the index."""

    display_path: str
    class_name: str | None
    function: str


@dataclass
class SemanticIndex:
    """Project-wide symbol/call-graph/dataflow index for one lint run."""

    modules: dict[str, ModuleSummary] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_module_name: dict[str, ModuleSummary] = {}
        for path in sorted(self.modules):
            summary = self.modules[path]
            self._by_module_name.setdefault(summary.module, summary)

    # -- lookup --------------------------------------------------------------

    def module_named(self, dotted: str) -> ModuleSummary | None:
        return self._by_module_name.get(dotted)

    def function_at(self, key: FunctionKey) -> FunctionSummary | None:
        summary = self.modules.get(key.display_path)
        if summary is None:
            return None
        if key.class_name is None:
            return summary.functions.get(key.function)
        cls = summary.classes.get(key.class_name)
        if cls is None:
            return None
        return cls.methods.get(key.function)

    # -- class hierarchy -----------------------------------------------------

    def base_chain(
        self, summary: ModuleSummary, cls: ClassSummary
    ) -> tuple[list[tuple[ModuleSummary, ClassSummary]], list[str]]:
        """Scanned ancestors (DFS, nearest first) and unresolved bases.

        A base resolves when its dotted (or bare, same-module) name
        names a scanned class; anything else — stdlib bases, unscanned
        third-party classes — lands in the unresolved list so rules can
        degrade conservatively.
        """
        resolved: list[tuple[ModuleSummary, ClassSummary]] = []
        unresolved: list[str] = []
        seen: set[tuple[str, str]] = {(summary.display_path, cls.name)}
        stack: list[tuple[ModuleSummary, ClassSummary]] = [(summary, cls)]
        while stack:
            mod, current = stack.pop(0)
            for base in current.bases:
                found = self._find_class(base, mod)
                if found is None:
                    unresolved.append(base)
                    continue
                base_mod, base_cls = found
                ident = (base_mod.display_path, base_cls.name)
                if ident in seen:
                    continue
                seen.add(ident)
                resolved.append(found)
                stack.append(found)
        return resolved, unresolved

    def _find_class(
        self, base: str, referrer: ModuleSummary
    ) -> tuple[ModuleSummary, ClassSummary] | None:
        if "." in base:
            module, _, name = base.rpartition(".")
            target = self.module_named(module)
            if target is not None and name in target.classes:
                return target, target.classes[name]
            return None
        if base in referrer.classes:
            return referrer, referrer.classes[base]
        return None

    def extends(
        self, summary: ModuleSummary, cls: ClassSummary, targets: frozenset[str]
    ) -> bool:
        """Whether any (transitive) base name matches ``targets``.

        Matches both resolved dotted names and bare unresolved names,
        so fixtures importing the real base and the real tree both hit.
        """
        if cls.name in targets:
            return False  # the contract class itself is not a subject
        resolved, unresolved = self.base_chain(summary, cls)
        for base_mod, base_cls in resolved:
            dotted = f"{base_mod.module}.{base_cls.name}"
            if dotted in targets or base_cls.name in targets:
                return True
        for base in unresolved:
            bare = base.rpartition(".")[2]
            if base in targets or bare in targets:
                return True
        return False

    def resolve_method(
        self, summary: ModuleSummary, cls: ClassSummary, method: str
    ) -> tuple[FunctionKey, FunctionSummary] | None:
        """Find ``method`` on the class or its scanned ancestors."""
        if method in cls.methods:
            key = FunctionKey(summary.display_path, cls.name, method)
            return key, cls.methods[method]
        resolved, _ = self.base_chain(summary, cls)
        for base_mod, base_cls in resolved:
            if method in base_cls.methods:
                key = FunctionKey(
                    base_mod.display_path, base_cls.name, method
                )
                return key, base_cls.methods[method]
        return None

    # -- call resolution -----------------------------------------------------

    def resolve_call(
        self,
        summary: ModuleSummary,
        cls: ClassSummary | None,
        kind: str,
        target: tuple[str, ...],
    ) -> tuple[FunctionKey, FunctionSummary] | None:
        """Resolve a classified call site to a scanned function.

        Calls into classes resolve to their ``__init__`` (constructor
        argument mutation is still mutation); unknown kinds and
        unscanned targets return ``None`` — the analyses skip them.
        """
        if kind == "self" and cls is not None:
            return self.resolve_method(summary, cls, target[0])
        if kind == "local" and target[0] in summary.functions:
            name = target[0]
            return (
                FunctionKey(summary.display_path, None, name),
                summary.functions[name],
            )
        if kind in ("import", "module"):
            module_name, name = target
            target_mod = self.module_named(module_name)
            if target_mod is not None and name in target_mod.functions:
                return (
                    FunctionKey(target_mod.display_path, None, name),
                    target_mod.functions[name],
                )
        named = self.resolve_class(summary, kind, target)
        if named is not None:
            return self.resolve_method(*named, "__init__")
        return None

    def resolve_class(
        self, summary: ModuleSummary, kind: str, target: tuple[str, ...]
    ) -> tuple[ModuleSummary, ClassSummary] | None:
        """The scanned class a classified call site names, if any."""
        if kind == "local" and target[0] in summary.classes:
            return summary, summary.classes[target[0]]
        if kind in ("import", "module"):
            target_mod = self.module_named(target[0])
            if target_mod is not None and target[1] in target_mod.classes:
                return target_mod, target_mod.classes[target[1]]
        return None

    # -- site-enumeration queries (consumed by repro.mutate) ----------------

    def classes_extending(
        self, targets: frozenset[str]
    ) -> list[tuple[ModuleSummary, ClassSummary]]:
        """Every scanned class whose (transitive) base matches ``targets``.

        The match semantics are :meth:`extends` — resolved dotted names
        and bare unresolved names both count — and the result is in
        deterministic (path, class) order.
        """
        found: list[tuple[ModuleSummary, ClassSummary]] = []
        for path in sorted(self.modules):
            summary = self.modules[path]
            for class_name in sorted(summary.classes):
                cls = summary.classes[class_name]
                if self.extends(summary, cls, targets):
                    found.append((summary, cls))
        return found

    def class_surface(
        self, summary: ModuleSummary, cls: ClassSummary
    ) -> list[FunctionKey]:
        """Every method visible on ``cls``: own and scanned-ancestor.

        Keys point at the *defining* class, nearest definition first,
        so overridden ancestor methods are not duplicated.
        """
        keys: list[FunctionKey] = []
        seen: set[str] = set()
        resolved, _ = self.base_chain(summary, cls)
        for mod, current in [(summary, cls)] + resolved:
            for method_name in sorted(current.methods):
                if method_name in seen:
                    continue
                seen.add(method_name)
                keys.append(
                    FunctionKey(mod.display_path, current.name, method_name)
                )
        return keys

    def reachable_functions(
        self, roots: Iterable[FunctionKey]
    ) -> set[FunctionKey]:
        """Functions reachable from ``roots`` over resolved call edges.

        The static call graph cannot see simulator-dispatched calls
        (``build_nodes`` hands node objects to the event loop, which
        invokes their methods by name at runtime), so a call that
        instantiates a class marks *every* method of that class (and
        its scanned ancestors) reachable — the object escaped, anything
        on it may run.  This is the reachability the mutation engine
        keys on: over-approximate in the direction of more mutation
        sites.
        """
        work: list[FunctionKey] = list(roots)
        reached: set[FunctionKey] = set()
        while work:
            key = work.pop()
            if key in reached:
                continue
            fn = self.function_at(key)
            if fn is None:
                continue
            reached.add(key)
            summary = self.modules[key.display_path]
            cls = (
                summary.classes.get(key.class_name)
                if key.class_name
                else None
            )
            for call in fn.calls:
                resolved = self.resolve_call(
                    summary, cls, call.kind, call.target
                )
                if resolved is None:
                    continue
                callee_key, _callee_fn = resolved
                work.append(callee_key)
                if callee_key.function == "__init__":
                    # The class the call names, which may only inherit
                    # the ``__init__`` it resolved to.
                    named = self.resolve_class(summary, call.kind, call.target)
                    if named is not None:
                        work.extend(self.class_surface(*named))
        return reached

    # -- harvests (NG301 / NG303 feeds) --------------------------------------

    def set_identifiers(self) -> frozenset[str]:
        names: set[str] = set()
        for summary in self.modules.values():
            names.update(summary.set_idents)
        return frozenset(names)

    def tuple_dict_identifiers(self) -> frozenset[str]:
        names: set[str] = set()
        for summary in self.modules.values():
            names.update(summary.tuple_dict_idents)
        return frozenset(names)


# -- build ------------------------------------------------------------------


def build_index(
    parsed: list[tuple[str, str, ast.Module, str]],
) -> SemanticIndex:
    """Assemble the index for ``parsed`` modules.

    ``parsed`` entries are ``(display_path, module, tree, source)``
    tuples.
    """
    return SemanticIndex(
        modules={
            display_path: extract_module(
                tree,
                display_path=display_path,
                module=module,
                sha=content_sha(source),
            )
            for display_path, module, tree, source in parsed
        }
    )
