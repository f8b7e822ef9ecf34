"""The NG6xx interprocedural rule family, built on the semantic index.

Unlike the NG1xx–NG4xx per-module AST visitors, a rule here sees the
whole scanned tree at once: the class-resolution map, the approximate
call graph, and the per-function bump formulas.  Each finding carries a
``why`` call path (rendered by ``repro lint --why``) so a write that
escapes through a self-call is still actionable.

One rule is left, NG601, and it referees the contract the incremental
sanitizer runs on trust: every state-writing method of `Mempool`,
`UtxoSet`, or any ``# repro: versioned`` class must bump
``self.version`` on every path, or the dirty-set tracker silently skips
a stale node.  Nothing at runtime pins that deterministically (audit
mode only samples it).  The other NG6xx rules policed properties a
tier-1 test pins at runtime and were retired (``docs/static-analysis.md``
→ "Retired rules").
"""

from __future__ import annotations

from typing import Mapping

from ..findings import Finding
from ..rules import LintRule, register
from .index import SemanticIndex
from .model import ClassSummary, Formula, FunctionSummary, ModuleSummary

#: Class names that are version-tracked even without the marker.
VERSIONED_CLASS_NAMES = frozenset({"Mempool", "UtxoSet"})


class SemanticRule(LintRule):
    """One project-wide rule over the :class:`SemanticIndex`.

    Subclasses implement :meth:`check`; the engine runs each semantic
    rule once per lint invocation (not once per module) and routes the
    findings through the same suppression machinery as the AST rules.
    """

    def check(
        self, index: SemanticIndex, sources: Mapping[str, list[str]]
    ) -> list[Finding]:
        raise NotImplementedError

    def make_finding(
        self,
        *,
        path: str,
        lineno: int,
        message: str,
        sources: Mapping[str, list[str]],
        why: tuple[str, ...] = (),
    ) -> Finding:
        lines = sources.get(path, [])
        snippet = lines[lineno - 1].strip() if 1 <= lineno <= len(lines) else ""
        return Finding(
            path=path,
            line=lineno,
            col=0,
            code=self.code,
            message=message,
            snippet=snippet,
            why=why,
        )


def _eval_formula(formula: Formula, bumps: Mapping[str, bool]) -> bool:
    """Evaluate a bump formula against the current bumps assignment."""
    if formula is True:
        return True
    if isinstance(formula, tuple) and formula:
        op = formula[0]
        if op == "call":
            return bumps.get(formula[1], False)
        if op == "and":
            return all(_eval_formula(part, bumps) for part in formula[1:])
        if op == "or":
            return any(_eval_formula(part, bumps) for part in formula[1:])
    return False


@register
class MissingVersionBump(SemanticRule):
    code = "NG601"
    name = "missing-version-bump"
    rationale = (
        "The incremental sanitizer's dirty-set tracker trusts `.version` "
        "counters: a mutator of `Mempool`, `UtxoSet`, or any class "
        "marked `# repro: versioned` that forgets to bump leaves the "
        "container looking clean, so stale nodes silently skip their "
        "invariant checks and audit mode can only catch the omission "
        "probabilistically, per run. This rule solves it statically: it "
        "computes a bump formula per method (does every path write "
        "`self.version`?), closes it over self-calls through the call "
        "graph, and flags any method that writes tracked state on a "
        "path no bump covers."
    )
    bad_example = (
        "class FeeCache:  # repro: versioned\n"
        "    def __init__(self) -> None:\n"
        "        self.fees: dict[bytes, int] = {}\n"
        "        self.version = 0\n"
        "\n"
        "    def record(self, txid: bytes, fee: int) -> None:\n"
        "        self.fees[txid] = fee\n"
    )
    good_example = (
        "class FeeCache:  # repro: versioned\n"
        "    def __init__(self) -> None:\n"
        "        self.fees: dict[bytes, int] = {}\n"
        "        self.version = 0\n"
        "\n"
        "    def record(self, txid: bytes, fee: int) -> None:\n"
        "        self.fees[txid] = fee\n"
        "        self.version += 1\n"
    )

    def check(
        self, index: SemanticIndex, sources: Mapping[str, list[str]]
    ) -> list[Finding]:
        findings: list[Finding] = []
        reported: set[tuple[str, int]] = set()
        for path in sorted(index.modules):
            summary = index.modules[path]
            for class_name in sorted(summary.classes):
                cls = summary.classes[class_name]
                if not (cls.versioned or cls.name in VERSIONED_CLASS_NAMES):
                    continue
                findings.extend(
                    self._check_class(index, summary, cls, sources, reported)
                )
        return findings

    def _check_class(
        self,
        index: SemanticIndex,
        summary: ModuleSummary,
        cls: ClassSummary,
        sources: Mapping[str, list[str]],
        reported: set[tuple[str, int]],
    ) -> list[Finding]:
        resolved, _ = index.base_chain(summary, cls)
        chain = [(summary, cls)] + resolved
        # Visible methods, nearest definition first.
        methods: dict[str, tuple[str, FunctionSummary]] = {}
        for mod, current in chain:
            for method_name, fn in current.methods.items():
                methods.setdefault(method_name, (mod.display_path, fn))

        # Fixpoint 1: which methods definitely bump on every path.
        bumps = {method: False for method in methods}
        changed = True
        while changed:
            changed = False
            for method, (_, fn) in methods.items():
                if not bumps[method] and _eval_formula(fn.bump_formula, bumps):
                    bumps[method] = True
                    changed = True

        # Fixpoint 2: which non-bumping methods let a write escape,
        # directly or through a self-call into an escaping method.
        escapes = {method: False for method in methods}
        changed = True
        while changed:
            changed = False
            for method, (_, fn) in methods.items():
                if escapes[method] or bumps[method] or method == "__init__":
                    continue
                direct = bool(fn.self_writes)
                via = any(
                    escapes.get(callee, False)
                    for callee in fn.self_call_names()
                )
                if direct or via:
                    escapes[method] = True
                    changed = True

        findings: list[Finding] = []
        for method in sorted(escapes):
            if not escapes[method]:
                continue
            path, fn = methods[method]
            if (path, fn.lineno) in reported:
                continue
            reported.add((path, fn.lineno))
            findings.append(
                self.make_finding(
                    path=path,
                    lineno=fn.lineno,
                    message=(
                        f"`{cls.name}.{method}` writes tracked state "
                        "without bumping `self.version` on every path — "
                        "the incremental sanitizer will miss the change"
                    ),
                    sources=sources,
                    why=tuple(self._why(methods, escapes, method)),
                )
            )
        return findings

    def _why(
        self,
        methods: Mapping[str, tuple[str, FunctionSummary]],
        escapes: Mapping[str, bool],
        method: str,
    ) -> list[str]:
        why: list[str] = []
        current = method
        for _ in range(6):
            path, fn = methods[current]
            if fn.self_writes:
                write = fn.self_writes[0]
                why.append(
                    f"{path}:{write.lineno}: `{current}` writes "
                    f"`self.{write.target}`: {write.desc}"
                )
                break
            hop = None
            for call in fn.calls:
                if (
                    call.kind == "self"
                    and call.target
                    and escapes.get(call.target[0], False)
                ):
                    hop = call.target[0]
                    why.append(
                        f"{path}:{call.lineno}: `{current}` calls "
                        f"`self.{hop}(...)`, which writes without bumping"
                    )
                    break
            if hop is None:
                break
            current = hop
        why.append("no `self.version` bump covers this path")
        return why
