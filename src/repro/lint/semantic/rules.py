"""The NG6xx interprocedural rule family, built on the semantic index.

Unlike the NG1xx–NG5xx per-module AST visitors, these rules see the
whole scanned tree at once: the class-resolution map, the approximate
call graph, and the per-function dataflow summaries.  Each finding
carries a ``why`` call path (rendered by ``repro lint --why``) so a
violation three calls away from its write site is still actionable.

The two contracts these rules referee are the ones the incremental
sanitizer (PR 8) runs on trust:

* **versioned containers** — every state-writing method of `Mempool`,
  `UtxoSet`, or any ``# repro: versioned`` class must bump
  ``self.version`` on every path, or the dirty-set tracker silently
  skips a stale node (NG601);
* **checker purity** — `InvariantChecker` hooks must be read-only, or
  checking perturbs the very run it is certifying (NG602).

NG603 and NG604 guard the surfaces ROADMAP items 3–4 are about to
grow: the `ProtocolAdapter` plug-in protocol and the named-RNG-stream
discipline.
"""

from __future__ import annotations

from typing import Mapping

from ..findings import Finding
from ..rules import LintRule, register
from .extract import rng_stream_tag
from .index import FunctionKey, SemanticIndex
from .model import (
    ArgInfo,
    CallSite,
    ClassSummary,
    Formula,
    FunctionSummary,
    ModuleSummary,
)

#: Class names that are version-tracked even without the marker.
VERSIONED_CLASS_NAMES = frozenset({"Mempool", "UtxoSet"})

CHECKER_BASES = frozenset(
    {"repro.sanitizer.checkers.InvariantChecker", "InvariantChecker"}
)
#: Hook methods the sanitizer invokes; all must be read-only.
CHECKER_HOOKS = ("check_block", "check_dirty", "check_state", "on_event")

ADAPTER_BASES = frozenset(
    {"repro.protocols.ProtocolAdapter", "ProtocolAdapter"}
)
#: Required keyword surface per adapter-protocol method.
ADAPTER_CONTRACT: dict[str, tuple[str, ...]] = {
    "build_nodes": ("config", "sim", "network", "log", "shares"),
    "current_leader": ("nodes",),
    "on_crash": ("node", "sim", "network"),
    "on_restart": ("node", "sim", "network"),
    "resync": ("node", "sim", "network"),
}
#: What an *unscanned* ProtocolAdapter base is assumed to provide
#: (its concrete defaults) — so fixtures lint identically alone.
ADAPTER_BASE_DEFAULTS = frozenset(
    {
        "current_leader",
        "invariant_checkers",
        "on_crash",
        "on_restart",
        "resync",
    }
)


class SemanticRule(LintRule):
    """One project-wide rule over the :class:`SemanticIndex`.

    Subclasses implement :meth:`check`; the engine runs each semantic
    rule once per lint invocation (not once per module) and routes the
    findings through the same suppression/baseline machinery as the
    AST rules.
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


def _bind_display_args(
    call: CallSite, callee: FunctionSummary
) -> list[tuple[ArgInfo, str]]:
    """(argument, callee parameter) pairs, self-parameter skipped."""
    params = list(callee.params)
    if callee.is_method and params and params[0] == "self":
        params = params[1:]
    bound: list[tuple[ArgInfo, str]] = []
    for position, arg in enumerate(call.args):
        if position < len(params):
            bound.append((arg, params[position]))
    for name, arg in call.keywords:
        if name in params:
            bound.append((arg, name))
    return bound


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


@register
class ImpureChecker(SemanticRule):
    code = "NG602"
    name = "impure-checker"
    rationale = (
        "Invariant checkers certify a run; a checker hook that mutates "
        "node, mempool, or UTXO state perturbs the very execution it is "
        "checking, so checked and unchecked runs diverge and the "
        "sanitizer's verdict is meaningless. This rule computes each "
        "hook's transitive call-graph footprint and flags any "
        "`check_block`/`check_dirty`/`check_state`/`on_event` "
        "implementation that writes through a parameter, directly or "
        "via calls (container mutators, ledger transitions, and event "
        "scheduling all count). Private per-checker bookkeeping on "
        "`self` stays legal."
    )
    bad_example = (
        "from repro.sanitizer.checkers import InvariantChecker\n"
        "\n"
        "\n"
        "class MempoolPurge(InvariantChecker):\n"
        '    code = "INV901"\n'
        "\n"
        "    def check_state(self, node, node_id, now):\n"
        "        for tx in node.mempool.transactions():\n"
        "            node.mempool.remove(tx.txid)\n"
        "        return []\n"
    )
    good_example = (
        "from repro.sanitizer.checkers import InvariantChecker\n"
        "\n"
        "\n"
        "class MempoolAudit(InvariantChecker):\n"
        '    code = "INV901"\n'
        "\n"
        "    def check_state(self, node, node_id, now):\n"
        "        violations = []\n"
        "        for tx in node.mempool.transactions():\n"
        "            if tx.size < 0:\n"
        "                violations.append(tx.txid)\n"
        "        return violations\n"
    )

    def check(
        self, index: SemanticIndex, sources: Mapping[str, list[str]]
    ) -> list[Finding]:
        findings: list[Finding] = []
        mutated = index.mutated_params()
        for path in sorted(index.modules):
            summary = index.modules[path]
            for class_name in sorted(summary.classes):
                cls = summary.classes[class_name]
                if not index.extends(summary, cls, CHECKER_BASES):
                    continue
                for hook in CHECKER_HOOKS:
                    fn = cls.methods.get(hook)
                    if fn is None:
                        continue
                    key = FunctionKey(path, cls.name, hook)
                    dirty = sorted(
                        param
                        for param in mutated.get(key, {})
                        if param != "self"
                    )
                    if not dirty:
                        continue
                    param = dirty[0]
                    findings.append(
                        self.make_finding(
                            path=path,
                            lineno=fn.lineno,
                            message=(
                                f"checker hook `{cls.name}.{hook}` mutates "
                                f"`{param}` — invariant checkers must be "
                                "read-only or the sanitizer perturbs the "
                                "run it certifies"
                            ),
                            sources=sources,
                            why=tuple(index.witness_chain(key, param)),
                        )
                    )
        return findings


@register
class AdapterSurfaceConformance(SemanticRule):
    code = "NG603"
    name = "adapter-surface-conformance"
    rationale = (
        "Protocol adapters plug into the harness, the sanitizer, and "
        "the fault injector through one surface: `build_nodes`, a "
        "registry `name`, and the lifecycle hooks. A half-plugged "
        "adapter — say one whose `resync` override dropped the "
        "`network` keyword — imports fine and only fails when a "
        "scenario first restarts a node mid-run. This rule checks the "
        "full surface statically against the scanned `ProtocolAdapter` "
        "contract, so a new protocol cannot land partially wired."
    )
    bad_example = (
        "from repro.protocols import ProtocolAdapter\n"
        "\n"
        "\n"
        "class QuietResyncAdapter(ProtocolAdapter):\n"
        '    name = "quiet-resync"\n'
        "\n"
        "    def build_nodes(self, config, sim, network, log, shares):\n"
        "        return [], None\n"
        "\n"
        "    def resync(self, node, *, sim):\n"
        "        node.reset_relay_state()\n"
    )
    good_example = (
        "from repro.protocols import ProtocolAdapter\n"
        "\n"
        "\n"
        "class QuietResyncAdapter(ProtocolAdapter):\n"
        '    name = "quiet-resync"\n'
        "\n"
        "    def build_nodes(self, config, sim, network, log, shares):\n"
        "        return [], None\n"
        "\n"
        "    def resync(self, node, *, sim, network):\n"
        "        node.reset_relay_state()\n"
    )

    def check(
        self, index: SemanticIndex, sources: Mapping[str, list[str]]
    ) -> list[Finding]:
        findings: list[Finding] = []
        reported: set[tuple[str, int, str]] = set()
        for path in sorted(index.modules):
            summary = index.modules[path]
            for class_name in sorted(summary.classes):
                cls = summary.classes[class_name]
                if not index.extends(summary, cls, ADAPTER_BASES):
                    continue
                if cls.has_abstract_methods:
                    continue  # abstract intermediates are not registrable
                findings.extend(
                    self._check_adapter(index, summary, cls, sources, reported)
                )
        return findings

    def _check_adapter(
        self,
        index: SemanticIndex,
        summary: ModuleSummary,
        cls: ClassSummary,
        sources: Mapping[str, list[str]],
        reported: set[tuple[str, int, str]],
    ) -> list[Finding]:
        resolved, unresolved = index.base_chain(summary, cls)
        chain = [(summary, cls)] + resolved

        provided: set[str] = set()
        attrs: set[str] = set()
        for mod, current in chain:
            for method_name, fn in current.methods.items():
                if "abstractmethod" not in fn.decorators:
                    provided.add(method_name)
            attrs.update(current.class_attrs)
        unknown_bases: list[str] = []
        for base in unresolved:
            if base.rpartition(".")[2] == "ProtocolAdapter":
                # Unscanned contract base: assume its concrete defaults.
                provided |= ADAPTER_BASE_DEFAULTS
            else:
                unknown_bases.append(base)

        findings: list[Finding] = []

        def emit(path: str, lineno: int, message: str, why: tuple[str, ...]) -> None:
            ident = (path, lineno, message)
            if ident in reported:
                return
            reported.add(ident)
            findings.append(
                self.make_finding(
                    path=path, lineno=lineno, message=message,
                    sources=sources, why=why,
                )
            )

        origin = f"{summary.display_path}:{cls.lineno}"
        if not unknown_bases:
            if "build_nodes" not in provided:
                emit(
                    summary.display_path,
                    cls.lineno,
                    f"adapter `{cls.name}` does not implement "
                    "`build_nodes(config, sim, network, log, shares)`",
                    (f"{origin}: `{cls.name}` extends ProtocolAdapter "
                     "but leaves `build_nodes` abstract",),
                )
            if "name" not in attrs and "name" not in provided:
                emit(
                    summary.display_path,
                    cls.lineno,
                    f"adapter `{cls.name}` does not define a registry "
                    "`name` class attribute",
                    (f"{origin}: `register_adapter` keys adapters by "
                     "their `name`",),
                )

        for method, required in sorted(ADAPTER_CONTRACT.items()):
            for mod, current in chain:
                if method not in current.methods:
                    continue
                if current.name == "ProtocolAdapter":
                    break  # the contract's own default conforms
                fn = current.methods[method]
                if "abstractmethod" in fn.decorators:
                    break
                missing = [p for p in required if p not in fn.params]
                if fn.has_vararg or fn.has_kwarg:
                    missing = []
                if missing:
                    emit(
                        mod.display_path,
                        fn.lineno,
                        f"adapter `{cls.name}`: `{method}()` must accept "
                        f"({', '.join(required)}) — missing "
                        f"{', '.join(f'`{p}`' for p in missing)}",
                        (
                            f"{mod.display_path}:{fn.lineno}: `{current.name}"
                            f".{method}` overrides the adapter contract "
                            f"without `{missing[0]}`",
                            "the harness and fault injector call this hook "
                            "with the full contract signature",
                        ),
                    )
                break

        return findings


@register
class RngStreamProvenance(SemanticRule):
    code = "NG604"
    name = "rng-stream-provenance"
    rationale = (
        "Determinism here rests on named RNG streams: the topology "
        "stream must never absorb draws that belong to the latency "
        "stream, or adding one draw anywhere reshuffles every stream "
        "downstream and runs stop replaying. NG1xx checks each draw "
        "site locally; this rule follows RNG instances through "
        "assignments and resolved calls, and flags an RNG created for "
        "one named stream (`topo_rng`) flowing into a parameter or "
        "variable that claims another (`latency_rng`). Generic names "
        "(`rng`) carry no claim and never match."
    )
    bad_example = (
        "import random\n"
        "\n"
        "\n"
        "def jitter(latency_rng: random.Random) -> float:\n"
        "    return latency_rng.random()\n"
        "\n"
        "\n"
        "def sample(seed: int) -> float:\n"
        "    topo_rng = random.Random(seed * 11 + 3)\n"
        "    return jitter(topo_rng)\n"
    )
    good_example = (
        "import random\n"
        "\n"
        "\n"
        "def jitter(latency_rng: random.Random) -> float:\n"
        "    return latency_rng.random()\n"
        "\n"
        "\n"
        "def sample(seed: int) -> float:\n"
        "    latency_rng = random.Random(seed * 11 + 3)\n"
        "    return jitter(latency_rng)\n"
    )

    def check(
        self, index: SemanticIndex, sources: Mapping[str, list[str]]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for summary, cls, fn in index.iter_functions():
            path = summary.display_path
            for mismatch in fn.rng_assign_mismatches:
                findings.append(
                    self.make_finding(
                        path=path,
                        lineno=mismatch.lineno,
                        message=(
                            f"RNG `{mismatch.value}` (stream "
                            f"'{mismatch.value_tag}') assigned to "
                            f"`{mismatch.target}` (stream "
                            f"'{mismatch.target_tag}') — streams must "
                            "not cross"
                        ),
                        sources=sources,
                        why=(
                            f"{path}:{mismatch.lineno}: `{mismatch.value}` "
                            f"was created for stream "
                            f"'{mismatch.value_tag}' but now feeds "
                            f"'{mismatch.target_tag}' draw sites",
                        ),
                    )
                )
            for call in fn.calls:
                resolved = index.resolve_call(
                    summary, cls, call.kind, call.target
                )
                if resolved is None:
                    continue
                callee_key, callee_fn = resolved
                for arg, param in _bind_display_args(call, callee_fn):
                    if arg.rng_tag is None:
                        continue
                    param_tag = rng_stream_tag(param)
                    if param_tag is None or param_tag == arg.rng_tag:
                        continue
                    findings.append(
                        self.make_finding(
                            path=path,
                            lineno=call.lineno,
                            message=(
                                f"RNG `{arg.display}` (stream "
                                f"'{arg.rng_tag}') flows into "
                                f"`{callee_key.pretty()}` parameter "
                                f"`{param}` owned by stream "
                                f"'{param_tag}'"
                            ),
                            sources=sources,
                            why=(
                                f"{path}:{call.lineno}: `{arg.display}` "
                                f"bound to parameter `{param}` of "
                                f"`{callee_key.pretty()}`",
                                f"{callee_key.display_path}:"
                                f"{callee_fn.lineno}: "
                                f"`{callee_key.pretty()}` attributes its "
                                f"draws to stream '{param_tag}'",
                            ),
                        )
                    )
        return findings
