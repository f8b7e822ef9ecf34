"""NG-aware AST mutation operators.

Each operator walks a module's AST, restricted to the consensus-critical
functions the site enumerator selected (:func:`definition_names` says
which definitions those can be), and emits :class:`Mutant` records:
surgical *text-span* patches (never ``ast.unparse``, which would strip
comments and reflow every line of the mutated file).  The
catalog mirrors the exact mechanisms Bitcoin-NG's security argument
rests on:

=============  ==============================================================
operator       paper mechanism it perturbs
=============  ==============================================================
arith-swap     fee-split arithmetic (40/60 remuneration, Section 4.3)
cmp-flip       fork choice, coinbase maturity, validity boundaries
frac-swap      fee-split / bound constants (0.4 → 0.6, Section 4.3 & 5)
sig-drop       microblock / input signature verification (Section 4.2)
cond-neg       validity guards (poison checks, leader checks)
int-shift      off-by-one on protocol constants in comparisons/returns
=============  ==============================================================

A mutant's identity is line-number-free — ``operator:path:qualname:sha8``
over the ``original → replacement`` text plus an AST-order ordinal — so
verdict caches and the survivor allowlist in ``docs/mutation.md``
survive unrelated refactors of the same file.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Bump when operator semantics change: stale cached verdicts for an
#: older catalog must not be trusted.
CATALOG_VERSION = 3

#: Call names whose verdict gates signature acceptance.
_VERIFY_NAMES = frozenset(
    {"verify", "verify_signature", "verify_input_signatures"}
)


@dataclass(frozen=True)
class Mutant:
    """One candidate defect: a text-span patch against a source file."""

    operator: str
    path: str  #: repo-relative posix path of the mutated file
    qualname: str  #: ``Class.method``, ``function``, or ``<module>``
    description: str
    original: str  #: replaced source text
    replacement: str
    start: int  #: absolute character offset of the span
    end: int
    lineno: int  #: 1-based line of the span (display only)
    ordinal: int = 0  #: disambiguates identical patches in one function

    @property
    def mutant_id(self) -> str:
        """Stable, line-free identity for caches and allowlists."""
        basis = (
            f"{self.original}→{self.replacement}:{self.ordinal}"
        )
        digest = hashlib.sha256(basis.encode("utf-8")).hexdigest()[:8]
        return f"{self.operator}:{self.path}:{self.qualname}:{digest}"

    def apply(self, source: str) -> str:
        """The mutated module source."""
        assert source[self.start : self.end] == self.original, self.mutant_id
        return source[: self.start] + self.replacement + source[self.end :]


# -- span helpers ------------------------------------------------------------


def _line_offsets(source: str) -> list[int]:
    """Absolute offset of each line start (1-based access via index-1)."""
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    return offsets

class _Span:
    """Absolute-offset conversion for AST node positions."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.offsets = _line_offsets(source)

    def start(self, node: ast.AST) -> int:
        return self.offsets[node.lineno - 1] + node.col_offset

    def end(self, node: ast.AST) -> int:
        assert node.end_lineno is not None and node.end_col_offset is not None
        return self.offsets[node.end_lineno - 1] + node.end_col_offset

    def text(self, node: ast.AST) -> str:
        return self.source[self.start(node) : self.end(node)]

    def find_token(
        self, lo: int, hi: int, tokens: tuple[str, ...]
    ) -> tuple[int, str] | None:
        """First occurrence of any token (longest match wins) in a gap."""
        gap = self.source[lo:hi]
        best: tuple[int, str] | None = None
        for token in sorted(tokens, key=len, reverse=True):
            at = gap.find(token)
            if at < 0:
                continue
            if best is None or at < best[0]:
                # Longest tokens are tried first, so "<=" beats "<" at
                # the same position.
                if best is None or at != best[0]:
                    best = (at, token)
        if best is None:
            return None
        return lo + best[0], best[1]


@dataclass
class _FunctionScope:
    """One eligible function body plus the walk bookkeeping."""

    qualname: str
    node: ast.AST  #: FunctionDef or the Module for ``<module>``
    statements: list[ast.stmt] = field(default_factory=list)


def _definitions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """``(qualname, node)`` for every top-level def and method of a
    top-level class, in AST order: the definitions that are sites."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def definition_names(tree: ast.Module) -> list[str]:
    """Qualnames of every definition in a module that is a site."""
    return [qualname for qualname, _node in _definitions(tree)]


def _eligible_scopes(
    tree: ast.Module, qualnames: set[str]
) -> Iterator[_FunctionScope]:
    """Eligible function bodies, in AST (deterministic) order.

    ``<module>`` selects top-level simple statements plus class-level
    attribute defaults — the anchor-module constants the catalog
    targets, like ``NGParams.leader_fee_fraction = 0.40``.
    """
    if "<module>" in qualnames:
        statements = [
            stmt
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        ]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                statements.extend(
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                )
        yield _FunctionScope("<module>", tree, statements)
    for qualname, node in _definitions(tree):
        if qualname in qualnames:
            yield _FunctionScope(qualname, node, list(node.body))


def _walk_scope(scope: _FunctionScope) -> Iterator[ast.AST]:
    for stmt in scope.statements:
        yield from ast.walk(stmt)


def _parents(scope: _FunctionScope) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for stmt in scope.statements:
        for node in ast.walk(stmt):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        parents.setdefault(id(stmt), scope.node)
    return parents


class MutationOperator:
    """One mutation strategy over eligible scopes of a module."""

    name: str = ""
    description: str = ""

    def mutate(
        self, path: str, source: str, tree: ast.Module, qualnames: set[str]
    ) -> list[Mutant]:
        span = _Span(source)
        mutants: list[Mutant] = []
        # Keyed "qualname|original|replacement" (flat strings, so the
        # NG303 identifier harvest never mistakes this bookkeeping dict
        # for hot-path simulation state).
        patch_ordinals: dict[str, int] = {}
        for scope in _eligible_scopes(tree, qualnames):
            for original, replacement, start, end, lineno, detail in (
                self.candidates(scope, span)
            ):
                key = f"{scope.qualname}|{original}|{replacement}"
                ordinal = patch_ordinals.get(key, 0)
                patch_ordinals[key] = ordinal + 1
                mutants.append(
                    Mutant(
                        operator=self.name,
                        path=path,
                        qualname=scope.qualname,
                        description=detail,
                        original=original,
                        replacement=replacement,
                        start=start,
                        end=end,
                        lineno=lineno,
                        ordinal=ordinal,
                    )
                )
        return mutants

    def candidates(
        self, scope: _FunctionScope, span: _Span
    ) -> Iterator[tuple[str, str, int, int, int, str]]:
        """Yield ``(original, replacement, start, end, lineno, detail)``."""
        raise NotImplementedError


class ArithOpSwap(MutationOperator):
    """``+`` ↔ ``-`` in consensus arithmetic (fee splits, weights)."""

    name = "arith-swap"
    description = (
        "swap + and - in eligible arithmetic; perturbs fee splits, "
        "reward sums, and chain-weight accumulation"
    )

    _SWAP = {"+": "-", "-": "+"}

    def candidates(self, scope, span):
        for node in _walk_scope(scope):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                found = span.find_token(
                    span.end(node.left), span.start(node.right), ("+", "-")
                )
                if found is None:
                    continue
                at, token = found
                yield (
                    token,
                    self._SWAP[token],
                    at,
                    at + len(token),
                    node.lineno,
                    f"`{token}` → `{self._SWAP[token]}` in "
                    f"`{span.text(node)}`",
                )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                target = span.text(node.target)
                found = span.find_token(
                    span.end(node.target),
                    span.start(node.value),
                    ("+=", "-="),
                )
                if found is None:
                    continue
                at, token = found
                swapped = "-=" if token == "+=" else "+="
                yield (
                    token,
                    swapped,
                    at,
                    at + len(token),
                    node.lineno,
                    f"`{token}` → `{swapped}` on `{target}`",
                )


class CmpFlip(MutationOperator):
    """Boundary/ordering flips: ``<``↔``<=``, ``>``↔``>=``, ``==``↔``!=``."""

    name = "cmp-flip"
    description = (
        "flip comparison operators; perturbs fork choice, coinbase "
        "maturity, and validity boundaries by exactly one unit"
    )

    _SWAP = {
        "<=": "<", "<": "<=", ">=": ">", ">": ">=", "==": "!=", "!=": "==",
    }

    def candidates(self, scope, span):
        for node in _walk_scope(scope):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            if not isinstance(
                node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                              ast.Eq, ast.NotEq)
            ):
                continue
            found = span.find_token(
                span.end(node.left),
                span.start(node.comparators[0]),
                ("<=", ">=", "==", "!=", "<", ">"),
            )
            if found is None:
                continue
            at, token = found
            yield (
                token,
                self._SWAP[token],
                at,
                at + len(token),
                node.lineno,
                f"`{token}` → `{self._SWAP[token]}` in `{span.text(node)}`",
            )


class FractionComplement(MutationOperator):
    """Unit-interval constants ``c`` → ``1 - c`` (fee-split fractions)."""

    name = "frac-swap"
    description = (
        "replace a fraction constant c in (0, 1) with its complement "
        "1 - c; the 40/60 fee split becomes 60/40"
    )

    def candidates(self, scope, span):
        for node in _walk_scope(scope):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                # Split-style fractions only.  Tiny constants are float
                # epsilons, not fractions — complementing 1e-9 into
                # 0.999999999 measures nothing about fee splits — and
                # 0.5 is its own complement (an equivalent mutant).
                and 0.01 <= node.value <= 0.99
                and node.value != 0.5
            ):
                flipped = repr(round(1.0 - node.value, 12))
                original = span.text(node)
                yield (
                    original,
                    flipped,
                    span.start(node),
                    span.end(node),
                    node.lineno,
                    f"fraction `{original}` → `{flipped}`",
                )


class SigVerifyDrop(MutationOperator):
    """Replace a signature-verification call's verdict with ``True``."""

    name = "sig-drop"
    description = (
        "force signature verification to succeed (and, separately, "
        "invert it); models the forged-microblock acceptance bug"
    )

    def candidates(self, scope, span):
        parents = _parents(scope)
        for node in _walk_scope(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if attr not in _VERIFY_NAMES:
                continue
            parent = parents.get(id(node))
            if isinstance(parent, ast.Expr):
                continue  # bare statement call: verdict unused
            original = span.text(node)
            start, end = span.start(node), span.end(node)
            yield (
                original,
                "True",
                start,
                end,
                node.lineno,
                f"`{attr}(...)` verdict forced True",
            )
            yield (
                original,
                f"(not {original})",
                start,
                end,
                node.lineno,
                f"`{attr}(...)` verdict inverted",
            )


class CondNegate(MutationOperator):
    """Invert ``if`` guards in consensus code paths."""

    name = "cond-neg"
    description = (
        "negate an if-condition; validity guards accept what they "
        "rejected and vice versa"
    )

    def candidates(self, scope, span):
        for node in _walk_scope(scope):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            original = span.text(test)
            if "\n" in original:
                continue  # keep patches single-line for readable diffs
            yield (
                original,
                f"not ({original})",
                span.start(test),
                span.end(test),
                test.lineno,
                f"guard `{original}` negated",
            )


class IntShift(MutationOperator):
    """Off-by-one on integer constants at decision points."""

    name = "int-shift"
    description = (
        "bump an integer constant inside a comparison or return by one; "
        "classic off-by-one on maturity depths and size limits"
    )

    def candidates(self, scope, span):
        parents = _parents(scope)
        for node in _walk_scope(scope):
            if not (
                isinstance(node, ast.Constant)
                and isinstance(node.value, int)
                and not isinstance(node.value, bool)
            ):
                continue
            parent = parents.get(id(node))
            if not isinstance(parent, (ast.Compare, ast.Return)):
                continue
            original = span.text(node)
            yield (
                original,
                str(node.value + 1),
                span.start(node),
                span.end(node),
                node.lineno,
                f"`{original}` → `{node.value + 1}`",
            )


#: The shipped catalog, in deterministic application order.
OPERATORS: tuple[MutationOperator, ...] = (
    ArithOpSwap(),
    CmpFlip(),
    FractionComplement(),
    SigVerifyDrop(),
    CondNegate(),
    IntShift(),
)

OPERATORS_BY_NAME: dict[str, MutationOperator] = {
    op.name: op for op in OPERATORS
}


def generate_mutants(
    path: str,
    source: str,
    qualnames: set[str],
    operators: tuple[MutationOperator, ...] = OPERATORS,
) -> list[Mutant]:
    """Every catalog mutant for one file's eligible functions.

    Mutants whose patched module no longer parses are dropped here (an
    unparsable mutant would only measure Python's parser, not our
    checker stack).
    """
    tree = ast.parse(source)
    mutants: list[Mutant] = []
    for operator in operators:
        for mutant in operator.mutate(path, source, tree, qualnames):
            try:
                ast.parse(mutant.apply(source))
            except SyntaxError:
                continue
            mutants.append(mutant)
    return mutants
