"""The semantic index data model: what one lint run knows about src/.

Everything here is a frozen value object compared with ``==``: the
index is rebuilt from source on every lint run and never leaves the
process, and the determinism tests pin two builds of the same sources
equal.  ``repro.mutate`` leans on that: it enumerates mutation sites
from an index it builds itself and keys its baseline on the module
shas, which is sound only because extraction is a pure function of
(path, source).

The model is deliberately *approximate* in documented ways (see
:mod:`repro.lint.semantic.extract`): taint tracks ``self``-rooted
assignment, not aliases through containers; call resolution covers
self-calls, local names, and imports, not duck-typed receivers.  NG601
is tuned so those approximations under-report rather than spray false
positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Bump-formula atoms/combinators as nested tuples: ``True``/``False``
#: leaves, ``("call", name)`` for "this self-call bumps iff the callee
#: does", ``("and", ...)`` / ``("or", ...)``.
Formula = Any


@dataclass(frozen=True)
class WriteSite:
    """One state write: which ``self`` attribute, where, and the line."""

    target: str  #: the ``self`` attribute written through
    lineno: int
    desc: str  #: the offending source line, stripped


@dataclass(frozen=True)
class CallSite:
    """One call expression, classified for later resolution.

    ``kind``/``target`` pairs:

    * ``("self", (method,))`` — ``self.method(...)``;
    * ``("local", (name,))`` — a same-module function or class;
    * ``("import", (module, name))`` — a name imported from ``module``
      (relative imports resolved to absolute dotted paths);
    * ``("module", (module, attr))`` — ``mod.attr(...)`` via an
      imported module alias;
    * ``("unknown", ())`` — anything else (duck-typed receivers).
    """

    lineno: int
    kind: str
    target: tuple[str, ...]


@dataclass(frozen=True)
class FunctionSummary:
    """Everything NG601 and the site walk need to know about one function."""

    name: str
    lineno: int
    #: Named parameters in order (positional then keyword-only),
    #: including ``self`` for methods.
    params: tuple[str, ...]
    is_method: bool = False
    #: Writes through ``self`` (excluding ``.version`` bumps).
    self_writes: tuple[WriteSite, ...] = ()
    #: Whether every path bumps ``self.version`` (see extract module).
    bump_formula: Formula = False
    calls: tuple[CallSite, ...] = ()

    def self_call_names(self) -> tuple[str, ...]:
        return tuple(
            call.target[0] for call in self.calls if call.kind == "self"
        )


@dataclass(frozen=True)
class ClassSummary:
    """A class: resolved bases, the versioned marker, and methods."""

    name: str
    lineno: int
    #: Base expressions resolved to dotted names where possible
    #: (``"repro.protocols.ProtocolAdapter"``), bare names otherwise.
    bases: tuple[str, ...] = ()
    #: ``# repro: versioned`` marker on (or above) the class line.
    versioned: bool = False
    methods: dict[str, FunctionSummary] = field(default_factory=dict)


@dataclass(frozen=True)
class ModuleSummary:
    """One module's slice of the index (the unit ``repro.mutate`` splices)."""

    display_path: str
    module: str  #: dotted module name (or fixture-directive override)
    sha: str  #: content hash of the source the summary was built from
    #: Local alias → imported module (absolute dotted path).
    import_modules: dict[str, str] = field(default_factory=dict)
    #: Local alias → (absolute module, original name).
    import_names: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: Feed for NG301: identifiers typed/assigned as set/frozenset.
    set_idents: tuple[str, ...] = ()
    #: Feed for NG303: identifiers annotated ``dict[tuple[...], ...]``.
    tuple_dict_idents: tuple[str, ...] = ()
