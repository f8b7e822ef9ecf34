"""The semantic index data model: what one lint run knows about src/.

Everything here is a frozen value object compared with ``==``: the
index is rebuilt from source on every lint run and never leaves the
process, and the determinism tests pin two builds of the same sources
equal.  ``repro.mutate`` leans on that: it enumerates mutation sites
from an index it builds itself and keys its baseline on the module
shas, which is sound only because extraction is a pure function of
(path, source).

The model is deliberately *approximate* (see
:mod:`repro.lint.semantic.extract`): call resolution covers self-calls,
local names, and imports, not duck-typed receivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
    """Everything the site walk needs to know about one function."""

    name: str
    lineno: int
    #: Named parameters in order (positional then keyword-only),
    #: including ``self`` for methods.
    params: tuple[str, ...]
    is_method: bool = False
    calls: tuple[CallSite, ...] = ()


@dataclass(frozen=True)
class ClassSummary:
    """A class: resolved bases and methods."""

    name: str
    lineno: int
    #: Base expressions resolved to dotted names where possible
    #: (``"repro.protocols.ProtocolAdapter"``), bare names otherwise.
    bases: tuple[str, ...] = ()
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
