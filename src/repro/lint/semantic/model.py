"""The semantic index data model: what one lint run knows about src/.

Everything here is a frozen value object compared with ``==``: the
index is rebuilt from source on every lint run and never leaves the
process, and the determinism tests pin two builds of the same sources
equal.  ``repro.mutate`` leans on that: it enumerates mutation sites
from an index it builds itself and keys its baseline on the module
shas, which is sound only because extraction is a pure function of
(path, source).

The model is deliberately *approximate* in documented ways (see
:mod:`repro.lint.semantic.extract`): taint tracks assignment roots, not
aliases through containers; call resolution covers self-calls, local
names, and imports, not duck-typed receivers.  The NG6xx rules built on
top are tuned so those approximations under-report rather than spray
false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Bump-formula atoms/combinators as nested tuples: ``True``/``False``
#: leaves, ``("call", name)`` for "this self-call bumps iff the callee
#: does", ``("and", ...)`` / ``("or", ...)``.
Formula = Any


@dataclass(frozen=True)
class ParamRef:
    """A value derived from a function parameter: root + attribute path.

    ``self._entries`` inside a method is ``ParamRef("self",
    ("_entries",))``; ``node.mempool`` inside a checker hook is
    ``ParamRef("node", ("mempool",))``.  The root is what mutation and
    call-edge propagation key on.
    """

    root: str
    chain: tuple[str, ...] = ()

    def extend(self, attr: str) -> "ParamRef":
        return ParamRef(self.root, self.chain + (attr,))

    def display(self) -> str:
        return ".".join((self.root, *self.chain))


@dataclass(frozen=True)
class WriteSite:
    """One state write: which attribute/parameter, where, and the line."""

    target: str  #: self-attribute name or parameter root written through
    lineno: int
    desc: str  #: the offending source line, stripped


@dataclass(frozen=True)
class ArgInfo:
    """One call argument as the dataflow analyses see it."""

    taint: ParamRef | None  #: the caller parameter it derives from
    display: str | None  #: dotted source text for Name/Attribute args
    rng_tag: str | None  #: RNG stream tag (``topo_rng`` → ``"topo"``)


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
    args: tuple[ArgInfo, ...] = ()
    keywords: tuple[tuple[str, ArgInfo], ...] = ()


@dataclass(frozen=True)
class RngAssign:
    """A tagged-RNG assignment whose source stream differs from its target."""

    lineno: int
    target: str
    target_tag: str
    value: str
    value_tag: str


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the NG6xx rules need to know about one function."""

    name: str
    lineno: int
    #: Named parameters in order (positional then keyword-only),
    #: including ``self`` for methods.
    params: tuple[str, ...]
    is_method: bool = False
    has_vararg: bool = False
    has_kwarg: bool = False
    #: Trailing decorator names (``abc.abstractmethod`` → ``"abstractmethod"``).
    decorators: tuple[str, ...] = ()
    #: Writes through ``self`` (excluding ``.version`` bumps).
    self_writes: tuple[WriteSite, ...] = ()
    #: Writes through non-self parameters (the purity rule's seeds).
    param_mutations: tuple[WriteSite, ...] = ()
    #: Parameters whose (possibly attribute-derived) value is returned.
    returns_params: tuple[str, ...] = ()
    #: Whether every path bumps ``self.version`` (see extract module).
    bump_formula: Formula = False
    calls: tuple[CallSite, ...] = ()
    rng_assign_mismatches: tuple[RngAssign, ...] = ()

    def self_call_names(self) -> tuple[str, ...]:
        return tuple(
            call.target[0] for call in self.calls if call.kind == "self"
        )


@dataclass(frozen=True)
class ClassSummary:
    """A class: resolved bases, markers, attributes, and methods."""

    name: str
    lineno: int
    #: Base expressions resolved to dotted names where possible
    #: (``"repro.protocols.ProtocolAdapter"``), bare names otherwise.
    bases: tuple[str, ...] = ()
    #: ``# repro: versioned`` marker on (or above) the class line.
    versioned: bool = False
    #: Class-level attributes assigned a value (bare annotations excluded).
    class_attrs: tuple[str, ...] = ()
    methods: dict[str, FunctionSummary] = field(default_factory=dict)

    @property
    def has_abstract_methods(self) -> bool:
        return any(
            "abstractmethod" in m.decorators for m in self.methods.values()
        )


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
