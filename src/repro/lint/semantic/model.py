"""The semantic index data model: what one lint run knows about src/.

Everything here is a value object with a deterministic ``to_dict`` /
``from_dict`` round-trip: the index is cached on disk between lint runs
(keyed by file content hashes) and the determinism tests pin the JSON
rendering byte-identical across runs, so every container serializes in
a fixed order — dicts sorted by key, tuples in AST extraction order.

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

#: Bump-formula atoms/combinators, serialized as nested JSON lists:
#: ``True``/``False`` leaves, ``["call", name]`` for "this self-call
#: bumps iff the callee does", ``["and", ...]`` / ``["or", ...]``.
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

    def to_dict(self) -> dict[str, Any]:
        return {"root": self.root, "chain": list(self.chain)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ParamRef":
        return cls(root=data["root"], chain=tuple(data["chain"]))


@dataclass(frozen=True)
class WriteSite:
    """One state write: which attribute/parameter, where, and the line."""

    target: str  #: self-attribute name or parameter root written through
    lineno: int
    desc: str  #: the offending source line, stripped

    def to_dict(self) -> dict[str, Any]:
        return {"target": self.target, "lineno": self.lineno, "desc": self.desc}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WriteSite":
        return cls(
            target=data["target"],
            lineno=int(data["lineno"]),
            desc=data["desc"],
        )


@dataclass(frozen=True)
class ArgInfo:
    """One call argument as the dataflow analyses see it."""

    taint: ParamRef | None  #: the caller parameter it derives from
    display: str | None  #: dotted source text for Name/Attribute args
    rng_tag: str | None  #: RNG stream tag (``topo_rng`` → ``"topo"``)

    def to_dict(self) -> dict[str, Any]:
        return {
            "taint": self.taint.to_dict() if self.taint else None,
            "display": self.display,
            "rng_tag": self.rng_tag,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ArgInfo":
        taint = data.get("taint")
        return cls(
            taint=ParamRef.from_dict(taint) if taint else None,
            display=data.get("display"),
            rng_tag=data.get("rng_tag"),
        )


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

    def to_dict(self) -> dict[str, Any]:
        return {
            "lineno": self.lineno,
            "kind": self.kind,
            "target": list(self.target),
            "args": [arg.to_dict() for arg in self.args],
            "keywords": [[name, arg.to_dict()] for name, arg in self.keywords],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CallSite":
        return cls(
            lineno=int(data["lineno"]),
            kind=data["kind"],
            target=tuple(data["target"]),
            args=tuple(ArgInfo.from_dict(a) for a in data["args"]),
            keywords=tuple(
                (name, ArgInfo.from_dict(arg)) for name, arg in data["keywords"]
            ),
        )


@dataclass(frozen=True)
class RngAssign:
    """A tagged-RNG assignment whose source stream differs from its target."""

    lineno: int
    target: str
    target_tag: str
    value: str
    value_tag: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "lineno": self.lineno,
            "target": self.target,
            "target_tag": self.target_tag,
            "value": self.value,
            "value_tag": self.value_tag,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RngAssign":
        return cls(
            lineno=int(data["lineno"]),
            target=data["target"],
            target_tag=data["target_tag"],
            value=data["value"],
            value_tag=data["value_tag"],
        )


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

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lineno": self.lineno,
            "params": list(self.params),
            "is_method": self.is_method,
            "has_vararg": self.has_vararg,
            "has_kwarg": self.has_kwarg,
            "decorators": list(self.decorators),
            "self_writes": [w.to_dict() for w in self.self_writes],
            "param_mutations": [w.to_dict() for w in self.param_mutations],
            "returns_params": list(self.returns_params),
            "bump_formula": formula_to_json(self.bump_formula),
            "calls": [c.to_dict() for c in self.calls],
            "rng_assign_mismatches": [
                r.to_dict() for r in self.rng_assign_mismatches
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FunctionSummary":
        return cls(
            name=data["name"],
            lineno=int(data["lineno"]),
            params=tuple(data["params"]),
            is_method=bool(data["is_method"]),
            has_vararg=bool(data["has_vararg"]),
            has_kwarg=bool(data["has_kwarg"]),
            decorators=tuple(data["decorators"]),
            self_writes=tuple(
                WriteSite.from_dict(w) for w in data["self_writes"]
            ),
            param_mutations=tuple(
                WriteSite.from_dict(w) for w in data["param_mutations"]
            ),
            returns_params=tuple(data["returns_params"]),
            bump_formula=_formula_from_json(data["bump_formula"]),
            calls=tuple(CallSite.from_dict(c) for c in data["calls"]),
            rng_assign_mismatches=tuple(
                RngAssign.from_dict(r) for r in data["rng_assign_mismatches"]
            ),
        )


def _formula_from_json(value: Formula) -> Formula:
    """Normalise a JSON-loaded formula back to tuples for hashing."""
    if isinstance(value, list):
        return tuple(_formula_from_json(part) for part in value)
    return value


def formula_to_json(value: Formula) -> Formula:
    if isinstance(value, tuple):
        return [formula_to_json(part) for part in value]
    return value


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

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lineno": self.lineno,
            "bases": list(self.bases),
            "versioned": self.versioned,
            "class_attrs": list(self.class_attrs),
            "methods": {
                name: fn.to_dict() for name, fn in sorted(self.methods.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClassSummary":
        return cls(
            name=data["name"],
            lineno=int(data["lineno"]),
            bases=tuple(data["bases"]),
            versioned=bool(data["versioned"]),
            class_attrs=tuple(data["class_attrs"]),
            methods={
                name: FunctionSummary.from_dict(fn)
                for name, fn in data["methods"].items()
            },
        )


@dataclass(frozen=True)
class ModuleSummary:
    """One module's slice of the index (the unit of cache reuse)."""

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

    def to_dict(self) -> dict[str, Any]:
        return {
            "display_path": self.display_path,
            "module": self.module,
            "sha": self.sha,
            "import_modules": dict(sorted(self.import_modules.items())),
            "import_names": {
                local: list(target)
                for local, target in sorted(self.import_names.items())
            },
            "functions": {
                name: fn.to_dict()
                for name, fn in sorted(self.functions.items())
            },
            "classes": {
                name: c.to_dict() for name, c in sorted(self.classes.items())
            },
            "set_idents": list(self.set_idents),
            "tuple_dict_idents": list(self.tuple_dict_idents),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModuleSummary":
        return cls(
            display_path=data["display_path"],
            module=data["module"],
            sha=data["sha"],
            import_modules=dict(data["import_modules"]),
            import_names={
                local: (target[0], target[1])
                for local, target in data["import_names"].items()
            },
            functions={
                name: FunctionSummary.from_dict(fn)
                for name, fn in data["functions"].items()
            },
            classes={
                name: ClassSummary.from_dict(c)
                for name, c in data["classes"].items()
            },
            set_idents=tuple(data["set_idents"]),
            tuple_dict_idents=tuple(data["tuple_dict_idents"]),
        )
