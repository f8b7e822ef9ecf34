"""Mutation-site enumeration via the semantic lint index.

"Consensus-critical" is a reachability question, and the PR 9 semantic
index already holds the project call graph — so the site enumerator
asks it instead of re-deriving anything:

1. **Adapter surfaces.**  Every method of every scanned class extending
   ``ProtocolAdapter`` is a root: the experiment runner drives protocol
   behaviour exclusively through those surfaces.
2. **Reachability closure.**  :meth:`SemanticIndex.reachable_functions`
   walks resolved call edges from the roots — with the instantiate
   closure, so node/chain/mempool objects built inside ``build_nodes``
   and then dispatched *by the simulator at runtime* still count.
3. **Ledger-container surfaces.**  Every method of the classes named
   in :data:`LEDGER_CLASSES` (``Mempool``, ``UtxoSet``) is eligible
   even when the static walk misses it: nodes reach their mempool
   through an attribute the call graph cannot type, and without this
   step its whole surface falls out of the net.
4. **Anchor modules.**  ``core/incentives.py``, ``core/remuneration.py``
   and ``ledger/validation.py`` are the paper's economic/validity core;
   they are eligible wholesale (including module-level constants, the
   ``<module>`` pseudo-qualname) even where the simulation never calls
   them — their mutants measure the *test* tier's adequacy.
   ``core/blocks.py`` is one too: its contextless verdicts are cached
   properties of the block dataclasses, which the call graph cannot
   reach (a property read is no call edge and a dataclass has no
   ``__init__`` for the instantiate closure to resolve).

Sites are then filtered to the consensus packages (``repro.core``,
``repro.ledger``, ``repro.crypto``, ``repro.mining``, plus the shared
block tree and chain node in ``repro.bitcoin.chain`` /
``repro.bitcoin.node`` and GHOST's rule in ``repro.ghost``): mutating
the plotting helpers would only measure noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..lint.engine import _parse, build_semantic_index, collect_files
from ..lint.semantic.index import FunctionKey, SemanticIndex

#: The adapter contract whose subclasses' methods are the roots.
ADAPTER_BASES = frozenset(
    {"repro.protocols.ProtocolAdapter", "ProtocolAdapter"}
)

#: Ledger containers whose whole surface is eligible (step 3).
LEDGER_CLASSES = frozenset({"Mempool", "UtxoSet"})

#: Packages whose functions may carry consensus-critical mutants.
TARGET_PACKAGES: tuple[str, ...] = (
    "repro.core",
    "repro.ledger",
    "repro.crypto",
    "repro.mining",
    # The one block tree and chain node every protocol runs on, and the
    # GHOST rule over them.
    "repro.bitcoin.chain",
    "repro.bitcoin.node",
    "repro.ghost",
)

#: Modules eligible wholesale, by trailing path (see module docstring).
ANCHOR_SUFFIXES: tuple[str, ...] = (
    "repro/core/blocks.py",
    "repro/core/incentives.py",
    "repro/core/params.py",
    "repro/core/remuneration.py",
    "repro/ledger/validation.py",
)


@dataclass
class SiteMap:
    """Eligible mutation sites, grouped per source file."""

    #: display path → sorted qualnames (``Class.method`` / ``fn`` /
    #: ``<module>``) eligible for mutation in that file.
    files: dict[str, list[str]] = field(default_factory=dict)
    #: Why each file qualified (display path → sorted reason tags).
    reasons: dict[str, list[str]] = field(default_factory=dict)
    n_roots: int = 0
    n_reachable: int = 0

    @property
    def n_sites(self) -> int:
        return sum(len(names) for names in self.files.values())


def _module_of(index: SemanticIndex, display_path: str) -> str:
    summary = index.modules.get(display_path)
    return summary.module if summary is not None else ""


def _in_targets(module: str, packages: tuple[str, ...]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


def _qualname(key: FunctionKey) -> str:
    if key.class_name:
        return f"{key.class_name}.{key.function}"
    return key.function


def build_site_index(root: Path) -> SemanticIndex:
    """The semantic index over every ``.py`` file under ``root``."""
    files = collect_files([root])
    return build_semantic_index([_parse(path) for path in files])


def enumerate_sites(
    index: SemanticIndex,
    packages: tuple[str, ...] = TARGET_PACKAGES,
) -> SiteMap:
    """All eligible mutation sites in ``index``, filtered to ``packages``."""
    sites = SiteMap()

    def admit(key: FunctionKey, reason: str) -> None:
        module = _module_of(index, key.display_path)
        if not _in_targets(module, packages):
            return
        names = sites.files.setdefault(key.display_path, [])
        qualname = _qualname(key)
        if qualname not in names:
            names.append(qualname)
        tags = sites.reasons.setdefault(key.display_path, [])
        if reason not in tags:
            tags.append(reason)

    roots: list[FunctionKey] = []
    for summary, cls in index.classes_extending(ADAPTER_BASES):
        roots.extend(index.class_surface(summary, cls))
    sites.n_roots = len(roots)

    reached = index.reachable_functions(roots)
    sites.n_reachable = len(reached)
    for key in sorted(
        reached, key=lambda k: (k.display_path, k.class_name or "", k.function)
    ):
        admit(key, "adapter-reachable")

    for display_path in sorted(index.modules):
        summary = index.modules[display_path]
        for name in sorted(LEDGER_CLASSES & summary.classes.keys()):
            cls = summary.classes[name]
            for key in index.class_surface(summary, cls):
                admit(key, "ledger-class")

    for display_path in sorted(index.modules):
        if not display_path.endswith(ANCHOR_SUFFIXES):
            continue
        summary = index.modules[display_path]
        module = summary.module
        if not _in_targets(module, packages):
            continue
        admit(
            FunctionKey(display_path, None, "<module>"), "anchor-module"
        )
        for fn_name in sorted(summary.functions):
            admit(FunctionKey(display_path, None, fn_name), "anchor-module")
        for class_name in sorted(summary.classes):
            cls = summary.classes[class_name]
            for method_name in sorted(cls.methods):
                admit(
                    FunctionKey(display_path, class_name, method_name),
                    "anchor-module",
                )

    for path in sites.files:
        sites.files[path] = sorted(sites.files[path])
        sites.reasons[path] = sorted(sites.reasons[path])
    return sites
