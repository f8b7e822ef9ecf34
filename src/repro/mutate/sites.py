"""Mutation-site enumeration: every definition in the consensus packages.

A site is every top-level function and every method of a top-level
class in a file under :data:`TARGET_PACKAGES` — the same definitions
:func:`repro.mutate.operators.definition_names` walks when it plants
mutants, so what a site is gets decided in one place.  The anchor
modules (:data:`ANCHOR_SUFFIXES`) add the ``<module>`` pseudo-site:
their module-level constants and class-level attribute defaults (the
40/60 split, the poison fraction) are mutated too.

The packages are the consensus code (``repro.core``, ``repro.ledger``,
``repro.crypto``, ``repro.mining``, plus the shared block tree and
chain node in ``repro.bitcoin.chain`` / ``repro.bitcoin.node`` and
GHOST's rule in ``repro.ghost``): mutating the plotting helpers would
only measure noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from ..lint.engine import collect_files, infer_module
from .operators import definition_names

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

#: Modules whose constants are sites too (the ``<module>`` pseudo-site).
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

    @property
    def n_sites(self) -> int:
        return sum(len(names) for names in self.files.values())


def _in_targets(module: str, packages: tuple[str, ...]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


def enumerate_sites(
    root: Path, packages: tuple[str, ...] = TARGET_PACKAGES
) -> SiteMap:
    """Every site in the ``.py`` files under ``root``, within ``packages``."""
    sites = SiteMap()
    for path in collect_files([root]):
        if not _in_targets(infer_module(path), packages):
            continue
        display_path = path.as_posix()
        names = set(definition_names(ast.parse(path.read_text("utf-8"))))
        if display_path.endswith(ANCHOR_SUFFIXES):
            names.add("<module>")
        if names:
            sites.files[display_path] = sorted(names)
    return sites
