"""Project-wide semantic index and the NG601 interprocedural rule.

Importing this package registers NG601 in the shared rule registry
(:data:`repro.lint.rules.RULES`); :mod:`repro.lint` does so on package
import, which is why ``repro lint`` always sees it.
"""

from .extract import (
    MUTATING_METHODS,
    VERSIONED_MARKER,
    content_sha,
    extract_module,
    harvest_set_idents,
    harvest_tuple_dict_idents,
)
from .index import FunctionKey, SemanticIndex, build_index
from .model import (
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    WriteSite,
)
from .rules import MissingVersionBump, SemanticRule

__all__ = [
    "CallSite",
    "ClassSummary",
    "FunctionKey",
    "FunctionSummary",
    "MissingVersionBump",
    "ModuleSummary",
    "MUTATING_METHODS",
    "SemanticIndex",
    "SemanticRule",
    "VERSIONED_MARKER",
    "WriteSite",
    "build_index",
    "content_sha",
    "extract_module",
    "harvest_set_idents",
    "harvest_tuple_dict_idents",
]
