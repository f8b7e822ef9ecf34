"""Project-wide semantic index and the NG6xx interprocedural rules.

Importing this package registers NG601–NG604 in the shared rule
registry (:data:`repro.lint.rules.RULES`); :mod:`repro.lint` does so on
package import, which is why ``repro lint`` always sees them.
"""

from .extract import (
    MUTATING_METHODS,
    VERSIONED_MARKER,
    content_sha,
    extract_module,
    harvest_set_idents,
    harvest_tuple_dict_idents,
    rng_stream_tag,
)
from .index import FunctionKey, SemanticIndex, build_index
from .model import (
    ArgInfo,
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    ParamRef,
    RngAssign,
    WriteSite,
)
from .rules import (
    AdapterSurfaceConformance,
    ImpureChecker,
    MissingVersionBump,
    RngStreamProvenance,
    SemanticRule,
)

__all__ = [
    "AdapterSurfaceConformance",
    "ArgInfo",
    "CallSite",
    "ClassSummary",
    "FunctionKey",
    "FunctionSummary",
    "ImpureChecker",
    "MissingVersionBump",
    "ModuleSummary",
    "MUTATING_METHODS",
    "ParamRef",
    "RngAssign",
    "RngStreamProvenance",
    "SemanticIndex",
    "SemanticRule",
    "VERSIONED_MARKER",
    "WriteSite",
    "build_index",
    "content_sha",
    "extract_module",
    "harvest_set_idents",
    "harvest_tuple_dict_idents",
    "rng_stream_tag",
]
