"""Project-wide semantic index: symbol tables and the call graph.

``repro lint`` builds it once per run for the project-wide set /
tuple-dict harvests NG301 and NG303 read, and ``repro.mutate`` walks its
call graph to enumerate mutation sites.
"""

from .extract import (
    content_sha,
    extract_module,
    harvest_set_idents,
    harvest_tuple_dict_idents,
)
from .index import FunctionKey, SemanticIndex, build_index
from .model import CallSite, ClassSummary, FunctionSummary, ModuleSummary

__all__ = [
    "CallSite",
    "ClassSummary",
    "FunctionKey",
    "FunctionSummary",
    "ModuleSummary",
    "SemanticIndex",
    "build_index",
    "content_sha",
    "extract_module",
    "harvest_set_idents",
    "harvest_tuple_dict_idents",
]
