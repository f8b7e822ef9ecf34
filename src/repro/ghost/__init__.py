"""GHOST baseline: heaviest-subtree fork choice (Sompolinsky & Zohar)."""

from .ambiguity import (
    AppendixAScenario,
    build_appendix_a,
    no_view_matches_global,
)
from .chain import GhostTree, HeaviestSubtree
from .node import GhostNode

__all__ = [
    "AppendixAScenario",
    "GhostNode",
    "GhostTree",
    "HeaviestSubtree",
    "build_appendix_a",
    "no_view_matches_global",
]
