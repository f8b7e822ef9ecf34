"""Mutation-adequacy analysis for the checker stack.

``repro.mutate`` plants consensus-critical defects — the fee-split,
signature, maturity, and fork-choice bugs Bitcoin-NG's security
argument cares about — and measures which layer of the repo's checker
stack (incremental sanitizer, golden fingerprints, tier-1 tests)
actually catches each one.  See :mod:`repro.mutate.engine` for the
pipeline and ``docs/mutation.md`` for the operator catalog and survivor
policy.
"""

from .engine import (
    MutantTask,
    MutantVerdict,
    MutationEngine,
    MutationRun,
    ShadowTree,
    companion_tests,
)
from .operators import OPERATORS, Mutant, generate_mutants
from .report import (
    bench_section,
    gate,
    kill_matrix,
    module_scores,
    parse_allowlist,
    render_report,
)
from .sites import SiteMap, enumerate_sites

__all__ = [
    "MutantTask",
    "MutantVerdict",
    "MutationEngine",
    "MutationRun",
    "ShadowTree",
    "companion_tests",
    "OPERATORS",
    "Mutant",
    "generate_mutants",
    "bench_section",
    "gate",
    "kill_matrix",
    "module_scores",
    "parse_allowlist",
    "render_report",
    "SiteMap",
    "enumerate_sites",
]
