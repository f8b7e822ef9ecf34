"""Deterministic hot-path profiling: one run's wall-time attribution.

The measurement layer for performance work on the simulation stack.
See ``docs/profiling.md`` for usage; the short version::

    from repro.experiments import ExperimentConfig
    from repro.prof import profile_experiment

    result, log, profile = profile_experiment(ExperimentConfig())
    print(profile.phases["heappop"].seconds)

Or from the shell::

    python -m repro prof run --protocol bitcoin-ng --nodes 1000 --out prof/
    python -m repro prof report prof/<slug>.prof.json

Profiling never perturbs results: profiled runs are bit-identical to
bare runs (``tests/test_determinism.py``), and an unprofiled run has no
profiler code on its path at all — the profiler is an observer attached
to the simulator's one dispatch seam (``Simulator.attach``).
"""

from .profile import (
    PHASE_DISPATCH,
    PHASE_HEAPPOP,
    PHASE_SANITIZE,
    PROFILE_VERSION,
    PhaseStat,
    Profile,
    ProfileError,
    load_profile,
    to_folded,
)
from .report import format_report
from .runtime import ProfilerRuntime

__all__ = [
    "PHASE_DISPATCH",
    "PHASE_HEAPPOP",
    "PHASE_SANITIZE",
    "PROFILE_VERSION",
    "PhaseStat",
    "Profile",
    "ProfileError",
    "ProfilerRuntime",
    "format_report",
    "load_profile",
    "profile_experiment",
    "to_folded",
]


def profile_experiment(config):
    """Run one profiled experiment: ``(result, log, profile)``.

    The convenience entry point the CLI, benchmarks, and tests share.
    The experiment itself is bit-identical to an unprofiled
    ``run_experiment(config)``.
    """
    from ..experiments.runner import run_experiment
    from ..obs.facade import config_slug

    profiler = ProfilerRuntime()
    result, log = run_experiment(config, profiler=profiler)
    meta = {
        "slug": config_slug(config),
        "protocol": config.protocol.value,
        "n_nodes": config.n_nodes,
        "seed": config.seed,
        "block_rate": config.block_rate,
        "block_size_bytes": config.block_size_bytes,
        "key_block_rate": config.key_block_rate,
        "check": config.check,
    }
    profile = profiler.build_profile(
        meta=meta,
        wall_setup=result.wall_setup_seconds,
        wall_simulate=result.wall_simulate_seconds,
        events=result.events_processed,
    )
    return result, log, profile
