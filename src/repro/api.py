"""repro.api — the stable public facade.

One import surface for everything a script, notebook, or downstream
package should need.  Internal module layout may shift between
releases; the names re-exported here will not.  Three of the seven
``examples/`` start here (``quickstart``, ``frequency_tradeoff``,
``power_variation``, the last also reaching into ``repro.metrics``,
``repro.mining`` and ``repro.net``); the other four build their worlds
from the packages they study (``repro.core``, ``repro.attacks``,
``repro.ghost``, ``repro.net``, ``repro.wallet`` and the substrates).

Groups
------
Experiments
    :class:`ExperimentConfig`, :class:`Protocol`, :func:`run_experiment`,
    :class:`ExperimentResult`, the frequency/size sweeps, and
    :func:`constant_throughput_block_size`.
Instrumentation
    Config fields, not a separate object: ``check`` / ``check_mode`` /
    ``check_stride`` (``--check``), ``obs_dir`` (``--obs``) and
    ``scenario`` (``--scenario``) on :class:`ExperimentConfig` describe
    a checked, traced, fault-injected run, and travel to sweep workers
    with it — ``config.with_(check=True, obs_dir="out/")``.
Protocol adapters
    :class:`ProtocolAdapter` and :func:`get_adapter`, which maps each
    :class:`Protocol` member to its adapter.  The set is closed: a new
    protocol is a :class:`Protocol` member plus an adapter class in
    :mod:`repro.protocols`.
Sanitizer
    :class:`SanitizerRuntime` and the Bitcoin-NG checker factory
    (:func:`ng_checkers`, no arguments — the runtime's ``mode`` is
    ``"incremental"`` or ``"audit"``).
Profiler
    :class:`ProfilerRuntime` and :func:`profile_experiment`.

Quickstart
----------
>>> from repro.api import ExperimentConfig, Protocol, run_experiment
>>> config = ExperimentConfig(protocol=Protocol.BITCOIN_NG, n_nodes=50,
...                           block_rate=0.1, block_size_bytes=20_000,
...                           target_blocks=40)
>>> result, log = run_experiment(config)
>>> 0 <= result.mining_power_utilization <= 1
True
"""

from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    PowerEvent,
    Protocol,
    SweepPoint,
    SweepResult,
    build_network,
    constant_throughput_block_size,
    format_series,
    format_sweep_table,
    frequency_sweep,
    run_experiment,
    run_power_drop,
    simulate_difficulty_dynamics,
    size_sweep,
)
from .prof import ProfilerRuntime, profile_experiment
from .protocols import ProtocolAdapter, get_adapter
from .sanitizer import (
    SanitizerRuntime,
    ng_checkers,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "PowerEvent",
    "ProfilerRuntime",
    "Protocol",
    "ProtocolAdapter",
    "SanitizerRuntime",
    "SweepPoint",
    "SweepResult",
    "build_network",
    "constant_throughput_block_size",
    "format_series",
    "format_sweep_table",
    "frequency_sweep",
    "get_adapter",
    "ng_checkers",
    "profile_experiment",
    "run_experiment",
    "run_power_drop",
    "simulate_difficulty_dynamics",
    "size_sweep",
]
