"""Experiment harness: configurations, runner, sweeps, and reporting."""

from .charts import ascii_chart, sweep_chart
from .config import (
    CHECK_MODES,
    ExperimentConfig,
    Protocol,
    constant_throughput_block_size,
    resolve_check_mode,
)
from .difficulty_dynamics import (
    DifficultyTrace,
    PowerDropReport,
    PowerEvent,
    run_power_drop,
    simulate_difficulty_dynamics,
)
from .propagation import (
    CONSTANT_LOAD_TX_RATE,
    PROPAGATION_SIZE_POINTS,
    PropagationPoint,
    linear_fit,
    propagation_samples,
    propagation_study,
)
from .parallel import JOBS_ENV_VAR, SweepExecutor, resolve_jobs, run_many
from .reporting import (
    METRIC_COLUMNS,
    format_propagation_table,
    format_series,
    format_sweep_table,
)
from .runner import (
    ExperimentResult,
    NoBlocksMinedError,
    build_network,
    run_experiment,
)
from .sweeps import (
    FREQUENCY_POINTS,
    SIZE_POINTS,
    SweepPoint,
    SweepResult,
    frequency_sweep,
    size_sweep,
)

__all__ = [
    "CHECK_MODES",
    "CONSTANT_LOAD_TX_RATE",
    "FREQUENCY_POINTS",
    "JOBS_ENV_VAR",
    "SweepExecutor",
    "resolve_jobs",
    "run_many",
    "METRIC_COLUMNS",
    "PROPAGATION_SIZE_POINTS",
    "SIZE_POINTS",
    "DifficultyTrace",
    "ExperimentConfig",
    "ExperimentResult",
    "NoBlocksMinedError",
    "PowerDropReport",
    "PowerEvent",
    "PropagationPoint",
    "Protocol",
    "resolve_check_mode",
    "run_power_drop",
    "simulate_difficulty_dynamics",
    "SweepPoint",
    "SweepResult",
    "ascii_chart",
    "build_network",
    "sweep_chart",
    "constant_throughput_block_size",
    "format_propagation_table",
    "format_series",
    "format_sweep_table",
    "frequency_sweep",
    "linear_fit",
    "propagation_samples",
    "propagation_study",
    "run_experiment",
    "size_sweep",
]
