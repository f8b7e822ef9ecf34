"""Observability: structured traces, their summary, periodic samplers.

The instrumentation layer for the simulation stack.  See
``docs/observability.md`` for usage; the short version::

    from repro.experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig(obs_dir="out")   # enables everything
    result, log = run_experiment(config)
    # out/<slug>.trace.jsonl  — schema-versioned event trace
    # out/<slug>.metrics.json — the trace's summary, folded as it was written
    # result.obs              — the same snapshot, in-process

One record stream, one fold: every number in the snapshot is
:class:`TraceSummary` (``repro trace summarize``'s aggregate) as the
live tracer's tap, so it equals ``summarize`` of the saved file.
Disabled (the default) costs nothing measurable: hot paths hold either
a live tracer or ``None`` behind one attribute check.
"""

from .analyze import (
    FAULT_EVENTS,
    TraceSummary,
    find_traces,
    format_summary,
    format_timeline,
    format_toptalkers,
    iter_records,
    load_records,
    summarize,
)
from .facade import NULL_OBS, Observability, config_slug
from .samplers import ForkSampler, LinkSampler, MempoolSampler, PeriodicSampler
from .trace import (
    JsonlSink,
    MemorySink,
    SCHEMA_VERSION,
    TraceError,
    Tracer,
    short_hash,
)

__all__ = [
    "FAULT_EVENTS",
    "ForkSampler",
    "JsonlSink",
    "LinkSampler",
    "MemorySink",
    "MempoolSampler",
    "NULL_OBS",
    "Observability",
    "PeriodicSampler",
    "SCHEMA_VERSION",
    "TraceError",
    "TraceSummary",
    "Tracer",
    "config_slug",
    "find_traces",
    "format_summary",
    "format_timeline",
    "format_toptalkers",
    "iter_records",
    "load_records",
    "short_hash",
    "summarize",
]
