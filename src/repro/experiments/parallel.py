"""Parallel experiment dispatch.

The paper's evaluation grid — {protocol} × {frequency or size} × {seed}
on the testbed — is embarrassingly parallel: every cell is an
independent seeded simulation.  :class:`SweepExecutor` fans cells out
over a :class:`~concurrent.futures.ProcessPoolExecutor` (separate
processes, since a simulation run is pure-Python CPU work the GIL would
serialize) and returns results in submission order, so a parallel sweep
is bit-identical to a serial one regardless of which worker finishes
first.

Worker count resolution, in priority order: an explicit ``jobs``
argument, the ``REPRO_JOBS`` environment variable, then the machine's
CPU count.  Requests beyond the CPUs actually available to this process
are clamped (and logged): simulation workers are pure CPU, so
oversubscribing cores only adds scheduler thrash — a 4-worker sweep on
a 1-CPU container used to run *slower* than serial.  ``jobs=1``
short-circuits to plain in-process execution — no pool, no pickling —
which keeps debugging and single-core machines simple.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .config import ExperimentConfig
from .runner import ExperimentResult, run_experiment

# Environment variable consulted when no explicit worker count is given.
JOBS_ENV_VAR = "REPRO_JOBS"

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs usable by *this process* (affinity-aware, container-aware).

    ``os.cpu_count()`` reports the machine; a cgroup/affinity-limited
    process may own far fewer.  Falls back to the machine count where
    affinity masks do not exist (macOS, Windows).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None = None, *, clamp: bool = True) -> int:
    """Resolve a worker count: ``jobs`` arg > ``REPRO_JOBS`` > CPU count.

    With ``clamp`` (the default), a request exceeding the CPUs available
    to this process is reduced to that limit and the clamp is logged —
    pure-CPU simulation workers gain nothing from oversubscription.
    A count below 1, or a ``REPRO_JOBS`` that is not a whole number, is
    a :class:`ValueError` (``repro.cli`` reports it as a usage error).
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = 0  # not a number: reported like any count below 1
            if jobs < 1:
                raise ValueError(
                    f"{JOBS_ENV_VAR}={env!r} is not a worker count: "
                    "use a whole number >= 1, or leave it unset for one "
                    "worker per available CPU"
                )
        else:
            jobs = available_cpus()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if clamp:
        cpus = available_cpus()
        if jobs > cpus:
            logger.info(
                "clamping %d requested sweep workers to %d available CPU%s",
                jobs,
                cpus,
                "" if cpus == 1 else "s",
            )
            jobs = cpus
    return jobs


def _run_one(config: ExperimentConfig) -> ExperimentResult:
    """Top-level worker entry point (must be picklable for the pool).

    Only the :class:`ExperimentResult` crosses the process boundary;
    the observation log (every block arrival at every node) stays in
    the worker, keeping the pickling cost per cell trivial.
    Observability round-trips too: a config with ``obs_dir`` set makes
    the worker rebuild its own instrumentation, write the cell's trace
    and metrics files (named by the cell's slug, so workers never
    collide), and return the metric snapshot on ``result.obs``.
    """
    result, _log = run_experiment(config)
    return result


class SweepExecutor:
    """Runs experiment configurations across a process pool.

    Deterministic by construction: results are returned in the order
    the configurations were given, independent of completion order, and
    each cell's simulation is seeded by its own config — so
    ``SweepExecutor(jobs=n).map(cs) == SweepExecutor(jobs=1).map(cs)``
    for any ``n``.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)

    def map_tasks(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        progress: Callable[[int, int, Any], None] | None = None,
    ) -> list[R]:
        """Run ``fn`` over every item; results come back in input order.

        The generic fan-out under :meth:`map`, also used by the
        mutation engine to evaluate mutants in parallel.  ``fn`` must be
        a top-level (picklable) callable and each item's work must be
        independent; determinism then holds by construction, since
        results are reordered to submission order regardless of which
        worker finishes first.

        ``progress`` is a per-item heartbeat: called as
        ``progress(index, total, result)`` with the item's *submission*
        index the moment that item finishes — in completion order under
        a pool, so a long run shows life as workers report in.  The
        callback only observes, so it cannot affect determinism.
        """
        ordered: Sequence[T] = list(items)
        workers = min(self.jobs, len(ordered))
        if workers <= 1:
            results = []
            for index, item in enumerate(ordered):
                result = fn(item)
                if progress is not None:
                    progress(index, len(ordered), result)
                results.append(result)
            return results
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, item) for item in ordered]
            if progress is not None:
                index_of = {future: i for i, future in enumerate(futures)}
                for future in as_completed(futures):
                    progress(index_of[future], len(ordered), future.result())
            return [future.result() for future in futures]

    def map(
        self,
        configs: Iterable[ExperimentConfig],
        progress: Callable[[int, int, ExperimentResult], None] | None = None,
    ) -> list[ExperimentResult]:
        """Run every config; results come back in input order."""
        return self.map_tasks(_run_one, configs, progress)


def run_many(
    configs: Iterable[ExperimentConfig],
    jobs: int | None = None,
    progress: Callable[[int, int, ExperimentResult], None] | None = None,
) -> list[ExperimentResult]:
    """One-shot convenience wrapper around :class:`SweepExecutor`."""
    return SweepExecutor(jobs).map(configs, progress=progress)
