"""The Observability facade: one object wiring registry, tracer, samplers.

An :class:`Observability` instance is threaded through an experiment:
the :class:`~repro.net.network.Network` reads its tracer and registry,
protocol nodes pick the tracer up from the network, and the runner asks
it to install periodic samplers and to produce the final snapshot.

The disabled state is the singleton :data:`NULL_OBS` — its registry is
the null registry, its tracer is ``None``, and ``install``/``finalize``
do nothing — so un-instrumented behaviour (and performance) is the
default.  Because every experiment parameter lives in the picklable
:class:`~repro.experiments.config.ExperimentConfig`, observability
round-trips through process-pool sweep workers: each worker rebuilds
its own ``Observability`` from the config and writes to a per-cell file
named by the config's slug.
"""

from __future__ import annotations

import json
from pathlib import Path

from .registry import MetricRegistry, NULL_REGISTRY
from .samplers import ForkSampler, LinkSampler, MempoolSampler
from .trace import JsonlSink, Tracer

SNAPSHOT_VERSION = 1

# Default number of sampling points across a run when no explicit
# period is configured: enough to see dynamics, cheap to store.
DEFAULT_SAMPLE_POINTS = 100


def config_slug(config) -> str:
    """A filesystem-safe name unique per sweep cell.

    Protocol, block rate, block size, and seed are exactly the axes the
    Figure 8 grids vary, so every cell of a sweep lands in its own pair
    of files under a shared ``--obs`` directory.
    """
    protocol = getattr(config.protocol, "value", str(config.protocol))
    return (
        f"{protocol}-f{config.block_rate:g}"
        f"-b{config.block_size_bytes}-seed{config.seed}"
    )


class Observability:
    """Wires a metric registry, a tracer, and samplers into one run."""

    enabled = True

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
        out_dir: str | Path | None = None,
        slug: str = "run",
        sample_period: float | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.slug = slug
        self.sample_period = sample_period
        self.samplers: list = []

    # -- construction -------------------------------------------------------

    @classmethod
    def from_config(cls, config) -> "Observability | _NullObservability":
        """Build from an experiment config; disabled unless it asks.

        A config with ``obs_dir`` set gets a JSONL tracer writing to
        ``<obs_dir>/<slug>.trace.jsonl`` and a metrics snapshot beside
        it; otherwise the null singleton is returned.
        """
        out_dir = getattr(config, "obs_dir", None)
        if out_dir is None:
            return NULL_OBS
        slug = config_slug(config)
        sink = JsonlSink(Path(out_dir) / f"{slug}.trace.jsonl")
        return cls(
            tracer=Tracer(sink),
            out_dir=out_dir,
            slug=slug,
            sample_period=getattr(config, "obs_sample_period", None),
        )

    def tapped(self, tap) -> "Observability":
        """This facade, its tracer showing ``tap`` each record first."""
        sink = self.tracer.sink if self.tracer is not None else None
        self.tracer = Tracer(sink, tap)
        return self

    # -- file layout --------------------------------------------------------

    @property
    def trace_path(self) -> Path | None:
        if self.out_dir is None:
            return None
        return self.out_dir / f"{self.slug}.trace.jsonl"

    @property
    def metrics_path(self) -> Path | None:
        if self.out_dir is None:
            return None
        return self.out_dir / f"{self.slug}.metrics.json"

    # -- run lifecycle ------------------------------------------------------

    def resolve_period(self, horizon: float) -> float:
        """The sampling period: configured, or ~100 points per run."""
        if self.sample_period is not None:
            return self.sample_period
        return max(horizon / DEFAULT_SAMPLE_POINTS, 1e-3)

    def install(self, sim, network, nodes, horizon: float, meta: dict | None = None) -> None:
        """Start samplers on ``sim`` and open the trace.

        ``horizon`` is the full virtual duration (run + cooldown);
        samplers stop there.  Sampling reads state without mutating it
        or drawing randomness, so an instrumented run stays
        bit-identical to a bare one.
        """
        if self.tracer is not None:
            self.tracer.emit("trace_start", sim.now, **(meta or {}))
        period = self.resolve_period(horizon)
        self.samplers = [
            LinkSampler(
                network,
                tracer=self.tracer,
                registry=self.registry,
                period=period,
                until=horizon,
            ),
            MempoolSampler(
                nodes,
                tracer=self.tracer,
                registry=self.registry,
                period=period,
                until=horizon,
            ),
            ForkSampler(
                nodes,
                tracer=self.tracer,
                registry=self.registry,
                period=period,
                until=horizon,
            ),
        ]
        for sampler in self.samplers:
            sampler.start(sim)

    def finalize(
        self, network=None, extra: dict | None = None, end_time: float = 0.0
    ) -> dict:
        """Close the trace and return (and maybe write) the snapshot.

        The snapshot carries the full metric registry, the per-node
        traffic summary, and sampler counts; with an output directory
        configured it is also written as ``<slug>.metrics.json``.
        """
        snapshot: dict = {
            "snapshot_version": SNAPSHOT_VERSION,
            "slug": self.slug,
            "metrics": self.registry.collect(),
            "samples_taken": {
                type(s).__name__: s.samples_taken for s in self.samplers
            },
        }
        if network is not None:
            snapshot["traffic"] = {
                "total_bytes_sent": network.total_bytes_queued(),
                "per_node": network.traffic_by_node(),
            }
        if extra:
            snapshot.update(extra)
        if self.tracer is not None:
            snapshot["trace_records"] = self.tracer.records_written + 1
            if self.trace_path is not None:
                snapshot["trace_path"] = str(self.trace_path)
            self.tracer.emit(
                "trace_end", end_time, records=self.tracer.records_written + 1
            )
            self.tracer.close()
        if self.metrics_path is not None:
            self.metrics_path.parent.mkdir(parents=True, exist_ok=True)
            self.metrics_path.write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        return snapshot


class _NullObservability:
    """The disabled singleton: nothing recorded, nothing written."""

    enabled = False
    registry = NULL_REGISTRY
    tracer = None
    out_dir = None
    slug = ""
    samplers: list = []

    def tapped(self, tap) -> "_NullObservability":
        """A still-disabled facade whose sink-less tracer feeds ``tap``.

        Nodes guard on ``tracer is not None`` alone, so they emit into
        it; the network keys on ``enabled`` and stays on its bare path.
        """
        clone = _NullObservability()
        clone.tracer = Tracer(None, tap)
        return clone

    def install(self, sim, network, nodes, horizon, meta=None) -> None:
        pass

    def finalize(self, network=None, extra=None, end_time=0.0) -> None:
        return None


NULL_OBS = _NullObservability()
