"""The Observability facade: one object wiring tracer, summary, samplers.

An :class:`Observability` instance is threaded through an experiment:
the :class:`~repro.net.network.Network` reads its tracer, protocol
nodes pick the tracer up from the network, and the runner asks it to
install periodic samplers and to produce the final snapshot.  Every
number in that snapshot is folded from the record stream by the same
:class:`~repro.obs.analyze.TraceSummary` that ``repro trace summarize``
runs over the saved file; the summary object is the live tracer's tap.

The disabled state is the singleton :data:`NULL_OBS` — its tracer is
``None`` and ``install``/``finalize`` do nothing — so un-instrumented
behaviour (and performance) is the default.  Because every experiment
parameter lives in the picklable
:class:`~repro.experiments.config.ExperimentConfig`, observability
round-trips through process-pool sweep workers: each worker rebuilds
its own ``Observability`` from the config and writes to a per-cell file
named by the config's slug.
"""

from __future__ import annotations

import json
from pathlib import Path

from .analyze import TraceSummary
from .samplers import ForkSampler, LinkSampler, MempoolSampler
from .trace import JsonlSink, Tracer

SNAPSHOT_VERSION = 3

# Sampling points across a run: enough to see dynamics, cheap to store.
SAMPLE_POINTS = 100


def config_slug(config) -> str:
    """A filesystem-safe name unique per sweep cell.

    Protocol, block rate, block size, and seed are exactly the axes the
    Figure 8 grids vary, so every cell of a sweep lands in its own pair
    of files under a shared ``--obs`` directory.
    """
    return (
        f"{config.protocol.value}-f{config.block_rate:g}"
        f"-b{config.block_size_bytes}-seed{config.seed}"
    )


class Observability:
    """Wires a tracer, the summary folding its records, and samplers."""

    enabled = True

    def __init__(
        self,
        tracer: Tracer | None = None,
        out_dir: str | Path | None = None,
        slug: str = "run",
    ) -> None:
        # Enabled means a tracer exists: with no sink it writes nothing
        # and the summary is all a run leaves behind.
        self.tracer = tracer if tracer is not None else Tracer()
        self.summary = TraceSummary()
        self.tracer.tap = self.summary
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.slug = slug
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
        return cls(tracer=Tracer(sink), out_dir=out_dir, slug=slug)

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

    def install(self, sim, network, nodes, horizon: float, meta: dict | None = None) -> None:
        """Start samplers on ``sim`` and open the trace.

        ``horizon`` is the full virtual duration (run + cooldown);
        samplers stop there.  Sampling reads state without mutating it
        or drawing randomness, so an instrumented run stays
        bit-identical to a bare one.
        """
        tracer = self.tracer
        tracer.emit("trace_start", sim.now, **(meta or {}))
        period = max(horizon / SAMPLE_POINTS, 1e-3)
        self.samplers = [
            LinkSampler(network, tracer, period=period, until=horizon),
            MempoolSampler(nodes, tracer, period=period, until=horizon),
            ForkSampler(nodes, tracer, period=period, until=horizon),
        ]
        for sampler in self.samplers:
            sampler.start(sim)

    def finalize(self, end_time: float = 0.0) -> dict:
        """Close the trace and return (and maybe write) the snapshot.

        ``trace_end`` is emitted first, so the snapshot's ``metrics`` —
        the summary in JSON form — is what ``summarize`` makes of the
        finished file; with an output directory configured the snapshot
        is also written as ``<slug>.metrics.json``.
        """
        summary = self.summary
        self.tracer.flush()  # the summary counts every record before this one
        self.tracer.emit("trace_end", end_time, records=summary.records + 1)
        self.tracer.close()
        snapshot: dict = {
            "snapshot_version": SNAPSHOT_VERSION,
            "slug": self.slug,
            "metrics": summary.to_dict(),
            "traffic": {
                "total_bytes_sent": summary.total_bytes,
                "per_node": summary.per_node,
            },
            "samples_taken": {
                type(s).__name__: s.samples_taken for s in self.samplers
            },
        }
        if self.tracer.sink is not None:
            snapshot["trace_records"] = summary.records
            if self.trace_path is not None:
                snapshot["trace_path"] = str(self.trace_path)
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
    tracer = None
    out_dir = None
    slug = ""
    samplers: list = []

    def install(self, sim, network, nodes, horizon, meta=None) -> None:
        pass

    def finalize(self, end_time=0.0) -> None:
        return None


NULL_OBS = _NullObservability()
