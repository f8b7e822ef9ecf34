"""Periodic samplers: time series the end-of-run metrics cannot show.

End-of-run aggregates say *what* a run produced; the congested and
adversarial regimes the related work probes need *how* it unfolded —
link saturation climbing, mempools backing up, fork churn around leader
changes.  Each sampler schedules itself on the :class:`Simulator` at a
fixed period, reads state without mutating anything (and without
touching the simulation RNG, preserving bit-identical results) and
emits one trace record; the run's summary keeps the peaks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from ..bitcoin.node import ChainNode


class PeriodicSampler:
    """Base: fires :meth:`sample` every ``period`` virtual seconds.

    Sampling starts one period after :meth:`start` and stops after
    ``until`` (the simulator also naturally stops it when the run's
    horizon ends).  Subclasses must not mutate simulation state or draw
    from ``sim.rng``.
    """

    def __init__(self, period: float, until: float | None = None) -> None:
        if period <= 0:
            raise ValueError(f"sampler period must be positive, got {period}")
        self.period = period
        self.until = until
        self.samples_taken = 0
        self._sim = None

    def start(self, sim) -> None:
        self._sim = sim
        sim.schedule(self.period, self._fire)

    def _fire(self) -> None:
        sim = self._sim
        if self.until is not None and sim.now > self.until + 1e-12:
            return
        self.sample(sim.now)
        self.samples_taken += 1
        next_time = sim.now + self.period
        if self.until is None or next_time <= self.until + 1e-12:
            sim.schedule(self.period, self._fire)

    def sample(self, now: float) -> None:
        raise NotImplementedError


class LinkSampler(PeriodicSampler):
    """Busy fraction and queued bytes across every directed link.

    Reads :meth:`~repro.net.network.Network.link_utilization`, which
    walks the array core's flat edge-id arrays directly — a sampled
    1000-node run never materializes per-link ``LinkView`` objects on
    the sampling path.
    """

    def __init__(
        self, network, tracer, period: float = 1.0, until: float | None = None
    ) -> None:
        super().__init__(period, until)
        self.network = network
        self.tracer = tracer

    def sample(self, now: float) -> None:
        busy, total, queued = self.network.link_utilization(now)
        fraction = busy / total if total else 0.0
        self.tracer.emit(
            "sample_links",
            now,
            busy=busy,
            links=total,
            frac=round(fraction, 6),
            queued_bytes=round(queued, 1),
        )


class MempoolSampler(PeriodicSampler):
    """Per-node mempool depth, summarized as min/mean/max/total."""

    def __init__(
        self,
        nodes: Sequence[ChainNode],
        tracer,
        period: float = 1.0,
        until: float | None = None,
    ) -> None:
        super().__init__(period, until)
        # Each pool's entry map, read once: a node binds its mempool, and
        # a mempool its map, only at construction, so a sample takes
        # every depth in one C-level pass.
        self._entry_maps = [node.mempool._entries for node in nodes]
        self.tracer = tracer

    def sample(self, now: float) -> None:
        depths = list(map(len, self._entry_maps))
        total = sum(depths)
        self.tracer.emit(
            "sample_mempool",
            now,
            total=total,
            min=min(depths) if depths else 0,
            max=max(depths) if depths else 0,
            mean=round(total / len(depths), 3) if depths else 0.0,
        )


class ForkSampler(PeriodicSampler):
    """Fork churn: how many distinct tips the network holds right now.

    One tip means full agreement; more means in-flight forks — the
    paper's subjective-fork regime made visible over time.
    """

    def __init__(
        self,
        nodes: Sequence[ChainNode],
        tracer,
        period: float = 1.0,
        until: float | None = None,
    ) -> None:
        super().__init__(period, until)
        self.nodes = nodes
        self.tracer = tracer

    def sample(self, now: float) -> None:
        tips = len({node.tip for node in self.nodes})
        self.tracer.emit("sample_forks", now, tips=tips)
