"""Parameter sweeps: Figures 8a and 8b.

**Frequency sweep (Figure 8a)** — "For Bitcoin, we vary the frequency
of block generation ...  For Bitcoin-NG, keeping the key block
generation at one every 100 seconds, we vary the frequency of
microblock generation.  For each frequency, we choose the block size
... such that the payload throughput is identical to that of Bitcoin's
operational system, that is, one 1MB block every 10 minutes."

**Size sweep (Figure 8b)** — "We use high frequencies to observe the
systems' limits, setting Bitcoin's block frequency to 1/10sec and
Bitcoin-NG's microblock frequency to 1/10sec and key block frequency to
1/100sec", with block sizes 1280 B – 80 kB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import ExperimentConfig, Protocol, constant_throughput_block_size
from .parallel import run_many
from .runner import ExperimentResult

# The x-axis of Figure 8a: block / microblock frequencies in 1/sec.
FREQUENCY_POINTS = (0.01, 0.0316, 0.1, 0.316, 1.0)

# The x-axis of Figure 8b: block / microblock sizes in bytes.
SIZE_POINTS = (1280, 2500, 5000, 10_000, 20_000, 40_000, 80_000)


@dataclass(frozen=True)
class SweepPoint:
    """One (x, protocol) cell of a sweep, possibly averaged over seeds."""

    x: float
    protocol: Protocol
    results: tuple[ExperimentResult, ...]

    def mean(self, metric: str) -> float:
        values = [getattr(r, metric) for r in self.results]
        return sum(values) / len(values)


@dataclass
class SweepResult:
    """A full sweep: points per protocol per x value."""

    name: str
    x_label: str
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, protocol: Protocol) -> list[SweepPoint]:
        return [p for p in self.points if p.protocol is protocol]


def _run_grid(
    sweep: SweepResult,
    cells: list[tuple[float, Protocol, list[ExperimentConfig]]],
    jobs: int | None,
    progress=None,
) -> SweepResult:
    """Dispatch every cell's configs through the parallel executor.

    The flat config list preserves grid order, and ``run_many`` returns
    results in submission order, so regrouping by cell is a plain slice
    — identical output whatever the worker count.  ``progress`` (see
    :meth:`~repro.experiments.parallel.SweepExecutor.map`) fires once
    per finished cell, in completion order.
    """
    flat = [config for _, _, configs in cells for config in configs]
    results = run_many(flat, jobs=jobs, progress=progress)
    cursor = 0
    for x, protocol, configs in cells:
        chunk = tuple(results[cursor : cursor + len(configs)])
        cursor += len(configs)
        sweep.points.append(SweepPoint(x, protocol, chunk))
    return sweep


def _distinct(seeds: tuple[int, ...]) -> None:
    """Reject a repeated seed: its cell would run twice, count twice in
    the cell's mean, and overwrite its twin's trace files."""
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {list(seeds)}")


def frequency_sweep(
    base: ExperimentConfig | None = None,
    frequencies: tuple[float, ...] = FREQUENCY_POINTS,
    protocols: tuple[Protocol, ...] = (Protocol.BITCOIN, Protocol.BITCOIN_NG),
    seeds: tuple[int, ...] = (0,),
    jobs: int | None = None,
    progress=None,
) -> SweepResult:
    """Figure 8a: vary block (Bitcoin) / microblock (NG) frequency.

    Payload throughput is held at the operational 3.5 tx/s by sizing
    blocks inversely to frequency, exactly as in the paper.  Cells run
    across ``jobs`` worker processes (default: ``REPRO_JOBS`` or the
    CPU count); results are identical to a serial run.
    """
    _distinct(seeds)
    base = base or ExperimentConfig()
    sweep = SweepResult(name="figure-8a", x_label="block frequency [1/sec]")
    cells = []
    for frequency in frequencies:
        size = constant_throughput_block_size(frequency, tx_size=base.tx_size)
        for protocol in protocols:
            configs = [
                base.with_(
                    protocol=protocol,
                    block_rate=frequency,
                    block_size_bytes=size,
                    seed=seed,
                )
                for seed in seeds
            ]
            cells.append((frequency, protocol, configs))
    return _run_grid(sweep, cells, jobs, progress=progress)


def size_sweep(
    base: ExperimentConfig | None = None,
    sizes: tuple[int, ...] = SIZE_POINTS,
    protocols: tuple[Protocol, ...] = (Protocol.BITCOIN, Protocol.BITCOIN_NG),
    seeds: tuple[int, ...] = (0,),
    block_rate: float = 1.0 / 10.0,
    key_block_rate: float = 1.0 / 100.0,
    jobs: int | None = None,
    progress=None,
) -> SweepResult:
    """Figure 8b: vary block / microblock size at high, fixed frequency."""
    _distinct(seeds)
    base = base or ExperimentConfig()
    sweep = SweepResult(name="figure-8b", x_label="block size [byte]")
    cells = []
    for size in sizes:
        for protocol in protocols:
            configs = [
                base.with_(
                    protocol=protocol,
                    block_rate=block_rate,
                    key_block_rate=key_block_rate,
                    block_size_bytes=size,
                    seed=seed,
                )
                for seed in seeds
            ]
            cells.append((float(size), protocol, configs))
    return _run_grid(sweep, cells, jobs, progress=progress)

