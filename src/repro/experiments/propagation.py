"""Block propagation study: Figure 7.

"We perform experiments with different block sizes while changing the
block frequency so that the transaction-per-second load is constant.
Figure 7 shows a linear relation between the block size and the
propagation time, similar to the linear relation measured in the
Bitcoin operational network by Decker and Wattenhofer."

A block's propagation sample at a node is the delay between its
generation and that node's first sight of it; per size we report the
25/50/75th percentiles across all (block, node) samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import stats
from ..metrics.collector import ObservationLog
from .config import ExperimentConfig, Protocol
from .runner import run_experiment

# The x-axis of Figure 7.
PROPAGATION_SIZE_POINTS = (20_000, 40_000, 60_000, 80_000, 100_000)

# Constant transaction load maintained across sizes (tx/s).
CONSTANT_LOAD_TX_RATE = 3.5


@dataclass(frozen=True)
class PropagationPoint:
    """Latency percentiles for one block size."""

    block_size: int
    p25: float
    p50: float
    p75: float
    samples: int
    # Invariant violations the run at this size reported (0 unchecked).
    violations: int = 0


def propagation_samples(log: ObservationLog) -> list[float]:
    """Generation-to-arrival delays for every (block, node) pair."""
    samples = []
    for info in log.index.all_blocks():
        for node in range(log.n_nodes):
            if node == info.miner:
                continue
            arrival = log.arrival_time(node, info.hash)
            if arrival is not None:
                samples.append(arrival - info.gen_time)
    return samples


def propagation_study(
    base: ExperimentConfig | None = None,
    sizes: tuple[int, ...] = PROPAGATION_SIZE_POINTS,
) -> list[PropagationPoint]:
    """Run Figure 7: propagation percentiles per block size.

    The block rate is adjusted per size to hold the transaction load
    constant, exactly as the paper describes.
    """
    base = base or ExperimentConfig()
    points = []
    for size in sizes:
        txs_per_block = max(1, size // base.tx_size)
        rate = CONSTANT_LOAD_TX_RATE / txs_per_block
        config = base.with_(
            protocol=Protocol.BITCOIN,
            block_size_bytes=size,
            block_rate=rate,
        )
        result, log = run_experiment(config)
        samples = sorted(propagation_samples(log))
        points.append(
            PropagationPoint(
                block_size=size,
                p25=stats.percentile(samples, 0.25),
                p50=stats.percentile(samples, 0.50),
                p75=stats.percentile(samples, 0.75),
                samples=len(samples),
                violations=len(result.violations),
            )
        )
    return points


def linear_fit(points: list[PropagationPoint]) -> tuple[float, float, float]:
    """Least-squares fit of median latency vs size: (slope, intercept, R²).

    The paper's claim is qualitative linearity; the benchmark asserts a
    high coefficient of determination.
    """
    fit = stats.linear_fit(
        [float(p.block_size) for p in points], [p.p50 for p in points]
    )
    return fit.slope, fit.intercept, fit.r_squared
