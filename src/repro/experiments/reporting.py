"""Plain-text reporting of sweep and study results.

The benchmarks print the same rows/series the paper's figures plot, so
`pytest benchmarks/ --benchmark-only` output can be compared against
the paper shape by shape.
"""

from __future__ import annotations

from .propagation import PropagationPoint
from .sweeps import SweepResult

# Figure 8's six panels, as (attribute, printable header) pairs.
METRIC_COLUMNS = (
    ("time_to_prune", "TTPrune[s]"),
    ("time_to_win", "TTWin[s]"),
    ("mining_power_utilization", "PowerUtil"),
    ("fairness", "Fairness"),
    ("consensus_delay", "ConsDelay[s]"),
    ("transaction_frequency", "TxFreq[1/s]"),
)


def format_sweep_table(sweep: SweepResult) -> str:
    """One row per (x, protocol) with all six metrics."""
    header = [f"{sweep.x_label:>24}", f"{'protocol':>12}"]
    header.extend(f"{label:>13}" for _, label in METRIC_COLUMNS)
    lines = ["".join(header)]
    for point in sweep.points:
        row = [f"{point.x:>24.4g}", f"{point.protocol.value:>12}"]
        for attribute, _ in METRIC_COLUMNS:
            row.append(f"{point.mean(attribute):>13.4g}")
        lines.append("".join(row))
    return "\n".join(lines)


def format_series(sweep: SweepResult, metric: str) -> str:
    """One metric's two series side by side, like one Figure 8 panel."""
    protocols = sorted({p.protocol for p in sweep.points}, key=lambda p: p.value)
    lines = [
        f"{sweep.x_label:>24}"
        + "".join(f"{protocol.value:>14}" for protocol in protocols)
    ]
    xs = sorted({p.x for p in sweep.points})
    by_key = {(p.x, p.protocol): p for p in sweep.points}
    for x in xs:
        row = [f"{x:>24.4g}"]
        for protocol in protocols:
            point = by_key.get((x, protocol))
            row.append(
                f"{point.mean(metric):>14.4g}" if point else f"{'-':>14}"
            )
        lines.append("".join(row))
    return "\n".join(lines)


def format_propagation_table(points: list[PropagationPoint]) -> str:
    """Figure 7 as rows of size → latency percentiles."""
    lines = [
        f"{'size[B]':>10}{'p25[s]':>10}{'p50[s]':>10}{'p75[s]':>10}{'samples':>10}"
    ]
    for point in points:
        lines.append(
            f"{point.block_size:>10}{point.p25:>10.3f}{point.p50:>10.3f}"
            f"{point.p75:>10.3f}{point.samples:>10}"
        )
    return "\n".join(lines)

