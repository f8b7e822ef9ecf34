"""ASCII charts: render sweep series in the terminal.

No plotting dependencies are available offline, so the harness renders
its Figure 8 panels as text — one character column per x position
bucket, one symbol per series.  Crude, but enough to *see* the
crossovers the paper plots.
"""

from __future__ import annotations

import math

from .sweeps import SweepResult

# Symbols assigned to series in order.
SERIES_SYMBOLS = "oxs*+#"


def ascii_chart(
    series: dict[str, list[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    log_x: bool = False,
    title: str = "",
) -> str:
    """Plot labelled (x, y) series on a character grid.

    Series share axes; y is always linear, x optionally logarithmic
    (the figures' frequency/size axes are log-scaled).
    """
    if not series:
        raise ValueError("no series to plot")
    if width < 10 or height < 4:
        raise ValueError("chart too small")
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("series are empty")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if log_x and min(xs) <= 0:
        raise ValueError("log x-axis needs positive x values")
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    if y_high == y_low:
        y_high = y_low + 1.0
    if x_high == x_low:
        x_high = x_low + 1.0

    def x_column(x: float) -> int:
        if log_x:
            position = (math.log(x) - math.log(x_low)) / (
                math.log(x_high) - math.log(x_low)
            )
        else:
            position = (x - x_low) / (x_high - x_low)
        return min(int(position * (width - 1)), width - 1)

    def y_row(y: float) -> int:
        position = (y - y_low) / (y_high - y_low)
        return height - 1 - min(int(position * (height - 1)), height - 1)

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for index, (label, pts) in enumerate(series.items()):
        symbol = SERIES_SYMBOLS[index % len(SERIES_SYMBOLS)]
        legend.append(f"{symbol} = {label}")
        for x, y in pts:
            row, column = y_row(y), x_column(x)
            current = grid[row][column]
            # Overlapping series show as '@'.
            grid[row][column] = symbol if current == " " else "@"
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_high:>10.3g} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_low:>10.3g} ┤" + "".join(grid[-1]))
    lines.append(" " * 10 + " └" + "─" * width)
    axis_label = (
        f"{' ' * 12}{x_low:<.3g}{' ' * max(1, width - 16)}{x_high:>.3g}"
    )
    lines.append(axis_label)
    lines.append(" " * 12 + "   ".join(legend))
    return "\n".join(lines)


def sweep_chart(sweep: SweepResult, metric: str) -> str:
    """One Figure 8 panel: both protocols' series for one metric."""
    series: dict[str, list[tuple[float, float]]] = {}
    for point in sweep.points:
        label = point.protocol.value
        series.setdefault(label, []).append((point.x, point.mean(metric)))
    for pts in series.values():
        pts.sort()
    return ascii_chart(
        series,
        height=14,
        log_x=True,
        title=f"{metric} vs {sweep.x_label}",
    )
