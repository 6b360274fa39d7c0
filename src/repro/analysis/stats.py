"""Small statistics helpers for experiment reports."""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    median: float
    p90: float
    p99: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of ``values`` (empty input yields zeros)."""
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    data = [float(v) for v in values]
    # "inclusive" is linear interpolation between order statistics (the
    # numpy percentile default); quantiles() needs two points before 3.13.
    cuts = (
        statistics.quantiles(data, n=100, method="inclusive")
        if len(data) > 1
        else data * 99
    )
    return Summary(
        count=len(data),
        mean=statistics.fmean(data),
        median=statistics.median(data),
        p90=cuts[89],
        p99=cuts[98],
        minimum=min(data),
        maximum=max(data),
    )


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of samples strictly below ``threshold``."""
    if not values:
        return 0.0
    return sum(v < threshold for v in values) / len(values)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain-text aligned table for experiment reports."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
