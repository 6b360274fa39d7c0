"""Least-squares curve fitting (paper Section 5.2.2).

The paper fits linear (y = ax + b), logarithmic (y = a·log x + b) and
power (y = a·x^b) curves to the (circuit size, cut-width) scatter and
reports that the log curve gives the best least-squares fit.  We
reproduce exactly that model-selection step.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass
class FitResult:
    """A fitted model with its residual quality."""

    model: str  # "linear" | "log" | "power"
    a: float
    b: float
    sse: float  # sum of squared errors in y-space
    r_squared: float

    def predict(self, x: float) -> float:
        """Model prediction at ``x``."""
        if self.model == "linear":
            return self.a * x + self.b
        if self.model == "log":
            return self.a * math.log(max(x, 1e-12)) + self.b
        if self.model == "power":
            return self.a * (max(x, 1e-12) ** self.b)
        raise ValueError(f"unknown model {self.model!r}")


def _sse_and_r2(
    y: Sequence[float], predictions: Sequence[float]
) -> tuple[float, float]:
    sse = math.fsum((v - p) ** 2 for v, p in zip(y, predictions))
    mean = statistics.fmean(y)
    total = math.fsum((v - mean) ** 2 for v in y)
    r_squared = 1.0 - sse / total if total > 0 else 1.0
    return sse, r_squared


def fit_linear(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Least-squares fit of y = a·x + b."""
    a, b = statistics.linear_regression(x, y)
    sse, r2 = _sse_and_r2(y, [a * v + b for v in x])
    return FitResult("linear", a, b, sse, r2)


def fit_log(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Least-squares fit of y = a·log(x) + b (natural log)."""
    if any(v <= 0 for v in x):
        raise ValueError("log fit requires positive x values")
    lx = [math.log(v) for v in x]
    a, b = statistics.linear_regression(lx, y)
    sse, r2 = _sse_and_r2(y, [a * v + b for v in lx])
    return FitResult("log", a, b, sse, r2)


def fit_power(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """Fit of y = a·x^b via log-log linear regression.

    Data points with non-positive y are dropped for the regression (they
    carry no information in log space) but still count towards the SSE,
    which is evaluated in the original y-space as the paper's
    least-squares comparison requires.
    """
    if any(v <= 0 for v in x):
        raise ValueError("power fit requires positive x values")
    kept = [(u, v) for u, v in zip(x, y) if v > 0]
    if len(kept) < 2:
        raise ValueError("power fit needs at least two positive y values")
    coeff_b, log_a = statistics.linear_regression(
        [math.log(u) for u, _ in kept], [math.log(v) for _, v in kept]
    )
    a = math.exp(log_a)
    sse, r2 = _sse_and_r2(y, [a * u**coeff_b for u in x])
    return FitResult("power", a, coeff_b, sse, r2)


def best_fit(x: Sequence[float], y: Sequence[float]) -> FitResult:
    """The paper's model selection: lowest SSE among linear/log/power."""
    candidates = []
    for fitter in (fit_linear, fit_log, fit_power):
        try:
            candidates.append(fitter(x, y))
        except ValueError:
            continue
    if not candidates:
        raise ValueError("no model could be fitted")
    return min(candidates, key=lambda fit: fit.sse)


def all_fits(x: Sequence[float], y: Sequence[float]) -> dict[str, FitResult]:
    """All three fits keyed by model name (missing ones omitted)."""
    results: dict[str, FitResult] = {}
    for fitter in (fit_linear, fit_log, fit_power):
        try:
            fit = fitter(x, y)
        except ValueError:
            continue
        results[fit.model] = fit
    return results
