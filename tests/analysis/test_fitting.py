"""Tests for the Section 5.2.2 curve fitting and model selection."""

import math
import random

import pytest

from repro.analysis.fitting import (
    all_fits,
    best_fit,
    fit_linear,
    fit_log,
    fit_power,
)


def noisy(values, sigma, seed=0):
    rng = random.Random(seed)
    return [v + rng.gauss(0, sigma) for v in values]


class TestIndividualFits:
    def test_linear_exact(self):
        x = list(range(1, 20))
        y = [3 * v + 2 for v in x]
        fit = fit_linear(x, y)
        assert fit.a == pytest.approx(3.0)
        assert fit.b == pytest.approx(2.0)
        assert fit.sse == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_log_exact(self):
        x = [2**k for k in range(1, 10)]
        y = [5 * math.log(v) - 1 for v in x]
        fit = fit_log(x, y)
        assert fit.a == pytest.approx(5.0)
        assert fit.b == pytest.approx(-1.0)

    def test_power_exact(self):
        x = list(range(1, 30))
        y = [2.5 * v**1.7 for v in x]
        fit = fit_power(x, y)
        assert fit.a == pytest.approx(2.5, rel=1e-6)
        assert fit.b == pytest.approx(1.7, rel=1e-6)

    def test_predict(self):
        fit = fit_linear([1, 2, 3], [2, 4, 6])
        assert fit.predict(10) == pytest.approx(20.0)
        logfit = fit_log([1, 2, 4, 8], [0, 1, 2, 3])
        assert logfit.predict(16) == pytest.approx(4.0, abs=1e-6)

    def test_log_requires_positive_x(self):
        with pytest.raises(ValueError):
            fit_log([0, 1, 2], [1, 2, 3])

    def test_power_requires_positive(self):
        with pytest.raises(ValueError):
            fit_power([-1, 1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            fit_power([1, 2, 3], [0, 0, 0])


class TestModelSelection:
    def test_log_data_selects_log(self):
        x = [2**k for k in range(2, 12)]
        y = noisy([4 * math.log(v) + 3 for v in x], 0.3)
        assert best_fit(x, y).model == "log"

    def test_linear_data_selects_linear(self):
        x = list(range(1, 60, 3))
        y = noisy([0.8 * v + 5 for v in x], 0.4)
        assert best_fit(x, y).model == "linear"

    def test_power_data_selects_power(self):
        x = list(range(2, 60, 3))
        y = noisy([0.3 * v**1.5 for v in x], 0.5, seed=3)
        assert best_fit(x, y).model == "power"

    def test_all_fits_keys(self):
        x = list(range(1, 20))
        y = [float(v) for v in x]
        fits = all_fits(x, y)
        assert set(fits) == {"linear", "log", "power"}

    def test_best_fit_minimises_sse(self):
        x = [2**k for k in range(2, 12)]
        y = noisy([4 * math.log(v) + 3 for v in x], 0.3)
        fits = all_fits(x, y)
        chosen = best_fit(x, y)
        assert chosen.sse == min(fit.sse for fit in fits.values())

    def test_constant_x_is_not_fitted(self):
        # A vertical scatter has no least-squares line; the model is
        # skipped rather than returning a degenerate fit.
        with pytest.raises(ValueError):
            fit_linear([3, 3, 3], [1, 2, 3])
        assert all_fits([3, 3, 3], [1, 2, 3]) == {}
