"""Tests for the width-vs-effort rank correlation."""

import math

import pytest

from repro.experiments.width_vs_effort import WidthEffortPoint, WidthEffortReport


def _report(pairs):
    return WidthEffortReport(
        "t",
        [
            WidthEffortPoint(f"f{i}", 1, width, nodes, 0, True)
            for i, (width, nodes) in enumerate(pairs)
        ],
    )


class TestSpearman:
    def test_ties_take_average_ranks(self):
        # Pinned from scipy.stats.spearmanr on the same sample.
        report = _report([(1, 3), (2, 3), (2, 40), (3, 40), (3, 7), (5, 200)])
        assert report.spearman() == pytest.approx(0.7727272727272726, abs=1e-12)

    def test_monotone_is_one(self):
        report = _report([(1, 0), (2, 5), (4, 90), (7, 1000)])
        assert report.spearman() == pytest.approx(1.0)

    def test_constant_column_is_nan(self):
        assert math.isnan(_report([(2, 1), (2, 5), (2, 9)]).spearman())
        assert math.isnan(_report([(1, 4), (5, 4), (9, 4)]).spearman())

    def test_too_few_points_is_nan(self):
        assert math.isnan(_report([(1, 1), (2, 2)]).spearman())
