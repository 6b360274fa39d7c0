"""Tests for summary statistics helpers."""

import pytest

from repro.analysis.stats import format_table, fraction_below, summarize


class TestSummarize:
    def test_empty(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_basic(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_single_point(self):
        # statistics.quantiles rejects one point before Python 3.13.
        summary = summarize([3.5])
        assert summary.count == 1
        assert summary.mean == summary.median == 3.5
        assert summary.p90 == summary.p99 == 3.5
        assert summary.minimum == summary.maximum == 3.5

    def test_linear_percentiles(self):
        # Linear interpolation between order statistics (numpy's default).
        summary = summarize([10.0, 0.0, 20.0, 30.0])
        assert summary.p90 == pytest.approx(27.0)
        assert summary.p99 == pytest.approx(29.7)

    def test_percentiles_ordered(self):
        summary = summarize(list(range(100)))
        assert summary.median <= summary.p90 <= summary.p99 <= summary.maximum


class TestFractionBelow:
    def test_empty(self):
        assert fraction_below([], 1.0) == 0.0

    def test_half(self):
        assert fraction_below([1, 2, 3, 4], 3) == 0.5

    def test_strictness(self):
        assert fraction_below([1.0], 1.0) == 0.0


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "w"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "longer" in lines[3]
