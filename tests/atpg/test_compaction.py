"""Tests for test-set compaction."""

import pytest

from repro.atpg.compaction import (
    coverage_of,
    greedy_cover_compaction,
    reverse_order_compaction,
)
from repro.atpg.engine import AtpgEngine
from repro.atpg.faults import collapse_faults
from repro.atpg.options import AtpgOptions
from repro.circuits.decompose import tech_decompose
from repro.gen.benchmarks import c17
from tests.conftest import make_random_network


@pytest.fixture(scope="module")
def c17_setup():
    net = tech_decompose(c17())
    faults = collapse_faults(net)
    summary = AtpgEngine(net, AtpgOptions(fault_dropping=False)).run()
    patterns = summary.tests()
    return net, faults, patterns


class TestReverseOrder:
    def test_coverage_preserved(self, c17_setup):
        net, faults, patterns = c17_setup
        compacted = reverse_order_compaction(net, faults, patterns)
        assert coverage_of(net, faults, compacted) == coverage_of(
            net, faults, patterns
        )

    def test_no_growth(self, c17_setup):
        net, faults, patterns = c17_setup
        compacted = reverse_order_compaction(net, faults, patterns)
        assert len(compacted) <= len(patterns)

    def test_is_subsequence(self, c17_setup):
        net, faults, patterns = c17_setup
        compacted = reverse_order_compaction(net, faults, patterns)
        iterator = iter(patterns)
        for pattern in compacted:
            for candidate in iterator:
                if candidate == pattern:
                    break
            else:
                pytest.fail("compacted set is not a subsequence")

    def test_duplicates_removed(self, c17_setup):
        net, faults, patterns = c17_setup
        doubled = list(patterns) + list(patterns)
        compacted = reverse_order_compaction(net, faults, doubled)
        assert len(compacted) <= len(patterns)


class TestGreedyCover:
    def test_coverage_preserved(self, c17_setup):
        net, faults, patterns = c17_setup
        compacted = greedy_cover_compaction(net, faults, patterns)
        assert coverage_of(net, faults, compacted) == coverage_of(
            net, faults, patterns
        )

    def test_no_worse_than_reverse_order(self, c17_setup):
        net, faults, patterns = c17_setup
        greedy = greedy_cover_compaction(net, faults, patterns)
        reverse = reverse_order_compaction(net, faults, patterns)
        assert len(greedy) <= len(reverse) + 1  # heuristics; near-parity

    def test_empty_patterns(self, c17_setup):
        net, faults, _ = c17_setup
        assert greedy_cover_compaction(net, faults, []) == []


class TestOnRandomCircuits:
    @pytest.mark.parametrize("seed", [3, 8, 15])
    def test_compaction_roundtrip(self, seed):
        net = tech_decompose(make_random_network(seed, num_inputs=4, num_gates=8))
        faults = collapse_faults(net)
        summary = AtpgEngine(net, AtpgOptions(fault_dropping=False)).run()
        patterns = summary.tests()
        if not patterns:
            pytest.skip("no testable faults")
        base = coverage_of(net, faults, patterns)
        for method in (reverse_order_compaction, greedy_cover_compaction):
            compacted = method(net, faults, patterns)
            assert coverage_of(net, faults, compacted) == base
            assert len(compacted) <= len(patterns)
