"""Parity between the incremental and fresh solver modes (ISSUE 2).

The incremental engine keeps one persistent CDCL core per output cone
and pushes each fault's miter delta as an activation-guarded clause
group.  ATPG-SAT *verdicts* (SAT / UNSAT) depend only on the formula,
never on retained learned clauses or phases, so with an ample conflict
budget both modes must agree fault-by-fault.  Test *vectors* are
allowed to differ — the incremental solver's search order depends on
batch history — but every emitted test must detect its fault.

Under a tight conflict budget the two modes abort *different* faults
(retained clauses change where the budget runs out), so the aborted
case asserts the guaranteed invariants instead of bit parity: decided
verdicts never contradict across modes, aborted records carry no test,
and raising the budget restores exact verdict parity.
"""

import pytest

from repro.atpg.engine import AtpgEngine, FaultStatus
from repro.atpg.fault_sim import fault_simulate
from repro.atpg.options import AtpgOptions
from repro.circuits.decompose import tech_decompose
from repro.gen.benchmarks import c17
from tests.conftest import make_random_network


def _circuits():
    return [
        tech_decompose(c17()),
        make_random_network(3, num_inputs=5, num_gates=16),
        make_random_network(11, num_inputs=4, num_gates=18),
        make_random_network(19, num_inputs=5, num_gates=20),
    ]


def _verdicts(summary):
    """Per-fault (fault, status) pairs in canonical order."""
    return [(r.fault, r.status) for r in summary.records]


class TestVerdictParity:
    def test_identical_verdicts_without_dropping(self):
        for net in _circuits():
            inc = AtpgEngine(net, AtpgOptions(fault_dropping=False)).run()
            fresh = AtpgEngine(
                net,
                AtpgOptions(solver_mode="fresh", fault_dropping=False),
            ).run()
            assert _verdicts(inc) == _verdicts(fresh), net.name
            assert inc.fault_coverage == fresh.fault_coverage

    def test_identical_coverage_with_dropping(self):
        """With dropping, vectors differ but coverage semantics match."""
        for net in _circuits():
            inc = AtpgEngine(net).run()
            fresh = AtpgEngine(net, AtpgOptions(solver_mode="fresh")).run()
            assert inc.fault_coverage == fresh.fault_coverage, net.name
            untestable = lambda s: {
                r.fault for r in s.by_status(FaultStatus.UNTESTABLE)
            }
            covered = lambda s: {
                r.fault
                for r in s.records
                if r.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
            }
            assert untestable(inc) == untestable(fresh), net.name
            assert covered(inc) == covered(fresh), net.name

    def test_incremental_tests_are_valid(self):
        for net in _circuits():
            summary = AtpgEngine(net, AtpgOptions(fault_dropping=False)).run()
            for record in summary.records:
                if record.test is not None:
                    outcome = fault_simulate(
                        net, [record.fault], [record.test]
                    )
                    assert record.fault in outcome.detected, net.name


class TestAbortedFaults:
    """Conflict-budget behaviour in both modes (ISSUE 2 satellite)."""

    BUDGET = 1  # tight enough to abort many faults on this circuit

    def _net(self):
        return tech_decompose(
            make_random_network(13, num_inputs=5, num_gates=16)
        )

    def test_both_modes_abort_under_tight_budget(self):
        net = self._net()
        inc = AtpgEngine(
            net,
            AtpgOptions(max_conflicts=self.BUDGET, fault_dropping=False),
        ).run()
        fresh = AtpgEngine(
            net,
            AtpgOptions(
                solver_mode="fresh",
                max_conflicts=self.BUDGET,
                fault_dropping=False,
            ),
        ).run()
        assert inc.by_status(FaultStatus.ABORTED)
        assert fresh.by_status(FaultStatus.ABORTED)
        for summary in (inc, fresh):
            for record in summary.by_status(FaultStatus.ABORTED):
                assert record.test is None

    def test_decided_verdicts_never_contradict(self):
        """A fault decided by both modes gets the same verdict.

        Which faults *abort* depends on retained solver state, but
        SAT/UNSAT is a property of the formula: whenever both modes
        decide a fault, they must agree.
        """
        net = self._net()
        inc = AtpgEngine(
            net,
            AtpgOptions(max_conflicts=self.BUDGET, fault_dropping=False),
        ).run()
        fresh = AtpgEngine(
            net,
            AtpgOptions(
                solver_mode="fresh",
                max_conflicts=self.BUDGET,
                fault_dropping=False,
            ),
        ).run()
        fresh_status = {r.fault: r.status for r in fresh.records}
        decided = (FaultStatus.TESTED, FaultStatus.UNTESTABLE)
        for record in inc.records:
            other = fresh_status[record.fault]
            if record.status in decided and other in decided:
                assert record.status == other, record.fault

    def test_ample_budget_restores_exact_parity(self):
        net = self._net()
        inc = AtpgEngine(net, AtpgOptions(fault_dropping=False)).run()
        fresh = AtpgEngine(
            net,
            AtpgOptions(solver_mode="fresh", fault_dropping=False),
        ).run()
        assert not inc.by_status(FaultStatus.ABORTED)
        assert not fresh.by_status(FaultStatus.ABORTED)
        assert _verdicts(inc) == _verdicts(fresh)


class TestModeSelection:
    def test_invalid_mode_rejected(self):
        net = tech_decompose(c17())
        with pytest.raises(ValueError):
            AtpgEngine(net, AtpgOptions(solver_mode="warm"))

    def test_incremental_is_the_default(self):
        net = tech_decompose(c17())
        assert AtpgEngine(net).incremental is True
        fresh = AtpgEngine(net, AtpgOptions(solver_mode="fresh"))
        assert fresh.incremental is False

    def test_non_cdcl_backends_use_fresh_path(self):
        """Only the CDCL backend has a persistent incremental core."""
        net = tech_decompose(c17())
        engine = AtpgEngine(
            net, AtpgOptions(solver="dpll", fault_dropping=False)
        )
        assert engine.incremental is False
        summary = engine.run()
        baseline = AtpgEngine(
            net,
            AtpgOptions(solver_mode="fresh", fault_dropping=False),
        ).run()
        assert _verdicts(summary) == _verdicts(baseline)
