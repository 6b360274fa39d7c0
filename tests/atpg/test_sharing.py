"""Cross-fault structural clause sharing: store semantics + soundness.

The load-bearing property (hypothesis-driven): injecting **any subset**
of the shared structural clauses applicable to a cone (origin fanin ⊆
target fanin) into that cone's solver never changes a fault's verdict —
shared clauses are entailed by the target's base, so they can prune
search but not flip SAT/UNSAT.  Donor clauses are harvested from a real
engine run, so the corpus is exactly what production sharing would
inject.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.engine import AtpgEngine, FaultStatus
from repro.atpg.options import AtpgOptions
from repro.atpg.sharing import StructuralClauseStore
from repro.sat.cnf import Literal
from tests.conftest import make_random_network


# ----------------------------------------------------------------------
# Store unit semantics
# ----------------------------------------------------------------------
def _clause(*names):
    return tuple(sorted(Literal(n, True) for n in names))


class TestStructuralClauseStore:
    def test_register_is_idempotent(self):
        store = StructuralClauseStore()
        store.register_cone(("o1",), frozenset({"a", "o1"}))
        store.register_cone(("o1",), frozenset({"a", "o1"}))
        assert store.stats.cones == 1

    def test_fresh_respects_fanin_subset_and_origin(self):
        store = StructuralClauseStore()
        store.register_cone(("o1",), frozenset({"a", "b", "o1"}))
        store.register_cone(("o2",), frozenset({"a", "o2"}))
        store.register_cone(("o3",), frozenset({"a", "b", "c", "o3"}))
        store.promote(("o2",), [_clause("a")])
        # o2's fanin {a, o2} is not a subset of o1's {a, b, o1} (o2 is
        # not in it) nor of o3's — nothing is applicable anywhere else.
        assert store.fresh_for(("o1",)) == []
        assert store.fresh_for(("o3",)) == []
        # The origin never receives its own promotions back.
        assert store.fresh_for(("o2",)) == []

    def test_cursor_delivers_each_clause_once(self):
        store = StructuralClauseStore()
        sub = frozenset({"a"})
        store.register_cone(("small",), sub)
        store.register_cone(("big",), frozenset({"a", "b"}))
        store.promote(("small",), [_clause("a")])
        assert store.fresh_for(("big",)) == [_clause("a")]
        assert store.fresh_for(("big",)) == []
        store.promote(("small",), [_clause("a", "b")])
        # Second batch: only the new clause arrives.
        assert store.fresh_for(("big",)) == [_clause("a", "b")]

    def test_duplicates_dropped_globally(self):
        store = StructuralClauseStore()
        store.register_cone(("x",), frozenset({"a"}))
        assert store.promote(("x",), [_clause("a"), _clause("a")]) == 1
        assert store.stats.duplicates == 1

    def test_per_cone_cap(self):
        store = StructuralClauseStore(per_cone_cap=2)
        store.register_cone(("x",), frozenset({"a", "b", "c"}))
        clauses = [_clause("a"), _clause("b"), _clause("c")]
        assert store.promote(("x",), clauses) == 2
        assert store.stats.promoted == 2


# ----------------------------------------------------------------------
# The soundness property
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _donor(seed=11):
    """A circuit, its per-fault baseline verdicts, and the shared-clause
    log a production sharing run actually produced on it."""
    network = make_random_network(
        seed, num_inputs=8, num_gates=40, allow_xor=True
    )
    donor_engine = AtpgEngine(
        network, AtpgOptions(share_learned="cone", fault_dropping=False)
    )
    donor_engine.run()
    log = list(donor_engine._structural_store._log)

    baseline_engine = AtpgEngine(network, AtpgOptions(share_learned="off"))
    faults = baseline_engine.ordered_faults()
    baseline = {
        fault: baseline_engine.generate_test(fault).status for fault in faults
    }
    solvable = [
        fault
        for fault, status in baseline.items()
        if status in (FaultStatus.TESTED, FaultStatus.UNTESTABLE)
    ]
    return network, log, baseline, solvable


def test_donor_actually_shares():
    """The harvest must be non-trivial or the property below is vacuous."""
    _network, log, _baseline, solvable = _donor()
    assert log, "donor run promoted no structural clauses"
    assert solvable


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_injecting_any_subset_never_changes_a_verdict(data):
    network, log, baseline, solvable = _donor()
    fault = data.draw(st.sampled_from(solvable))

    tfo = network.transitive_fanout([fault.net])
    observing = tuple(out for out in network.outputs if out in tfo)
    relevant = frozenset(network.transitive_fanin(observing))
    applicable = [
        clause
        for _origin, origin_fanin, clause in log
        if origin_fanin <= relevant
    ]
    subset = (
        data.draw(
            st.lists(
                st.sampled_from(applicable),
                max_size=len(applicable),
                unique=True,
            )
        )
        if applicable
        else []
    )

    engine = AtpgEngine(network, AtpgOptions(share_learned="off"))
    entry = engine._cone_solver(observing)
    if subset:
        entry.solver.push_shared(subset)
    record = engine.generate_test(fault)
    assert record.status is baseline[fault], (
        f"verdict flipped for {fault} after injecting {len(subset)} "
        f"shared clauses"
    )


@given(seed=st.integers(min_value=0, max_value=7))
@settings(max_examples=8, deadline=None)
def test_sharing_on_off_verdict_parity(seed):
    """Whole-run equivalence: sharing changes no status and no coverage."""
    network = make_random_network(
        seed, num_inputs=6, num_gates=24, allow_xor=True
    )
    on = AtpgEngine(
        network,
        AtpgOptions(share_learned="cone", fault_dropping=False),
    ).run()
    off = AtpgEngine(
        network,
        AtpgOptions(share_learned="off", fault_dropping=False),
    ).run()
    assert on.status_counts() == off.status_counts()
    assert on.fault_coverage == off.fault_coverage
    assert [r.status for r in on.records] == [r.status for r in off.records]
