"""Tests for the Section 3.1 easy-class recognisers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.build import NetworkBuilder
from repro.sat.cnf import CnfFormula, clause, formula_from_ints, neg, pos
from repro.sat.horn import (
    classify,
    is_2sat,
    is_hidden_horn,
    is_horn,
    is_q_horn,
)
from repro.sat.tseitin import circuit_sat_formula


class TestHorn:
    def test_horn_formula(self):
        # (~a + ~b + c)(~c + d)(a)
        formula = formula_from_ints([[-1, -2, 3], [-3, 4], [1]])
        assert is_horn(formula)

    def test_non_horn(self):
        formula = formula_from_ints([[1, 2]])
        assert not is_horn(formula)

    def test_empty_is_horn(self):
        assert is_horn(CnfFormula([]))


class Test2Sat:
    def test_two_literal_clauses(self):
        assert is_2sat(formula_from_ints([[1, -2], [2, 3]]))

    def test_three_literal_clause(self):
        assert not is_2sat(formula_from_ints([[1, 2, 3]]))


class TestHiddenHorn:
    def test_all_positive_is_hidden_horn(self):
        # Flip every variable → all-negative = Horn.
        formula = formula_from_ints([[1, 2, 3], [1, 2]])
        assert is_hidden_horn(formula)

    def test_horn_is_hidden_horn(self):
        formula = formula_from_ints([[-1, -2, 3], [-3, 4]])
        assert is_hidden_horn(formula)

    def test_known_non_renamable(self):
        # (a+b)(~a+~b)(a+~b)(~a+b) — every renaming leaves a clause with
        # two positive literals.
        formula = formula_from_ints([[1, 2], [-1, -2], [1, -2], [-1, 2]])
        assert not is_hidden_horn(formula)


class TestQHorn:
    def test_horn_is_q_horn(self):
        formula = formula_from_ints([[-1, -2, 3], [-3, 4], [1]])
        assert is_q_horn(formula)

    def test_2sat_is_q_horn(self):
        formula = formula_from_ints([[1, -2], [2, 3], [-1, -3]])
        assert is_q_horn(formula)

    def test_hidden_horn_is_q_horn(self):
        formula = formula_from_ints([[1, 2, 3]])
        assert is_q_horn(formula)

    def test_non_q_horn(self):
        # (a+b+c) forces α_a+α_b+α_c ≤ 1, while (~a+~b), (~b+~c), (~a+~c)
        # force every pairwise sum ≥ 1, so α_a+α_b+α_c ≥ 1.5 — infeasible.
        formula = formula_from_ints(
            [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3]]
        )
        assert not is_q_horn(formula)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_class_hierarchy(self, seed):
        """Horn, hidden-Horn and 2-SAT are all subclasses of q-Horn."""
        import random

        rng = random.Random(seed)
        clauses = []
        for _ in range(8):
            width = rng.choice((1, 2, 3))
            chosen = rng.sample(range(1, 6), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        formula = formula_from_ints(clauses)
        labels = classify(formula)
        if labels["horn"] or labels["2sat"] or labels["hidden_horn"]:
            assert labels["q_horn"]


class TestAtpgSatNotEasy:
    def test_or_gate_circuit_sat_not_horn(self):
        """Section 3.1's claim: circuit formulas with OR gates are not
        Horn (the OR gate's last clause has two positive literals)."""
        builder = NetworkBuilder()
        a, b = builder.inputs(2)
        builder.outputs(builder.or_(a, b, name="z"))
        formula = circuit_sat_formula(builder.build())
        assert not is_horn(formula)

    def test_example_circuit_formula_not_q_horn(self):
        """A small reconvergent AND/OR circuit's CIRCUIT-SAT formula
        falls outside q-Horn — the paper's argument that easy SAT
        classes cannot explain ATPG's easiness."""
        builder = NetworkBuilder()
        a, b, c = builder.inputs(3)
        x = builder.or_(a, b, name="x")
        y = builder.or_(b, c, name="y")
        z = builder.and_(x, y, name="z")
        w = builder.or_(x, z, name="w")
        builder.outputs(w)
        formula = circuit_sat_formula(builder.build())
        labels = classify(formula)
        assert not labels["horn"]
        assert not labels["2sat"]
        # The decisive claim:
        assert not labels["q_horn"]


def _random_cnf(rng):
    num_vars = rng.randint(2, 9)
    clauses = []
    for _ in range(rng.randint(1, 10)):
        width = rng.randint(1, min(5, num_vars))
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    return formula_from_ints(clauses)


def _oracle_formulas():
    """Circuit and miter formulas of a few suite circuits, plus a
    one-gate circuit whose (Horn) formula is q-Horn."""
    from repro.atpg.faults import collapse_faults
    from repro.atpg.miter import build_atpg_circuit
    from repro.gen.benchmarks import load_circuit

    builder = NetworkBuilder()
    a, b = builder.inputs(2)
    builder.outputs(builder.and_(a, b, name="z"))
    yield "and2.circuit", circuit_sat_formula(builder.build())
    for suite, name in (("iscas", "c17"), ("mcnc", "dec4"), ("mcnc", "mux4")):
        network = load_circuit(suite, name)
        yield f"{name}.circuit", circuit_sat_formula(network)
        for fault in collapse_faults(network)[:3]:
            yield f"{name}.{fault}", build_atpg_circuit(network, fault).formula()


class TestQHornAgainstLp:
    """The half-integral SAT check agrees with the Boros–Crama–Hammer LP."""

    def test_random_cnfs(self):
        pytest.importorskip("scipy")
        from tests.sat.qhorn_lp_ref import is_q_horn_lp

        rng = random.Random(20240615)
        verdicts = []
        disagreements = []
        for trial in range(500):
            formula = _random_cnf(rng)
            expected = is_q_horn_lp(formula)
            verdicts.append(expected)
            if is_q_horn(formula) != expected:
                disagreements.append((trial, sorted(map(sorted, formula.clauses))))
        assert disagreements == []
        assert any(verdicts) and not all(verdicts)

    def test_circuit_and_miter_formulas(self):
        pytest.importorskip("scipy")
        from tests.sat.qhorn_lp_ref import is_q_horn_lp

        verdicts = {}
        disagreements = []
        for label, formula in _oracle_formulas():
            verdicts[label] = is_q_horn_lp(formula)
            if is_q_horn(formula) != verdicts[label]:
                disagreements.append(label)
        assert disagreements == []
        assert verdicts["and2.circuit"] and not verdicts["c17.circuit"]
