#!/usr/bin/env python3
"""A production-style ATPG flow on an ISCAS85-class circuit.

Mirrors what a test engineer does with a tool like TEGUS:

1. load a netlist (here: the embedded c17 plus a generated ALU),
2. map it to simple gates (SIS tech_decomp equivalent),
3. collapse the fault list by structural equivalence,
4. run random-pattern "easy fault" screening with the fault simulator,
5. target the survivors with SAT-based deterministic ATPG
   (with fault dropping), classifying redundancies,
6. cross-check the deterministic verdicts with PODEM,
7. report the final pattern set and coverage.

Run:  python examples/atpg_flow.py
"""

from repro.atpg import AtpgEngine, FaultStatus, collapse_faults, fault_simulate
from repro.atpg.fault_sim import random_pattern_coverage
from repro.atpg.podem import PodemEngine, PodemStatus
from repro.circuits import tech_decompose
from repro.gen import alu_slice, c17


def run_flow(circuit, n_random: int = 8) -> None:
    print(f"\n=== {circuit.name} ===")
    circuit = tech_decompose(circuit)
    print(f"mapped: {circuit.num_gates()} gates "
          f"(k_fi={circuit.max_fanin()}, k_fo={circuit.max_fanout()})")

    faults = collapse_faults(circuit)
    print(f"fault list: {len(faults)} collapsed faults")

    # Phase 1: random-pattern screening.
    screened = random_pattern_coverage(circuit, faults, n_random, seed=7)
    print(f"random patterns ({n_random}): "
          f"{len(screened.detected)}/{len(faults)} detected "
          f"({screened.coverage:.1%})")

    # Phase 2: deterministic SAT-based ATPG on the survivors.
    engine = AtpgEngine(circuit)
    summary = engine.run(faults=screened.undetected)
    tested = summary.by_status(FaultStatus.TESTED)
    dropped = summary.by_status(FaultStatus.DROPPED)
    redundant = summary.by_status(FaultStatus.UNTESTABLE)
    print(f"deterministic ATPG: {len(tested)} tests generated, "
          f"{len(dropped)} faults dropped, {len(redundant)} proven redundant")

    # Phase 3: PODEM cross-check on the redundancies (belt and braces —
    # a redundancy claim removes a fault from the product's test plan).
    podem = PodemEngine(circuit, max_backtracks=50_000)
    confirmed = sum(
        1
        for record in redundant
        if podem.generate_test(record.fault).status is PodemStatus.UNTESTABLE
    )
    if redundant:
        print(f"PODEM confirms {confirmed}/{len(redundant)} redundancies")

    # Final pattern set and overall coverage.
    patterns = summary.tests()
    final = fault_simulate(circuit, faults, patterns)
    total_detected = len(final.detected) + 0
    testable = len(faults) - len(redundant)
    print(f"deterministic pattern set: {len(patterns)} vectors")
    print(f"coverage of testable faults after both phases: "
          f"{(len(screened.detected) + len(tested) + len(dropped)) / max(1, testable):.1%}")


def redundant_adder():
    """A carry-lookahead adder with a deliberately redundant consensus
    term OR-ed into the carry-out (classic redundancy-addition)."""
    from repro.circuits import NetworkBuilder

    builder = NetworkBuilder("redundant_adder")
    a = builder.input("a")
    b = builder.input("b")
    c = builder.input("c")
    nb = builder.not_(b, name="nb")
    ab = builder.and_(a, b, name="ab")
    nbc = builder.and_(nb, c, name="nbc")
    ac = builder.and_(a, c, name="ac")  # consensus of ab, n̄bc on b
    # Consensus theorem: ab + b̄c + ac == ab + b̄c, so ac/sa0 is redundant.
    carry = builder.or_(ab, nbc, ac, name="carry")
    builder.outputs(carry)
    return builder.build()


def main() -> None:
    run_flow(c17())
    run_flow(alu_slice(4))
    run_flow(redundant_adder(), n_random=2)


if __name__ == "__main__":
    main()
