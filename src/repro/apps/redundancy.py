"""ATPG-based redundancy removal (logic optimization).

The paper's introduction cites logic optimization [6, 9] as the third
big ATPG application: a stuck-at fault that is *untestable* is, by
definition, a wire whose value never matters — so the wire can be tied
to the stuck constant and the constant swept away, shrinking the
circuit without changing its function.  Iterating to a fixed point is
the classic redundancy-removal loop (Cheng & Entrena's removal phase).

Removals are applied **one at a time**: untestability proofs are valid
only for the circuit they were computed on, and two individually
redundant faults need not be jointly redundant (removing one can make
the other testable).  Every removal is justified by a fresh UNSAT proof
from the ATPG engine, and the whole transformation is re-validated by
simulation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.atpg.engine import AtpgEngine, FaultStatus
from repro.atpg.options import AtpgOptions
from repro.atpg.faults import Fault, collapse_faults
from repro.circuits.gates import GateType
from repro.circuits.network import Network
from repro.circuits.optimize import sweep


@dataclass
class RedundancyReport:
    """What the optimizer did."""

    removed: list[Fault] = field(default_factory=list)
    passes: int = 0
    gates_before: int = 0
    gates_after: int = 0

    @property
    def gate_reduction(self) -> int:
        return self.gates_before - self.gates_after


def _find_redundancy(
    network: Network, solver: str
) -> Optional[Fault]:
    """The first provably untestable non-PI fault, or None."""
    inputs = set(network.inputs)
    engine = AtpgEngine(
        network, AtpgOptions(solver=solver, validate=False)
    )
    constants = (GateType.CONST0, GateType.CONST1)
    for fault in collapse_faults(network):
        if fault.net in inputs:
            # An untestable PI fault means the outputs ignore that input,
            # but tying it would change the circuit interface.
            continue
        if network.gate(fault.net).gate_type in constants:
            # A fault on a constant net matching its value is trivially
            # untestable and re-tying it would loop forever.
            continue
        record = engine.generate_test(fault)
        if record.status is FaultStatus.UNTESTABLE:
            return fault
    return None


def remove_redundancies(
    network: Network,
    *,
    max_removals: Optional[int] = None,
    solver: str = "cdcl",
) -> tuple[Network, RedundancyReport]:
    """Iteratively remove provably redundant stuck-at faults.

    Each pass: find one untestable fault, tie its net to the stuck
    constant, constant-propagate and sweep, then *re-prove* on the new
    circuit.  Stops at a fixed point (no redundancy left) or after
    ``max_removals``.

    Args:
        network: circuit to optimize (unchanged; a copy is returned).
        max_removals: optional cap on removals (None = to fixed point).
        solver: ATPG SAT backend.

    Returns:
        (optimized network, report).  The result is functionally
        equivalent on the primary outputs.
    """
    report = RedundancyReport(gates_before=network.num_gates())
    current = network.copy()

    while max_removals is None or len(report.removed) < max_removals:
        report.passes += 1
        fault = _find_redundancy(current, solver)
        if fault is None:
            break
        constant = GateType.CONST1 if fault.value else GateType.CONST0
        mutated = current.copy()
        mutated.replace_gate(fault.net, constant, ())
        current = sweep(mutated)
        report.removed.append(fault)

    report.gates_after = current.num_gates()
    return current, report
