"""Extension: does cut-width predict per-instance SAT effort?

The paper establishes the implication in one direction — small cut-width
⇒ provably small search tree (Theorem 4.1) — and shows separately that
practical instances are easy (Figure 1) and practical widths are small
(Figure 8).  This experiment closes the loop it leaves implicit: on the
same faults, measure both the cut-width of C_ψ^sub *and* the actual
search effort of the caching solver on the ATPG-SAT instance, and test
whether the theoretical predictor orders real difficulty.

Two statistics are reported:

* the rank correlation (Spearman) between W(C_ψ^sub) and log(nodes);
* a bound check: every instance's node count against its own
  Theorem 4.1 RHS under the Lemma 4.2 ordering.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.atpg.faults import collapse_faults
from repro.atpg.miter import UnobservableFault, build_atpg_circuit
from repro.circuits.network import Network
from repro.core.bounds import subsample_faults, theorem_4_1_bound
from repro.core.hypergraph import circuit_hypergraph, cut_width_under_order
from repro.core.mla import min_cut_linear_arrangement
from repro.core.ordering import dfs_cone_ordering, fault_ordering
from repro.sat.caching import CachingBacktrackingSolver
from repro.sat.tseitin import circuit_sat_formula


@dataclass
class WidthEffortPoint:
    """One fault's predicted and actual difficulty."""

    fault: str
    cone_size: int
    cutwidth: int
    nodes: int
    bound: int
    bound_holds: bool


def _average_ranks(values: list[float]) -> list[float]:
    """1-based ranks of ``values``, ties sharing their average rank."""
    ordered = sorted(values)
    return [
        (bisect_left(ordered, v) + bisect_right(ordered, v) + 1) / 2
        for v in values
    ]


@dataclass
class WidthEffortReport:
    """The correlation study."""

    circuit: str
    points: list[WidthEffortPoint] = field(default_factory=list)

    def spearman(self) -> float:
        """Rank correlation between cut-width and log node count."""
        if len(self.points) < 3:
            return float("nan")
        widths = _average_ranks([p.cutwidth for p in self.points])
        efforts = _average_ranks([math.log1p(p.nodes) for p in self.points])
        try:
            return statistics.correlation(widths, efforts)
        except statistics.StatisticsError:  # a constant column
            return float("nan")

    @property
    def all_bounds_hold(self) -> bool:
        return all(p.bound_holds for p in self.points)

    def render(self) -> str:
        lines = [
            f"Width vs effort ({self.circuit}): "
            f"{len(self.points)} instances",
            f"  Spearman rank corr. of W vs log(nodes): "
            f"{self.spearman():.2f}",
            f"  Theorem 4.1 bound holds on every instance: "
            f"{self.all_bounds_hold}",
        ]
        worst = sorted(self.points, key=lambda p: -p.nodes)[:3]
        for p in worst:
            lines.append(
                f"  hardest: {p.fault} nodes={p.nodes} W={p.cutwidth} "
                f"bound={p.bound}"
            )
        return "\n".join(lines)


def run_width_vs_effort(
    network: Network,
    *,
    max_faults: int = 40,
    node_budget: int = 200_000,
    seed: int = 0,
) -> WidthEffortReport:
    """Measure predicted vs actual difficulty per fault on one circuit.

    For each sampled fault: build the miter, order its first XOR cone
    with the Lemma 4.2 construction over an MLA base ordering, run the
    caching solver under that very ordering, and record nodes, the cone
    cut-width, and the Theorem 4.1 bound.
    """
    report = WidthEffortReport(circuit=network.name)
    base_graph = circuit_hypergraph(network)
    base_order = min_cut_linear_arrangement(
        base_graph,
        seed=seed,
        candidate_orders=[dfs_cone_ordering(network)],
    ).order

    faults = subsample_faults(collapse_faults(network), max_faults)

    for fault in faults:
        try:
            atpg = build_atpg_circuit(network, fault)
        except UnobservableFault:
            continue
        output = atpg.observing_outputs[0]
        cone = atpg.network.output_cone("xor$" + output)
        order = fault_ordering(atpg, base_order, output)
        graph = circuit_hypergraph(cone)
        width = cut_width_under_order(graph, order)

        formula = circuit_sat_formula(cone)
        solver = CachingBacktrackingSolver(order=order, max_nodes=node_budget)
        result = solver.solve(formula)
        k_fo = max(1, cone.max_fanout())
        bound = theorem_4_1_bound(formula.num_variables(), k_fo, width)
        report.points.append(
            WidthEffortPoint(
                fault=str(fault),
                cone_size=len(cone.nets),
                cutwidth=width,
                nodes=result.stats.nodes,
                bound=bound,
                bound_holds=result.stats.nodes <= bound,
            )
        )
    return report
