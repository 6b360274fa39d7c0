"""Recognition of polynomial-time SAT classes (paper Section 3.1).

The paper argues that ATPG-SAT instances generally do *not* fall into the
known easy classes — Horn, hidden (renamable) Horn, 2-SAT, or the more
general q-Horn class of Boros, Crama & Hammer.  This module implements
recognition procedures for each class so that claim can be checked
empirically on our own ATPG-SAT instances:

* Horn: every clause has at most one positive literal (syntactic scan).
* 2-SAT: every clause has at most two literals.
* Hidden Horn: some switching (renaming) of variables makes the formula
  Horn; reduces to 2-SAT over "is variable switched?" indicators.
* q-Horn: there is a valuation α : vars → [0, 1] with
  Σ_{l ∈ C} α(l) ≤ 1 for every clause C, where α(x̄) = 1 − α(x)
  (Boros et al.'s LP characterisation).  Checked as a SAT problem over
  half-integral valuations; Horn, hidden Horn and 2-SAT are all
  subclasses.
"""

from __future__ import annotations

from itertools import combinations, permutations

from repro.sat.cdcl import CdclSolver
from repro.sat.cnf import CnfFormula, Literal, clause, neg, pos


def is_horn(formula: CnfFormula) -> bool:
    """True iff every clause has at most one positive literal."""
    return all(
        sum(1 for lit in clause if lit.positive) <= 1 for clause in formula.clauses
    )


def is_2sat(formula: CnfFormula) -> bool:
    """True iff every clause has at most two literals."""
    return all(len(clause) <= 2 for clause in formula.clauses)


def _tarjan_2sat(num_vars: int, implications: list[tuple[int, int]]) -> bool:
    """Satisfiability of a 2-SAT instance given as implication edges.

    Literal encoding: variable i has literals 2i (positive), 2i+1
    (negative).  Returns True iff no variable shares an SCC with its
    complement (iterative Tarjan to avoid recursion limits).
    """
    n = 2 * num_vars
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for src, dst in implications:
        adjacency[src].append(dst)

    index = [0] * n
    lowlink = [0] * n
    on_stack = [False] * n
    component = [-1] * n
    visited = [False] * n
    counter = 0
    comp_count = 0
    stack: list[int] = []

    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                visited[node] = True
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = adjacency[node]
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if not visited[child]:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work[-1] = (node, child_index)
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component[member] = comp_count
                    if member == node:
                        break
                comp_count += 1
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    return all(component[2 * v] != component[2 * v + 1] for v in range(num_vars))


def is_hidden_horn(formula: CnfFormula) -> bool:
    """True iff some renaming (variable switching) makes the formula Horn.

    Let s_v = 1 mean "switch variable v".  A literal is positive after
    renaming iff (positive and unswitched) or (negative and switched).
    The formula is renamable Horn iff for each clause, no two of its
    literals are simultaneously positive-after-renaming — a conjunction
    of 2-clauses over the s_v, i.e. a 2-SAT instance.
    """
    variables = list(formula.variables)
    index = {name: i for i, name in enumerate(variables)}
    implications: list[tuple[int, int]] = []

    def pos_after(lit) -> int:
        """Literal (in s-space) meaning 'lit is positive after renaming'."""
        v = index[lit.variable]
        # lit positive after renaming  <=>  s_v == (0 if lit.positive else 1)
        # Represent assertion "s_v = b" as the 2-SAT literal for that.
        return 2 * v + (1 if lit.positive else 0)
        # 2v   = s_v true  (switched)
        # 2v+1 = s_v false (unswitched)

    for clause in formula.clauses:
        lits = list(clause)
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                # Not both positive after renaming:
                # (¬p_i ∨ ¬p_j) where p = pos_after(lit).
                a = pos_after(lits[i])
                b = pos_after(lits[j])
                # clause (¬a ∨ ¬b): implications a → ¬b, b → ¬a.
                implications.append((a, b ^ 1))
                implications.append((b, a ^ 1))

    return _tarjan_2sat(len(variables), implications)


def is_q_horn(formula: CnfFormula) -> bool:
    """True iff the formula is q-Horn (Boros–Crama–Hammer).

    q-Horn asks for α ∈ [0,1]^n with, for every clause C,
    ``Σ_{x ∈ C+} α_x + Σ_{x ∈ C-} (1 − α_x) ≤ 1``.  Rounding a feasible
    α to {0, ½, 1} (below ½ to 0, above ½ to 1) keeps it feasible: a
    literal worth more than ½ leaves the rest of its clause below ½, and
    at most two literals of a clause can be worth exactly ½.  So the
    half-integral valuations suffice, and choosing one is a SAT problem
    solved here with :class:`~repro.sat.cdcl.CdclSolver`:

    * per variable x, ``h_x`` means α_x = ½; otherwise ``t_x`` means
      α_x = 1 and ``¬t_x`` means α_x = 0;
    * per clause, no literal worth 1 beside another literal worth more
      than 0, and no three literals each worth ½.
    """
    index = {name: i for i, name in enumerate(formula.variables)}

    def half(lit: Literal) -> Literal:
        return pos(f"h{index[lit.variable]}")

    def whole(lit: Literal) -> Literal:
        """Worth 1 unless ``half(lit)``; worth 0 when both are false."""
        t = f"t{index[lit.variable]}"
        return pos(t) if lit.positive else neg(t)

    choice = []
    for original in formula.clauses:
        for a, b in permutations(original, 2):
            # ¬(a worth 1 ∧ b worth more than 0)
            choice.append(clause(half(a), ~whole(a), ~half(b)))
            choice.append(clause(half(a), ~whole(a), ~whole(b)))
        for a, b, c in combinations(original, 3):
            choice.append(clause(~half(a), ~half(b), ~half(c)))
    return CdclSolver().solve(CnfFormula(choice)).is_sat


def classify(formula: CnfFormula) -> dict[str, bool]:
    """Membership of ``formula`` in each recognised easy class."""
    return {
        "horn": is_horn(formula),
        "2sat": is_2sat(formula),
        "hidden_horn": is_hidden_horn(formula),
        "q_horn": is_q_horn(formula),
    }
