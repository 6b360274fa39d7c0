"""Reference q-Horn test: the Boros–Crama–Hammer LP (test oracle).

This is the linear-programming characterisation of q-Horn, kept as an
executable specification for :func:`repro.sat.horn.is_q_horn`, which
decides the same question as a SAT problem over half-integral
valuations.  It needs scipy, which only the ``test`` extra installs.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.sat.cnf import CnfFormula


def is_q_horn_lp(formula: CnfFormula) -> bool:
    """True iff the formula is q-Horn (Boros–Crama–Hammer LP test).

    Feasibility of: find α ∈ [0,1]^n with, for every clause C,
    ``Σ_{x ∈ C+} α_x + Σ_{x ∈ C-} (1 − α_x) ≤ 1``.
    """
    variables = list(formula.variables)
    if not variables or not formula.clauses:
        return True
    index = {name: i for i, name in enumerate(variables)}
    n = len(variables)
    rows = []
    rhs = []
    for clause in formula.clauses:
        row = np.zeros(n)
        bound = 1.0
        for lit in clause:
            if lit.positive:
                row[index[lit.variable]] += 1.0
            else:
                row[index[lit.variable]] -= 1.0
                bound -= 1.0
        rows.append(row)
        rhs.append(bound)
    result = linprog(
        c=np.zeros(n),
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    return bool(result.success)
