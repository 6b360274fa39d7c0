"""Cross-fault structural clause sharing between per-cone solvers.

Zhen et al. 2023 (*Conflict-driven Structural Learning Towards Higher
Coverage Rate in ATPG*) observe that conflict clauses learned while
targeting one fault transfer to other faults in the same circuit
region: the clauses express structural facts about the good circuit,
not about any particular fault.  Our incremental architecture makes the
sound version of that transfer cheap:

* Each per-cone :class:`~repro.sat.incremental.IncrementalSatSolver`
  base is the good-circuit CNF of the cone's transitive fanin; fault
  miters arrive as activation-guarded deltas.  A learned clause free of
  every activation variable is entailed by the *base alone* (assign all
  activation literals false: every guarded clause is satisfied, so any
  guard-free consequence of the full database is a consequence of the
  base — see :meth:`repro.sat.incremental.IncrementalSatSolver.
  drain_structural`).
* Such a clause is therefore valid in any solver whose base is a
  *superset* of the origin's base.  Bases are canonical (gate clauses of
  the fanin in topological order), so the superset test reduces to a
  fanin-net-set subset test between cones.
* Injection goes through the same activation-group mechanism as fault
  deltas, so injected clauses retire safely and never contaminate
  proofs: certified UNSAT verdicts are re-derived on independent fresh
  cores regardless of what was injected.

The store is deterministic: promotions append to a log in solve order,
each target consumes the log through a cursor, and clause literal
order is canonicalised — two identical runs inject identical clauses
in identical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import Counters
from repro.sat.cnf import Literal

#: Canonical shared clause: sorted tuple of named literals.
NamedClause = tuple[Literal, ...]


@dataclass
class SharingStats(Counters):
    """Counters for one store's lifetime (one engine run)."""

    promoted: int = 0
    """Structural clauses accepted into the store."""

    injected: int = 0
    """Clause deliveries into sibling cone solvers (one clause landing
    in two cones counts twice)."""

    duplicates: int = 0
    """Promotions dropped because an identical clause was already
    stored."""

    cones: int = 0
    """Cone signatures registered."""


@dataclass
class _ConeInfo:
    fanin: frozenset[str]
    cursor: int = 0  # position in the log this cone has consumed
    promoted: int = 0  # clauses this cone contributed (cap accounting)


@dataclass
class StructuralClauseStore:
    """Shared pool of base-entailed learned clauses, keyed by cone.

    ``register_cone`` declares a cone signature (its observing-output
    tuple) with its fanin net set.  ``promote`` appends a cone's
    freshly drained structural clauses to the global log; ``fresh_for``
    returns the log entries a target cone has not seen yet whose origin
    fanin is a subset of the target's fanin (origin base ⊆ target base,
    the soundness condition), excluding the target's own promotions —
    its persistent solver already retains those natively.

    Args:
        per_cone_cap: promotion budget per origin cone; keeps injection
            group sizes (and the assumption overhead per solve) bounded
            on pathological circuits.
    """

    per_cone_cap: int = 256
    stats: SharingStats = field(default_factory=SharingStats)

    def __post_init__(self) -> None:
        self._cones: dict[tuple[str, ...], _ConeInfo] = {}
        #: Append-only: (origin signature, origin fanin, clause).
        self._log: list[
            tuple[tuple[str, ...], frozenset[str], NamedClause]
        ] = []
        self._seen: set[NamedClause] = set()

    def register_cone(
        self, signature: tuple[str, ...], fanin: frozenset[str]
    ) -> None:
        """Declare a cone (idempotent)."""
        if signature not in self._cones:
            self._cones[signature] = _ConeInfo(fanin=frozenset(fanin))
            self.stats.cones += 1

    def promote(
        self,
        signature: tuple[str, ...],
        clauses: list[NamedClause],
    ) -> int:
        """Append ``signature``'s structural clauses to the log.

        Returns the number actually accepted (duplicates and over-cap
        promotions are dropped).
        """
        info = self._cones[signature]
        accepted = 0
        for named in clauses:
            if info.promoted >= self.per_cone_cap:
                break
            if named in self._seen:
                self.stats.duplicates += 1
                continue
            self._seen.add(named)
            self._log.append((signature, info.fanin, named))
            info.promoted += 1
            accepted += 1
        self.stats.promoted += accepted
        return accepted

    def fresh_for(self, signature: tuple[str, ...]) -> list[NamedClause]:
        """Unconsumed applicable clauses for ``signature``'s solver.

        Applicable = promoted by a *different* cone whose fanin is a
        subset of this cone's fanin.  Advances the cone's cursor, so
        each clause is delivered to a given target at most once.
        """
        info = self._cones[signature]
        log = self._log
        if info.cursor >= len(log):
            return []
        fanin = info.fanin
        fresh = [
            named
            for origin, origin_fanin, named in log[info.cursor :]
            if origin != signature and origin_fanin <= fanin
        ]
        info.cursor = len(log)
        self.stats.injected += len(fresh)
        return fresh
