"""The one ATPG configuration: :class:`AtpgOptions`.

Every engine option is declared, defaulted and validated here, once.
The same frozen object is the CLI's parse target, the engines'
constructor argument, the payload every shard worker receives, the
checkpoint journal's header and (through :meth:`AtpgOptions.
result_fields`) the input to the service's job key.

Stdlib-only on purpose: the hardness model field holds either a path or
an already-loaded :class:`~repro.atpg.hardness.HardnessModel`, and is
typed loosely so this module imports nothing from the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

SOLVER_MODES = ("incremental", "fresh")
ORDERS = ("auto", "scoap", "hardness", "given")
CERTIFY_MODES = ("off", "witness", "full")
SHARE_MODES = ("off", "cone")
BUDGET_POLICIES = ("fixed", "predicted")


@dataclass(frozen=True)
class AtpgOptions:
    """Engine options (see README § Knobs for the user-facing table).

    Attributes:
        solver: SAT backend: ``cdcl``, ``dpll``, ``dpll-static`` or
            ``caching`` (checked by :func:`~repro.atpg.engine.make_solver`
            when the first fault is solved).
        solver_mode: ``incremental`` keeps one persistent
            assumption-based CDCL solver per observing-output cone;
            ``fresh`` compiles and solves every miter from scratch.
            Both agree on every verdict and on coverage; test vectors
            may differ.  Non-CDCL backends always solve fresh.
        max_conflicts: per-fault effort budget (``None`` = unlimited);
            exhausted faults are ABORTED with ``budget_exhausted``.
        validate: check the netlist structurally before the run and
            fault-simulate every generated test.
        drop_block_size: patterns packed per fault-dropping block.
        order: ``auto`` (SCOAP-order the collapsed list, keep explicit
            lists as given), ``scoap``, ``hardness`` (learned
            predictor) or ``given``.  Only the schedule moves.
        deadline: run-level wall-clock budget in seconds; past it the
            remaining faults are ABORTED with ``deadline_exceeded``.
        certify: ``off``, ``witness`` (replay TESTED patterns) or
            ``full`` (also check UNSATs by DRUP proof or agreement);
            failures escalate through independent solvers.
        mem_budget_mb: clause-database memory budget per SAT call.
        share_learned: ``cone`` shares guard-free low-LBD learned
            clauses across sibling cone solvers; ``off`` does not.
        budget_policy: ``fixed`` gives every fault ``max_conflicts``;
            ``predicted`` tries a tight learned budget first and
            escalates to the full one, with identical verdicts.
        hardness_model: trained model (or a path to its JSON) for
            ``order="hardness"`` / ``budget_policy="predicted"``;
            ``None`` loads the shipped default.
        fault_dropping: skip faults an earlier test already detects
            (recorded DROPPED).
        workers: worker processes for the supervised parallel engine.
        shard_timeout: per-shard wall-clock budget in seconds.
    """

    solver: str = "cdcl"
    solver_mode: str = "incremental"
    max_conflicts: Optional[int] = 100_000
    validate: bool = True
    drop_block_size: int = 64
    order: str = "auto"
    deadline: Optional[float] = None
    certify: str = "off"
    mem_budget_mb: Optional[float] = None
    share_learned: str = "cone"
    budget_policy: str = "fixed"
    hardness_model: Optional[object] = None
    fault_dropping: bool = True
    workers: int = 1
    shard_timeout: Optional[float] = None

    #: The fields that can change a per-fault record: the service's job
    #: key and the journal header are built from exactly these.
    RESULT_FIELDS: ClassVar[tuple[str, ...]] = (
        "solver",
        "solver_mode",
        "max_conflicts",
        "fault_dropping",
        "certify",
        "share_learned",
        "drop_block_size",
    )

    def __post_init__(self) -> None:
        for name, allowed in (
            ("solver_mode", SOLVER_MODES),
            ("order", ORDERS),
            ("certify", CERTIFY_MODES),
            ("share_learned", SHARE_MODES),
            ("budget_policy", BUDGET_POLICIES),
        ):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        if self.max_conflicts is not None and self.max_conflicts < 0:
            raise ValueError("max_conflicts must be >= 0")
        if self.drop_block_size < 1:
            raise ValueError("drop_block_size must be >= 1")
        if self.deadline is not None and not self.deadline >= 0:
            raise ValueError("deadline must be >= 0 seconds")
        if self.mem_budget_mb is not None and not self.mem_budget_mb > 0:
            raise ValueError("mem_budget_mb must be > 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ValueError("shard_timeout must be > 0 seconds")

    def result_fields(self) -> dict:
        """The record-determining projection (job key, journal header)."""
        return {name: getattr(self, name) for name in self.RESULT_FIELDS}
