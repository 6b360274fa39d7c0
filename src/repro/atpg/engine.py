"""SAT-based test pattern generation (the TEGUS stand-in).

The flow of Larrabee [18] / Stephan et al. [24]: for each fault build the
ATPG-SAT circuit (Figure 3), translate to CNF, and hand it to a SAT
solver.  A satisfying assignment restricted to the primary inputs is a
test; an UNSAT answer proves the fault untestable (redundant).

The engine amortises the embarrassing per-fault redundancy of that loop:

* faults are ordered easiest-first by SCOAP detection cost, so cheap
  tests are generated early and drop as much of the hard tail as
  possible;
* fault dropping is *batched* — generated tests accumulate in packed
  bit-parallel blocks of configurable width
  (:class:`~repro.atpg.fault_sim.PatternBlockStore`; Python's arbitrary
  -precision ints make the word width a free parameter) and each
  candidate fault is checked against whole blocks right before its SAT
  call, which is drop-for-drop equivalent to the classic
  re-simulate-everything-per-test pass at a fraction of the cost;
* CNF encoding is incremental — per-gate clause blocks are memoised
  across miters (:class:`~repro.sat.tseitin.CnfEncodingCache`), so
  faults with overlapping fanin cones reuse clauses instead of
  re-running Tseitin from zero;
* SAT solving is incremental by default — one persistent
  assumption-based CDCL solver per observing-output cone
  (:class:`~repro.sat.incremental.IncrementalSatSolver`): the cone's
  good-circuit CNF is loaded once, each fault's miter delta is pushed
  as an activation-guarded clause group, and learned clauses, VSIDS
  activities, and saved phases survive across the fault batch
  (``solver_mode="fresh"`` restores per-fault cold starts);
* learned clauses are shared *across* cones — low-LBD clauses over a
  cone's good-circuit variables alone are base-entailed structural
  facts, promoted to a :class:`~repro.atpg.sharing.StructuralClauseStore`
  and injected into every sibling solver whose cone subsumes the
  origin's fanin (``share_learned="off"`` disables it);
* fanout cones are cached per net (both polarities of a stem share one
  traversal) and reused by miter construction and fault simulation.

Per-instance records (instance size, solve time, search effort) are kept
for every fault processed: they are exactly the data points of the
paper's Figure 1.  Per-stage timings and cache counters are aggregated
in :class:`EngineStats` for the perf trajectory.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.atpg.certify import RUNGS, CertificationError, EscalationLadder
from repro.atpg.fault_sim import PatternBlockStore, fault_simulate
from repro.atpg.faults import Fault, collapse_faults
from repro.atpg.hardness import HardnessModel, HardnessPredictor
from repro.atpg.miter import (
    UnobservableFault,
    build_atpg_circuit,
    build_fault_delta,
)
from repro.atpg.options import AtpgOptions
from repro.atpg.scoap import order_faults
from repro.atpg.sharing import StructuralClauseStore
from repro.circuits.network import Network
from repro.circuits.validate import check_network
from repro.obs import Counters, span, stage, topology
from repro.sat.caching import CachingBacktrackingSolver
from repro.sat.cdcl import CdclSolver
from repro.sat.dpll import DpllSolver
from repro.sat.incremental import IncrementalSatSolver
from repro.sat.result import SatResult, SatStatus
from repro.sat.tseitin import CnfEncodingCache


class FaultStatus(enum.Enum):
    """Classification of a fault after ATPG."""

    TESTED = "tested"  # SAT: test generated (and validated)
    UNTESTABLE = "untestable"  # UNSAT: provably redundant
    UNOBSERVABLE = "unobservable"  # no structural path to any output
    ABORTED = "aborted"  # resource limit
    DROPPED = "dropped"  # detected by an earlier pattern (fault dropping)


#: Machine-readable reasons attached to ABORTED records
#: (``AtpgRecord.abort_reason``) and the shared :class:`RunHealth`
#: telemetry — both live with the generic shard supervisor now
#: (:mod:`repro.atpg.supervisor`) and are re-exported here for
#: compatibility.  ``BUDGET`` is the per-fault conflict budget; the
#: others come from the run orchestration layer.
from repro.atpg.supervisor import (  # noqa: E402  (re-export)
    ABORT_BUDGET,
    ABORT_CERTIFICATION,
    ABORT_DEADLINE,
    ABORT_MEM,
    ABORT_SHARD_CRASHED,
    ABORT_SHARD_TIMEOUT,
    ABORT_SOLVER,
    RunHealth,
)


@dataclass
class AtpgRecord:
    """One Figure-1 data point: a single ATPG-SAT instance.

    ``solve_time`` is pure SAT search; miter construction and CNF
    encoding are reported separately so the perf trajectory can tell the
    stages apart.
    """

    fault: Fault
    status: FaultStatus
    num_variables: int = 0
    num_clauses: int = 0
    build_time: float = 0.0
    encode_time: float = 0.0
    solve_time: float = 0.0
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    test: Optional[dict[str, int]] = None
    abort_reason: Optional[str] = None
    #: Certification outcome (:mod:`repro.atpg.certify`): ``True`` the
    #: verdict passed its witness replay / DRUP or agreement check,
    #: ``False`` certification was attempted and failed on every ladder
    #: rung, ``None`` certification was off or inapplicable.
    certified: Optional[bool] = None


@dataclass
class EngineStats(Counters):
    """Aggregate perf counters for one ATPG run.

    Stage times partition the hot path: ``build`` (miter construction),
    ``encode`` (CNF translation), ``solve`` (SAT search), ``fsim``
    (fault-dropping simulation).  Cache counters come from the
    per-engine :class:`~repro.sat.tseitin.CnfEncodingCache`;
    ``replay_solves`` counts coordinator-side SAT calls the parallel
    engine needed during its reconciliation replay.  ``as_dict`` (the
    ``stats`` block of ``repro atpg --bench-json``) adds the hit rates
    and the search rates per second of solve time.
    """

    derived = ("cache_hit_rate", "shared_hit_rate")
    rate_clock = "solve_time"

    build_time: float = stage()
    encode_time: float = stage()
    solve_time: float = stage()
    fsim_time: float = stage()
    wall_time: float = 0.0
    sat_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    good_sims: int = 0
    cone_sims: int = 0
    workers: int = topology()
    shards: int = topology()
    replay_solves: int = 0
    propagations: int = 0
    decisions: int = 0
    conflicts: int = 0
    #: Cross-fault structural clause sharing (:mod:`repro.atpg.sharing`):
    #: clauses promoted into the store, clause deliveries into sibling
    #: cone solvers, and SAT calls that ran with at least one shared
    #: clause active.
    shared_promoted: int = 0
    shared_injected: int = 0
    shared_active_solves: int = 0
    #: Hardness-guided scheduling (:mod:`repro.atpg.hardness`): SAT
    #: calls whose tight predicted conflict budget ran out and were
    #: re-solved at the full budget, and faults the predictor routed
    #: straight to a stronger escalation-ladder rung.
    budget_escalations: int = 0
    hard_routed: int = 0
    health: RunHealth = field(default_factory=RunHealth)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of gate encodings served from the CNF cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def shared_hit_rate(self) -> float:
        """Fraction of SAT calls that ran with shared structural
        clauses active in their solver."""
        return (
            self.shared_active_solves / self.sat_calls
            if self.sat_calls
            else 0.0
        )


@dataclass
class AtpgSummary:
    """Aggregate outcome of a full-circuit ATPG run.

    ``worker_stats`` holds the per-shard :class:`EngineStats` of a
    parallel run (stage timings included), so load imbalance and shard
    setup overhead are visible; empty for sequential runs.
    """

    circuit: str
    records: list[AtpgRecord] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)
    worker_stats: list[EngineStats] = field(default_factory=list)

    def by_status(self, status: FaultStatus) -> list[AtpgRecord]:
        return [r for r in self.records if r.status is status]

    def status_counts(self) -> dict[str, int]:
        """Record count per fault status (parity-test currency)."""
        return {
            status.value: len(self.by_status(status)) for status in FaultStatus
        }

    @property
    def fault_coverage(self) -> float:
        """Detected / total, counting untestable faults as excluded."""
        detected = sum(
            1
            for r in self.records
            if r.status in (FaultStatus.TESTED, FaultStatus.DROPPED)
        )
        testable = sum(
            1
            for r in self.records
            if r.status
            in (FaultStatus.TESTED, FaultStatus.DROPPED, FaultStatus.ABORTED)
        )
        return detected / testable if testable else 1.0

    def tests(self) -> list[dict[str, int]]:
        """The generated test patterns, one per TESTED fault.

        DROPPED records reference the pattern that covered them, so they
        are excluded here to avoid duplicates.
        """
        return [
            r.test
            for r in self.records
            if r.test is not None and r.status is FaultStatus.TESTED
        ]


def make_solver(
    name: str,
    max_conflicts: Optional[int] = None,
    deadline_at: Optional[float] = None,
    mem_budget_mb: Optional[float] = None,
):
    """The single SAT-backend factory shared by every ATPG engine.

    Args:
        name: one of ``cdcl``, ``dpll``, ``dpll-static``, ``caching``.
        max_conflicts: per-instance effort budget; scaled to the
            backend's native unit (decisions for DPLL, nodes for the
            caching solver).
        deadline_at: absolute ``time.monotonic()`` wall-clock cutoff for
            the search (CDCL only; the other backends rely on their
            node/decision budgets).
        mem_budget_mb: clause-database memory budget (CDCL only).

    Raises:
        ValueError: for unknown backend names.
    """
    if name == "cdcl":
        return CdclSolver(
            max_conflicts=max_conflicts,
            deadline_at=deadline_at,
            mem_budget_mb=mem_budget_mb,
        )
    if name in ("dpll", "dpll-static"):
        return DpllSolver(
            dynamic=(name == "dpll"),
            max_decisions=(
                None if max_conflicts is None else max_conflicts * 4
            ),
        )
    if name == "caching":
        return CachingBacktrackingSolver(max_nodes=max_conflicts)
    raise ValueError(f"unknown solver {name!r}")


#: LBD ceiling for promoting learned clauses into the shared structural
#: store.  Low-LBD ("glue") clauses are the ones worth transferring:
#: they encode tight cone facts, stay short, and survive DB reduction.
_STRUCTURAL_LBD_MAX = 4


@dataclass
class _ConeSolverEntry:
    """One persistent incremental solver per observing-output set.

    The base formula is the good-circuit CNF of ``relevant`` (the
    transitive fanin of the observing outputs); every fault observed by
    exactly these outputs pushes its miter delta onto this solver, so
    learned clauses, activities, and phases carry across the group.
    """

    solver: IncrementalSatSolver
    relevant: set[str]
    base_clauses: int


class AtpgEngine:
    """Test generator for single stuck-at faults on a circuit.

    Args:
        network: circuit under test (any gate alphabet the CNF encoder
            accepts; decompose first for the paper's exact setting).
            With ``options.validate`` it is checked structurally here,
            so cyclic or undriven-net netlists raise
            :class:`~repro.circuits.validate.ValidationError` up front
            instead of a deep ``KeyError`` mid-run.
        options: the run's :class:`~repro.atpg.options.AtpgOptions`
            (defaults when omitted; every option is documented there).
            ``workers`` and ``shard_timeout`` belong to
            :class:`~repro.atpg.parallel.ParallelAtpgEngine` and are
            ignored here.
        **overrides: shorthand for
            ``dataclasses.replace(options, **overrides)``.

    Shard workers of the parallel engine also pass ``_worker_cache``,
    the coordinator's pre-warmed per-gate CNF cache; the coordinator
    has validated the network already, so workers skip that check.
    """

    def __init__(
        self,
        network: Network,
        options: Optional[AtpgOptions] = None,
        *,
        _worker_cache: Optional[CnfEncodingCache] = None,
        **overrides,
    ) -> None:
        options = replace(
            options if options is not None else AtpgOptions(), **overrides
        )
        if options.validate and _worker_cache is None:
            check_network(network)
        self.network = network
        self.options = options
        self._hardness: Optional[HardnessPredictor] = None
        self._structural_store = (
            StructuralClauseStore()
            if options.share_learned == "cone"
            else None
        )
        self._ladder = (
            EscalationLadder(self, options.certify)
            if options.certify != "off"
            else None
        )
        self._deadline_at: Optional[float] = None
        self._encoding_cache = (
            _worker_cache if _worker_cache is not None else CnfEncodingCache()
        )
        self._cone_cache: dict[str, set[str]] = {}
        self._cone_solvers: dict[tuple[str, ...], _ConeSolverEntry] = {}
        self._topo: Optional[list[str]] = None

    @property
    def incremental(self) -> bool:
        """True when faults are solved on persistent per-cone solvers."""
        return self.options.effective_solver_mode == "incremental"

    @property
    def hardness_guided(self) -> bool:
        """True when any scheduling decision consults the predictor."""
        return (
            self.options.order == "hardness"
            or self.options.budget_policy == "predicted"
        )

    def hardness_predictor(self) -> HardnessPredictor:
        """The per-network hardness predictor (built on first use)."""
        if self._hardness is None:
            model = self.options.hardness_model
            if model is None:
                model = HardnessModel.default()
            elif not isinstance(model, HardnessModel):
                model = HardnessModel.load(model)
            self._hardness = HardnessPredictor(self.network, model=model)
        return self._hardness

    def _fault_budget(self, fault: Fault) -> tuple[Optional[int], bool]:
        """(first-attempt conflict budget, whether escalation remains).

        Under the ``fixed`` policy every fault gets the full budget and
        there is nothing to escalate to.  Under ``predicted`` the first
        attempt runs on the predictor's tight budget; the second element
        says a full-budget retry is still meaningful if it aborts.
        """
        ceiling = self.options.max_conflicts
        if self.options.budget_policy != "predicted":
            return ceiling, False
        budget = self.hardness_predictor().budget(fault, ceiling)
        escalatable = budget is not None and (
            ceiling is None or budget < ceiling
        )
        return budget, escalatable

    def _route_start_rung(self, fault: Fault) -> int:
        """The escalation-ladder rung this fault should start on.

        The cheap full-mode UNSAT certification is two *warm* rungs
        agreeing (primary + core-replay), so routing past them only pays
        when those rungs are doomed to burn their whole conflict budget
        and abort anyway.  That is exactly the faults the predictor
        prices above the configured ``max_conflicts``: for them the
        ladder starts at the proof-logged ``fresh-cdcl`` rung, replacing
        two full-budget warm aborts with the one cold solve the fault
        was always going to need.  Only the schedule moves — every rung
        agrees on verdicts, and a fresh-cdcl abort still climbs on to
        the DPLL reference exactly as an escalated one would.
        """
        ceiling = self.options.max_conflicts
        if (
            self.options.certify == "full"
            and self.hardness_guided
            and ceiling is not None
            and self.hardness_predictor().conflicts(fault) > ceiling
        ):
            return RUNGS.index("fresh-cdcl")
        return 0

    # ------------------------------------------------------------------
    def fault_cone(self, net: str) -> set[str]:
        """Cached transitive fanout of ``net`` (shared by both polarities
        of a stem fault, miter construction, and fault simulation)."""
        cone = self._cone_cache.get(net)
        if cone is None:
            cone = self.network.transitive_fanout([net])
            self._cone_cache[net] = cone
        return cone

    def generate_test(
        self, fault: Fault, stats: Optional[EngineStats] = None
    ) -> AtpgRecord:
        """Run ATPG-SAT for a single fault.

        With certification on, the verdict is produced (and on failure
        healed) by the escalation ladder; otherwise by the configured
        primary path directly.
        """
        stats = stats if stats is not None else EngineStats()
        if self._ladder is not None:
            return self._ladder.process(fault, stats)
        return self._primary_record(fault, stats)

    def _primary_record(self, fault: Fault, stats: EngineStats) -> AtpgRecord:
        """The engine's configured solve path (ladder rung 0)."""
        if self.incremental:
            return self._generate_test_incremental(fault, stats)
        return self._generate_test_fresh(fault, stats)

    def _generate_test_fresh(
        self, fault: Fault, stats: EngineStats
    ) -> AtpgRecord:
        """Cold-start path: build miter, compile, solve from scratch."""
        with span(stats, "build") as built:
            try:
                atpg = build_atpg_circuit(
                    self.network, fault, tfo=self.fault_cone(fault.net)
                )
            except UnobservableFault:
                return AtpgRecord(
                    fault=fault, status=FaultStatus.UNOBSERVABLE
                )
        with span(stats, "encode") as encoded:
            formula = atpg.formula(cache=self._encoding_cache)
        with span(stats, "solve") as solved:
            results = self._solve_within_budget(
                fault,
                stats,
                lambda budget: make_solver(
                    self.options.solver,
                    budget,
                    deadline_at=self._deadline_at,
                    mem_budget_mb=self.options.mem_budget_mb,
                ).solve(formula),
            )
        return self._finished_record(
            fault,
            stats,
            results,
            (formula.num_variables(), formula.num_clauses()),
            (built, encoded, solved),
        )

    def _generate_test_incremental(
        self, fault: Fault, stats: EngineStats
    ) -> AtpgRecord:
        """Hot path: push the fault's miter delta onto the persistent
        solver of its observing-output cone and solve under the delta's
        activation assumption."""
        with span(stats, "build") as built:
            tfo = self.fault_cone(fault.net)
            observing = tuple(
                out for out in self.network.outputs if out in tfo
            )
            if not observing:
                return AtpgRecord(
                    fault=fault, status=FaultStatus.UNOBSERVABLE
                )
            # Cone-solver setup happens inside the build interval and
            # is billed to it only.
            entry = self._cone_solver(observing)
            delta = build_fault_delta(
                self.network,
                fault,
                tfo=tfo,
                relevant=entry.relevant,
                topo_order=self._topo_order(),
                cache=self._encoding_cache,
            )
        with span(stats, "encode") as encoded:
            group = entry.solver.push_group(delta.clauses)
            num_variables = entry.solver.num_vars

        # Sharing work is billed to the solve stage on purpose: the
        # injection/drain cost is part of what the sharing trade buys.
        with span(stats, "solve") as solved:
            store = self._structural_store
            if store is not None:
                fresh = store.fresh_for(observing)
                if fresh:
                    entry.solver.push_shared(fresh)
                if entry.solver.num_shared_clauses:
                    stats.shared_active_solves += 1
            # An escalated re-solve runs on the still-warm solver: the
            # group is still active and the first attempt's learned
            # clauses carry over.
            results = self._solve_within_budget(
                fault,
                stats,
                lambda budget: entry.solver.solve(
                    group,
                    max_conflicts=budget,
                    deadline_at=self._deadline_at,
                    mem_budget_mb=self.options.mem_budget_mb,
                    model_names=self.network.inputs,
                ),
            )
            entry.solver.retire(group)
            if store is not None:
                # Drain *after* retire: the delta's variable names are
                # released by then, so clauses mentioning fault-specific
                # miter variables fail name translation and are
                # filtered — only clauses over the cone's good-circuit
                # nets promote.
                drained = entry.solver.drain_structural()
                if drained:
                    store.promote(observing, drained)
        record = self._finished_record(
            fault,
            stats,
            results,
            (num_variables, entry.base_clauses + group.num_clauses),
            (built, encoded, solved),
        )
        if record.test is not None:
            # Seed the cone's saved phases from the simulated net values
            # of the test just found: nearby faults need assignments that
            # differ only around the new fault site, so the next search
            # starts close to a known-good model.  Billed to solve.
            with span(stats, "solve"):
                entry.solver.seed_phases(self.network.evaluate(record.test))
        return record

    def _solve_within_budget(
        self,
        fault: Fault,
        stats: EngineStats,
        solve: Callable[[Optional[int]], SatResult],
    ) -> list[SatResult]:
        """Run ``solve(conflict_budget)`` under the fault's budget.

        Under the ``predicted`` policy a tight first budget that comes
        back UNKNOWN (not a memory or deadline abort) is retried once at
        the full budget, so final verdicts match the ``fixed`` policy
        exactly.  Returns every attempt's result, the final one last.
        """
        budget, escalatable = self._fault_budget(fault)
        results = [solve(budget)]
        if (
            escalatable
            and results[0].status is SatStatus.UNKNOWN
            and not results[0].stats.mem_limit_hit
            and not self._past_deadline()
        ):
            stats.budget_escalations += 1
            results.append(solve(self.options.max_conflicts))
        return results

    def _finished_record(
        self,
        fault: Fault,
        stats: EngineStats,
        results: list[SatResult],
        size: tuple[int, int],
        spans: tuple[span, span, span],
    ) -> AtpgRecord:
        """Map one primary solve's outcome onto a record.

        ``size`` is the instance's (variables, clauses); ``spans`` the
        closed (build, encode, solve) stage spans, whose seconds the
        record keeps.  The witness check of ``validate`` is billed to
        ``fsim``.
        """
        built, encoded, solved = spans
        record = AtpgRecord(
            fault=fault,
            status=FaultStatus.ABORTED,
            num_variables=size[0],
            num_clauses=size[1],
            build_time=built.seconds,
            encode_time=encoded.seconds,
            solve_time=solved.seconds,
            decisions=sum(r.stats.decisions for r in results),
            conflicts=sum(r.stats.conflicts for r in results),
            propagations=sum(r.stats.propagations for r in results),
        )
        stats.sat_calls += len(results)
        stats.propagations += record.propagations
        stats.decisions += record.decisions
        stats.conflicts += record.conflicts

        result = results[-1]
        if result.status is SatStatus.UNKNOWN:
            if result.stats.mem_limit_hit:
                record.abort_reason = ABORT_MEM
            elif self._past_deadline():
                record.abort_reason = ABORT_DEADLINE
            else:
                record.abort_reason = ABORT_BUDGET
        elif result.status is SatStatus.UNSAT:
            record.status = FaultStatus.UNTESTABLE
        else:
            assert result.assignment is not None
            test = self._extract_test(result.assignment)
            if self.options.validate and self._ladder is None:
                # With certification on the ladder replays the witness
                # itself (and heals failures instead of raising).
                with span(stats, "fsim"):
                    outcome = fault_simulate(self.network, [fault], [test])
                if fault not in outcome.detected:
                    raise CertificationError(
                        fault,
                        "witness",
                        "SAT model failed fault simulation — encoder or "
                        "solver bug",
                    )
            record.status = FaultStatus.TESTED
            record.test = test
        return record

    def _topo_order(self) -> list[str]:
        """The network's topological net order, computed once."""
        if self._topo is None:
            self._topo = self.network.topological_order()
        return self._topo

    def build_cone_solver(
        self, observing: tuple[str, ...]
    ) -> tuple[IncrementalSatSolver, set[str], int]:
        """A new incremental solver whose base is the good-circuit CNF
        of the fanin of ``observing``: (solver, relevant nets, base
        clause count).  The certification ladder builds its independent
        replay solvers with this too."""
        relevant = self.network.transitive_fanin(observing)
        clauses = []
        encode = self._encoding_cache.gate_clauses
        gate = self.network.gate
        for net in self._topo_order():
            if net in relevant:
                clauses.extend(encode(gate(net)))
        solver = IncrementalSatSolver()
        solver.add_base(clauses)
        return solver, relevant, len(clauses)

    def _cone_solver(self, observing: tuple[str, ...]) -> _ConeSolverEntry:
        """Persistent solver for the faults observed by ``observing``."""
        entry = self._cone_solvers.get(observing)
        if entry is None:
            solver, relevant, base_clauses = self.build_cone_solver(observing)
            store = self._structural_store
            if store is not None:
                solver.enable_structural(_STRUCTURAL_LBD_MAX)
                store.register_cone(observing, frozenset(relevant))
            entry = _ConeSolverEntry(
                solver=solver, relevant=relevant, base_clauses=base_clauses
            )
            self._cone_solvers[observing] = entry
        return entry

    def _past_deadline(self) -> bool:
        """True when the active run deadline has expired."""
        return (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        )

    def _extract_test(self, assignment: dict[str, int]) -> dict[str, int]:
        """Project a miter model onto the circuit's primary inputs.

        Inputs outside the miter (don't-cares) default to 0.
        """
        return {
            net: assignment.get(net, 0) & 1 for net in self.network.inputs
        }

    # ------------------------------------------------------------------
    def ordered_faults(
        self, faults: Optional[Sequence[Fault]] = None
    ) -> list[Fault]:
        """The fault list :meth:`run` would process, in processing order.

        The parallel engine uses this as the canonical order its replay
        merge reproduces.
        """
        explicit = faults is not None
        fault_list = list(faults) if explicit else collapse_faults(self.network)
        order = self.options.order
        if order == "hardness":
            return self.hardness_predictor().order(fault_list)
        if order == "scoap" or (order == "auto" and not explicit):
            return order_faults(self.network, fault_list)
        return fault_list

    def drop_or_solve(
        self,
        ordered: Sequence[Fault],
        stats: EngineStats,
        deadline_at: Optional[float] = None,
        known: Optional[dict[Fault, AtpgRecord]] = None,
        on_record: Optional[Callable[[AtpgRecord], None]] = None,
    ) -> list[AtpgRecord]:
        """The drop-or-solve loop shared by :meth:`run` and the parallel
        engine's replay merge.

        Walks ``ordered`` and settles each fault by the first rule that
        applies:

        1. with ``fault_dropping``, an earlier test (kept in packed
           blocks) detects it: DROPPED with the earliest such test —
           exactly the faults the classic re-simulate-after-every-test
           pass would drop;
        2. ``known`` holds its record (a shard worker's, or a resumed
           journal's): that record, unless it is a shard-local drop;
        3. ``deadline_at`` (absolute ``time.monotonic()``) has passed:
           ABORTED with ``deadline_exceeded``;
        4. otherwise :meth:`generate_test` solves it.

        A sequential run passes no ``known`` records.  Solves made on
        behalf of ``known`` (faults a worker dropped in-shard that the
        global replay does not) count as ``stats.replay_solves``.
        ``on_record`` fires as each record is settled.
        """
        dropping = self.options.fault_dropping
        certified_drop = True if self.options.certify != "off" else None
        store = PatternBlockStore(
            self.network, block_size=self.options.drop_block_size
        )
        records: list[AtpgRecord] = []
        self._deadline_at = deadline_at
        try:
            for fault in ordered:
                detected = None
                if dropping and len(store):
                    with span(stats, "fsim"):
                        detected = store.first_detection(
                            fault, cone=self.fault_cone(fault.net)
                        )
                if detected is not None:
                    # The drop *is* a fault-simulation detection of this
                    # fault by this pattern.
                    record = AtpgRecord(
                        fault=fault,
                        status=FaultStatus.DROPPED,
                        test=store.pattern(detected),
                        certified=certified_drop,
                    )
                else:
                    record = known.get(fault) if known is not None else None
                    if record is None or record.status is FaultStatus.DROPPED:
                        if self._past_deadline():
                            stats.health.deadline_hit = True
                            record = AtpgRecord(
                                fault=fault,
                                status=FaultStatus.ABORTED,
                                abort_reason=ABORT_DEADLINE,
                            )
                        else:
                            record = self.generate_test(fault, stats=stats)
                            if known is not None:
                                stats.replay_solves += 1
                    if dropping and record.test is not None:
                        store.add(record.test)
                records.append(record)
                if on_record is not None:
                    on_record(record)
        finally:
            self._deadline_at = None
        stats.good_sims += store.good_sims
        stats.cone_sims += store.cone_sims
        return records

    def run(
        self,
        faults: Optional[Sequence[Fault]] = None,
        deadline_at: Optional[float] = None,
        on_record: Optional[Callable[[AtpgRecord], None]] = None,
    ) -> AtpgSummary:
        """ATPG over a fault list (collapsed list by default), settled
        by :meth:`drop_or_solve`.

        Args:
            deadline_at: absolute ``time.monotonic()`` deadline imposed
                by an orchestrator; defaults to the ``deadline`` option
                counted from this call.
            on_record: per-record callback fired as each record is
                settled (the checkpoint journal hook).
        """
        wall_start = time.perf_counter()
        if deadline_at is None and self.options.deadline is not None:
            deadline_at = time.monotonic() + self.options.deadline
        ordered = self.ordered_faults(faults)
        summary = AtpgSummary(circuit=self.network.name)
        stats = summary.stats
        cache = self._encoding_cache
        hits0, misses0 = cache.hits, cache.misses
        share = self._structural_store
        promoted0 = share.stats.promoted if share is not None else 0
        injected0 = share.stats.injected if share is not None else 0

        summary.records = self.drop_or_solve(
            ordered, stats, deadline_at, on_record=on_record
        )

        stats.cache_hits = cache.hits - hits0
        stats.cache_misses = cache.misses - misses0
        if share is not None:
            stats.shared_promoted = share.stats.promoted - promoted0
            stats.shared_injected = share.stats.injected - injected0
        stats.health.recount(summary.records)
        stats.wall_time = time.perf_counter() - wall_start
        return summary


def run_atpg(
    network: Network,
    options: Optional[AtpgOptions] = None,
    resume_from: Optional[str | Path] = None,
    checkpoint_to: Optional[str | Path] = None,
) -> AtpgSummary:
    """Run ATPG with ``options`` on the engine they call for.

    The run is supervised (:class:`~repro.atpg.parallel.
    ParallelAtpgEngine`, in-process when ``workers == 1``) when it has
    more than one worker, a shard timeout, or a checkpoint journal to
    write or resume; otherwise it is a plain sequential
    :meth:`AtpgEngine.run`.  Fresh-mode records are identical either
    way.
    """
    options = options if options is not None else AtpgOptions()
    if (
        options.workers > 1
        or options.shard_timeout is not None
        or resume_from is not None
        or checkpoint_to is not None
    ):
        from repro.atpg.parallel import ParallelAtpgEngine

        return ParallelAtpgEngine(network, options).run(
            resume_from=resume_from, checkpoint_to=checkpoint_to
        )
    return AtpgEngine(network, options).run()
