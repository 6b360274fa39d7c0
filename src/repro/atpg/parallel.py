"""Parallel batched ATPG: shard the fault list across worker processes.

The paper's Figure-1 experiment is embarrassingly parallel — thousands
of independent ATPG-SAT instances — so the fan-out itself is easy.  The
two things worth being careful about are *cache locality* and
*determinism*:

* **Sharding by fanout cone.**  Faults whose fanout cones overlap build
  miters that share most of their gates, so a worker processing them
  back-to-back gets high hit rates from its per-process
  :class:`~repro.sat.tseitin.CnfEncodingCache`.  Faults are therefore
  grouped by the primary outputs that can observe them and whole groups
  are packed onto shards (greedy LPT on estimated cone work), instead of
  striping faults round-robin.

* **Deterministic reconciliation of fault dropping.**  Each worker
  fault-drops only within its shard, so the raw union of worker records
  depends on the sharding.  The coordinator fixes this with a *replay
  merge*: it walks the canonical sequential fault order, re-checking
  each fault against the tests kept so far (batched, via
  :class:`~repro.atpg.fault_sim.PatternBlockStore`) and taking the
  worker's SAT result otherwise.  An ATPG-SAT *verdict* depends only on
  (circuit, fault) — never on dropping history — so statuses and
  coverage always match the sequential engine.  In ``fresh`` solver
  mode the *model* is history-independent too and the replay reproduces
  the sequential records exactly: same statuses, same tests, same drop
  attributions, regardless of worker count.  In ``incremental`` mode
  (the default) each worker's persistent solver state depends on its
  shard, so test vectors (and hence the TESTED/DROPPED split) can
  differ from a sequential run — coverage, UNSAT proofs, and test
  validity are unaffected.  The only sequential SAT calls the
  coordinator ever redoes itself are for faults a worker dropped
  in-shard that the global replay does not drop (counted as
  ``replay_solves``; rare in practice).

Execution is *supervised* (:mod:`repro.atpg.supervisor`): shards run in
single-purpose forked workers with per-shard wall-clock timeouts, crash
detection, bounded retry with automatic shard splitting, and graceful
degradation to in-process execution when forking is unavailable or the
pool keeps dying.  Whatever happens, :meth:`ParallelAtpgEngine.run`
terminates with a *complete* :class:`AtpgSummary`: faults whose shards
could not be run are recorded ABORTED with a machine-readable reason
(``shard_timeout`` / ``shard_crashed`` / ``deadline_exceeded``) and the
supervision counters land in ``summary.stats.health``.  Per-fault
results can be journaled to a JSONL checkpoint as shards complete and a
killed run resumed from it (:mod:`repro.atpg.checkpoint`).

``ParallelAtpgEngine`` falls back to in-process execution when
``workers <= 1`` or the platform cannot fork, so results (and tests)
never depend on the platform.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.atpg.checkpoint import (
    CheckpointWriter,
    ResumeParityWarning,
    ResumeRejectedRecordsWarning,
    verified_resumable_records,
)
from repro.atpg.engine import (
    AtpgEngine,
    AtpgRecord,
    AtpgSummary,
    EngineStats,
    FaultStatus,
)
from repro.atpg.faults import Fault
from repro.atpg.options import AtpgOptions
from repro.atpg.scoap import INFINITY, compute_scoap
from repro.atpg.supervisor import ShardSupervisor
from repro.circuits.network import Network
from repro.sat.tseitin import CnfEncodingCache


@dataclass
class _ShardJob:
    """Everything a worker needs to run one shard (must pickle).

    ``options`` are the coordinator's with ``order="given"`` (shards
    arrive pre-ordered canonically) and, for hardness-guided runs, the
    coordinator's resolved hardness model: workers must not load it
    from disk on their own.
    """

    network: Network
    faults: list[Fault]
    options: AtpgOptions
    encoding_cache: CnfEncodingCache
    deadline_at: Optional[float] = None


def _run_shard(job: _ShardJob, on_record=None) -> AtpgSummary:
    """Worker entry point: sequential ATPG over one shard."""
    engine = AtpgEngine(
        job.network, job.options, _worker_cache=job.encoding_cache
    )
    return engine.run(
        faults=job.faults, deadline_at=job.deadline_at, on_record=on_record
    )


def _split_shard(job: _ShardJob) -> list[_ShardJob]:
    """Halve a failing shard (canonical fault order preserved) so the
    supervisor can isolate a poisonous fault by bisection."""
    if len(job.faults) < 2:
        return [job]
    mid = len(job.faults) // 2
    return [
        replace(job, faults=job.faults[:mid]),
        replace(job, faults=job.faults[mid:]),
    ]


def shard_faults_by_cone(
    network: Network,
    faults: Sequence[Fault],
    num_shards: int,
    predictor=None,
) -> list[list[Fault]]:
    """Partition ``faults`` into cone-coherent, load-balanced shards.

    Faults are grouped by the set of primary outputs observing them (a
    cheap proxy for "miters share gates"); groups are then packed onto
    shards greedily, heaviest first, by estimated work.  Without a
    ``predictor``, a fault's work estimate multiplies its SCOAP
    detection cost (how hard exciting and propagating it is — the
    per-fault *search* effort predictor) with the TFI size of its fanout
    cone (the per-fault *instance* size), so a group of few-but-hard
    faults weighs as much as one of many-but-trivial faults; weighting
    by fault count alone left a visible solve-time imbalance between
    workers.  With a :class:`~repro.atpg.hardness.HardnessPredictor`,
    the learned per-fault conflict estimate replaces that product — it
    already folds instance size in through the cone features and,
    unlike SCOAP, prices the redundant tail correctly.  Within each
    shard the original fault order is preserved, so workers process
    their slice in canonical order, keeping the replay merge
    deterministic.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    rank = {fault: index for index, fault in enumerate(faults)}
    outputs = set(network.outputs)
    scoap = compute_scoap(network) if predictor is None else None
    inf_cost = 1.0
    if scoap is not None:
        # Finite stand-in for SCOAP's infinities (provably unexcitable /
        # unobservable under its approximation): costlier than any
        # finite fault, but not so large one such fault swamps the LPT
        # packing.
        finite = [
            cost
            for fault in faults
            if (cost := scoap.detection_cost(fault.net, fault.value))
            < INFINITY
        ]
        inf_cost = 2.0 * max(finite, default=1.0)

    groups: dict[tuple[str, ...], list[Fault]] = {}
    weights: dict[tuple[str, ...], float] = {}
    net_keys: dict[str, tuple[str, ...]] = {}
    net_sizes: dict[str, int] = {}
    for fault in faults:
        key = net_keys.get(fault.net)
        if key is None:
            cone = network.transitive_fanout([fault.net])
            key = tuple(sorted(out for out in cone if out in outputs))
            net_keys[fault.net] = key
            net_sizes[fault.net] = len(network.transitive_fanin(cone))
        if predictor is not None:
            weight = predictor.cost(fault)
        else:
            cost = scoap.detection_cost(fault.net, fault.value)
            if cost >= INFINITY:
                cost = inf_cost
            weight = cost * net_sizes[fault.net]
        groups.setdefault(key, []).append(fault)
        weights[key] = weights.get(key, 0.0) + weight

    shards: list[list[Fault]] = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    # Heaviest group first onto the least-loaded shard (LPT); ties break
    # on the group key so the sharding is deterministic.
    for key in sorted(groups, key=lambda k: (-weights[k], k)):
        target = min(range(num_shards), key=lambda i: (loads[i], i))
        shards[target].extend(groups[key])
        loads[target] += weights[key]
    for shard in shards:
        shard.sort(key=lambda fault: rank[fault])
    return [shard for shard in shards if shard]


class ParallelAtpgEngine:
    """Fault-parallel ATPG with sequential-identical results.

    Args:
        network: circuit under test (validated once, here, when
            ``options.validate`` is set).
        options: the run's :class:`~repro.atpg.options.AtpgOptions`.
            ``workers`` processes run the shards (``1``, or platforms
            without ``fork``, runs them in-process); ``deadline`` stops
            dispatch, terminates running workers and records the
            remaining faults ABORTED with reason ``deadline_exceeded``;
            ``shard_timeout`` terminates, retries and eventually splits
            a slow shard.  ``order`` applies on the coordinator (it
            fixes the canonical order the replay merge reproduces;
            workers process their slice as given); with either hardness
            feature active, shard balancing weighs faults by predicted
            cost instead of SCOAP x cone size.  Structural clause
            sharing is per-process: workers share across the cones of
            their own shard and nothing crosses process boundaries.
        min_faults_per_shard: never split below this many faults per
            shard — small fault lists run on fewer shards (often one, in
            process) because fork/merge overhead would dominate.
        max_shard_attempts: dispatch attempts per shard before the
            supervisor splits it (and, for single-fault shards, gives
            up and records the fault ABORTED).

    Every worker starts from a copy of one pre-warmed per-gate
    :class:`CnfEncodingCache`, skipping the cold Tseitin pass.
    """

    def __init__(
        self,
        network: Network,
        options: Optional[AtpgOptions] = None,
        *,
        min_faults_per_shard: int = 32,
        max_shard_attempts: int = 2,
    ) -> None:
        if min_faults_per_shard < 1:
            raise ValueError("min_faults_per_shard must be >= 1")
        self.network = network
        self.options = options if options is not None else AtpgOptions()
        self.min_faults_per_shard = min_faults_per_shard
        self.max_shard_attempts = max_shard_attempts
        #: Worker entry point; tests monkeypatch this with chaos
        #: variants (crashing / hanging shards) to exercise supervision.
        self._shard_runner = _run_shard
        # Coordinator-side engine: validation, canonical ordering, the
        # replay merge's drop checks and its fallback SAT calls.
        self._coordinator = AtpgEngine(network, self.options)

    # ------------------------------------------------------------------
    @staticmethod
    def can_fork() -> bool:
        """True if this platform supports fork-based worker pools."""
        return "fork" in multiprocessing.get_all_start_methods()

    def _jobs(
        self, shards: list[list[Fault]], deadline_at: Optional[float]
    ) -> list[_ShardJob]:
        # Encode every gate once here; each worker starts from a copy of
        # the warm cache instead of a cold Tseitin pass.
        cache = CnfEncodingCache()
        for gate in self.network.gates():
            cache.gate_clauses(gate)
        coordinator = self._coordinator
        options = replace(
            self.options,
            order="given",
            hardness_model=(
                coordinator.hardness_predictor().model
                if coordinator.hardness_guided
                else None
            ),
        )
        return [
            _ShardJob(
                network=self.network,
                faults=shard,
                options=options,
                encoding_cache=cache,
                deadline_at=deadline_at,
            )
            for shard in shards
        ]

    def run(
        self,
        faults: Optional[Sequence[Fault]] = None,
        resume_from: Optional[str | Path] = None,
        checkpoint_to: Optional[str | Path] = None,
        checkpoint_fence=None,
    ) -> AtpgSummary:
        """ATPG over a fault list, fanned out across supervised workers.

        In ``fresh`` solver mode the records match ``AtpgEngine.run`` on
        the same arguments exactly (statuses, tests, drop attributions);
        in ``incremental`` mode coverage and SAT/UNSAT verdicts match
        while test vectors may differ (see the module docstring).

        Args:
            resume_from: JSONL checkpoint journal of an earlier
                (interrupted) run with the same result options
                (:meth:`~repro.atpg.options.AtpgOptions.result_fields`;
                :class:`~repro.atpg.checkpoint.CheckpointError`
                otherwise); faults with settled journaled verdicts are
                not re-dispatched and the final merge matches an
                uninterrupted run's.
            checkpoint_to: journal per-fault records here as shards
                complete (may equal ``resume_from`` to continue the same
                journal).
            checkpoint_fence: optional write-side ownership guard for
                the journal (see
                :class:`~repro.atpg.checkpoint.CheckpointWriter`); the
                service passes its lease's
                :class:`~repro.service.lease.FenceGuard` so a run whose
                job was stolen dies at the next append instead of
                interleaving with the new owner's journal.

        The returned summary is always *complete*: every requested fault
        has a record, with orchestration casualties (crashed / timed-out
        shards, deadline) marked ABORTED and a machine-readable
        ``abort_reason``; supervision counters are in
        ``summary.stats.health``.
        """
        wall_start = time.perf_counter()
        options = self.options
        deadline_at = (
            time.monotonic() + options.deadline
            if options.deadline is not None
            else None
        )
        ordered = self._coordinator.ordered_faults(faults)

        settled: dict[Fault, AtpgRecord] = {}
        resume_rejects: list[AtpgRecord] = []
        if resume_from is not None:
            wanted = set(ordered)
            verified, resume_rejects = verified_resumable_records(
                resume_from,
                self.network,
                circuit=self.network.name,
                options=options,
            )
            settled = {
                fault: record
                for fault, record in verified.items()
                if fault in wanted
            }
            if resume_rejects:
                warnings.warn(
                    f"{len(resume_rejects)} journaled TESTED record(s) "
                    "failed witness replay at the resume trust boundary "
                    "and will be re-solved",
                    ResumeRejectedRecordsWarning,
                    stacklevel=2,
                )
            if settled and options.solver_mode == "incremental":
                warnings.warn(
                    "resuming in incremental solver mode: coverage and "
                    "SAT/UNSAT verdicts match an uninterrupted run, but "
                    "test vectors may differ (use solver_mode='fresh' "
                    "for bit-identical resume)",
                    ResumeParityWarning,
                    stacklevel=2,
                )
        remaining = [fault for fault in ordered if fault not in settled]

        num_shards = max(
            1,
            min(
                options.workers,
                len(remaining),
                max(1, len(remaining) // self.min_faults_per_shard),
            ),
        )
        shards = (
            shard_faults_by_cone(
                self.network,
                remaining,
                num_shards,
                predictor=(
                    self._coordinator.hardness_predictor()
                    if self._coordinator.hardness_guided
                    else None
                ),
            )
            if remaining
            else []
        )
        jobs = self._jobs(shards, deadline_at)
        use_pool = options.workers > 1 and self.can_fork() and len(jobs) > 1

        writer: Optional[CheckpointWriter] = None
        try:
            if checkpoint_to is not None:
                writer = CheckpointWriter(
                    checkpoint_to,
                    circuit=self.network.name,
                    fence=checkpoint_fence,
                    config=options.result_fields(),
                )
            report = self._supervise(jobs, use_pool, deadline_at, writer)
        finally:
            if writer is not None:
                writer.close()

        summary = self._merge(
            ordered,
            report.results,
            settled=settled,
            failed=report.failed,
            deadline_at=deadline_at,
        )
        summary.stats.health.merge(report.health)
        # A journaled TESTED verdict the simulator refutes is a
        # cross-run solver disagreement, caught at the trust boundary.
        summary.stats.health.disagreements += len(resume_rejects)
        summary.stats.health.count_aborts(summary.records)
        summary.stats.health.count_certification(summary.records)
        summary.stats.workers = options.workers if use_pool else 1
        summary.stats.shards = len(shards)
        summary.stats.wall_time = time.perf_counter() - wall_start
        return summary

    # ------------------------------------------------------------------
    def _supervise(
        self,
        jobs: list[_ShardJob],
        use_pool: bool,
        deadline_at: Optional[float],
        writer: Optional[CheckpointWriter],
    ):
        """Run the shard jobs under a :class:`ShardSupervisor`."""
        journaled: set[int] = set()

        def fallback(job: _ShardJob) -> AtpgSummary:
            # In-process execution journals per fault (there is no
            # shard-completion message to wait for), and marks its
            # summary so on_result does not journal it twice.
            on_record = writer.write_record if writer is not None else None
            shard_summary = self._shard_runner(job, on_record=on_record)
            journaled.add(id(shard_summary))
            return shard_summary

        def on_result(shard_summary: AtpgSummary) -> None:
            if writer is not None and id(shard_summary) not in journaled:
                writer.write_summary(shard_summary)

        workers = self.options.workers
        supervisor = ShardSupervisor(
            self._shard_runner,
            fallback_fn=fallback,
            split_job=_split_shard,
            workers=min(workers, max(1, len(jobs))),
            shard_timeout=self.options.shard_timeout,
            max_attempts=self.max_shard_attempts,
            deadline_at=deadline_at,
            use_processes=use_pool,
            mark_degraded=workers > 1 and not self.can_fork(),
            on_result=on_result,
        )
        return supervisor.run(jobs)

    # ------------------------------------------------------------------
    def _merge(
        self,
        ordered: Sequence[Fault],
        worker_summaries: Sequence[AtpgSummary],
        settled: Optional[dict[Fault, AtpgRecord]] = None,
        failed: Sequence = (),
        deadline_at: Optional[float] = None,
    ) -> AtpgSummary:
        """Replay the canonical order to reconcile cross-shard dropping.

        Worker records, ``settled`` records (from a resumed checkpoint)
        and ABORTED placeholders for ``failed`` shards are the *known*
        records of the coordinator's
        :meth:`~repro.atpg.engine.AtpgEngine.drop_or_solve` loop, so
        the merge stays deterministic no matter how the run was
        interrupted or degraded.
        """
        by_fault: dict[Fault, AtpgRecord] = dict(settled or {})
        stats = EngineStats()
        for worker_summary in worker_summaries:
            stats.merge(worker_summary.stats)
            for record in worker_summary.records:
                by_fault[record.fault] = record
        for failure in failed:
            for fault in failure.job.faults:
                if fault not in by_fault:
                    by_fault[fault] = AtpgRecord(
                        fault=fault,
                        status=FaultStatus.ABORTED,
                        abort_reason=failure.reason,
                    )
        summary = AtpgSummary(
            circuit=self.network.name,
            stats=stats,
            worker_stats=[ws.stats for ws in worker_summaries],
        )
        summary.records = self._coordinator.drop_or_solve(
            ordered, stats, deadline_at, known=by_fault
        )
        return summary
