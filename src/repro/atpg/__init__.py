"""ATPG substrate: faults, miters, SAT-based generation, fault simulation.

The seed-grade PODEM engine (:mod:`repro.atpg.podem`) is a test oracle
for the SAT engine, not part of this package's API; import it from its
module.
"""

from repro.atpg.compaction import (
    coverage_of,
    greedy_cover_compaction,
    reverse_order_compaction,
)
from repro.atpg.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    load_checkpoint,
    resumable_records,
)
from repro.atpg.engine import (
    ABORT_BUDGET,
    ABORT_DEADLINE,
    ABORT_SHARD_CRASHED,
    ABORT_SHARD_TIMEOUT,
    AtpgEngine,
    AtpgRecord,
    AtpgSummary,
    EngineStats,
    FaultStatus,
    RunHealth,
    make_solver,
    run_atpg,
)
from repro.atpg.options import AtpgOptions
from repro.atpg.supervisor import (
    FailedShard,
    ShardSupervisor,
    SupervisorReport,
)
from repro.atpg.fault_sim import (
    FaultSimResult,
    PatternBlockStore,
    fault_simulate,
    pattern_detects,
    random_pattern_coverage,
    simulate_fault,
)
from repro.atpg.parallel import (
    ParallelAtpgEngine,
    shard_faults_by_cone,
)
from repro.atpg.faults import (
    Fault,
    collapse_faults,
    detectable_outputs,
    equivalence_classes,
    faults_on,
    full_fault_list,
    inject_fault,
)
from repro.atpg.miter import (
    AtpgCircuit,
    UnobservableFault,
    atpg_sat_formula,
    build_atpg_circuit,
    fault_cone_nets,
    sub_circuit,
)

__all__ = [
    "ABORT_BUDGET",
    "ABORT_DEADLINE",
    "ABORT_SHARD_CRASHED",
    "ABORT_SHARD_TIMEOUT",
    "AtpgCircuit",
    "AtpgEngine",
    "AtpgOptions",
    "AtpgRecord",
    "AtpgSummary",
    "CheckpointError",
    "CheckpointWriter",
    "EngineStats",
    "FailedShard",
    "Fault",
    "FaultSimResult",
    "FaultStatus",
    "ParallelAtpgEngine",
    "PatternBlockStore",
    "RunHealth",
    "ShardSupervisor",
    "SupervisorReport",
    "load_checkpoint",
    "resumable_records",
    "UnobservableFault",
    "atpg_sat_formula",
    "build_atpg_circuit",
    "collapse_faults",
    "coverage_of",
    "detectable_outputs",
    "equivalence_classes",
    "fault_cone_nets",
    "fault_simulate",
    "faults_on",
    "full_fault_list",
    "greedy_cover_compaction",
    "inject_fault",
    "make_solver",
    "pattern_detects",
    "random_pattern_coverage",
    "shard_faults_by_cone",
    "reverse_order_compaction",
    "run_atpg",
    "simulate_fault",
]
