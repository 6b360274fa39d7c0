"""In-memory span tracer wrapped around the program's public functions.

The program itself carries no tracing yet, so the traced run patches
wrappers onto the bindings the callers actually resolve at call time:
``repro.atpg.engine.build_fault_delta`` (the engine's own import), not
``repro.atpg.miter.build_fault_delta``, and so on.  ``BINDINGS`` names
each wrapped binding, its span, and the workloads that must fire it; a
binding that records no call on such a workload was patched onto a
stale name and fails the run's coverage check.

Span arithmetic is integer nanoseconds, so the accounting is exact:
a span's self time is its duration minus the durations of its direct
children, every self time is >= 0, and the self times plus ``other``
(the traced wall no span covers) equal the traced wall.  A call that
re-enters the span it is directly nested in (``atomic_write_json`` ->
``atomic_write_text``, ``cut_width_under_order`` -> ``cut_profile``)
joins the open span instead of opening a second one, so one logical
operation counts one call.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

ATPG, WIDTH, SERVICE = "atpg-cli", "width-study", "service-mix"
ENGINE = frozenset({ATPG, SERVICE})

#: (span name, module, attribute path, workloads that must fire it).
BINDINGS = (
    ("io.bench.load", "repro.io.bench", "load_bench", {ATPG}),
    ("io.bench.load", "repro.service.server", "loads_bench", {SERVICE}),
    ("io.bench.load", "repro.service.runner", "loads_bench", {SERVICE}),
    ("circuits.validate.check", "repro.atpg.engine", "check_network", ENGINE),
    ("circuits.validate.check", "repro.circuits.validate", "check_network", {WIDTH}),
    ("circuits.validate.check", "repro.service.server", "check_network", {SERVICE}),
    ("atpg.faults.collapse", "repro.atpg.engine", "collapse_faults", ENGINE),
    ("atpg.faults.collapse", "repro.core.width_pipeline", "collapse_faults", {WIDTH}),
    ("atpg.engine.run", "repro.atpg.engine", "AtpgEngine.run", {ATPG}),
    ("atpg.engine.order", "repro.atpg.engine", "AtpgEngine.ordered_faults", ENGINE),
    ("atpg.engine.generate_test", "repro.atpg.engine", "AtpgEngine.generate_test", ENGINE),
    ("atpg.miter.delta", "repro.atpg.engine", "build_fault_delta", {ATPG}),
    ("atpg.miter.delta", "repro.atpg.certify", "build_fault_delta", {ATPG}),
    ("atpg.miter.build", "repro.atpg.engine", "build_atpg_circuit", {SERVICE}),
    ("atpg.miter.build", "repro.atpg.certify", "build_atpg_circuit", set()),
    ("atpg.miter.formula", "repro.atpg.miter", "AtpgCircuit.formula", {SERVICE}),
    ("sat.incremental.add_base", "repro.sat.incremental", "IncrementalSatSolver.add_base", {ATPG}),
    ("sat.incremental.push_group", "repro.sat.incremental", "IncrementalSatSolver.push_group", {ATPG}),
    ("sat.incremental.solve", "repro.sat.incremental", "IncrementalSatSolver.solve", {ATPG}),
    ("sat.incremental.retire", "repro.sat.incremental", "IncrementalSatSolver.retire", {ATPG}),
    ("sat.cdcl.solve", "repro.sat.cdcl", "CdclSolver.solve", {SERVICE}),
    ("circuits.network.evaluate", "repro.circuits.network", "Network.evaluate", {ATPG}),
    ("circuits.network.cone", "repro.circuits.network", "Network.transitive_fanout", {ATPG, WIDTH}),
    ("circuits.network.cone", "repro.circuits.network", "Network.transitive_fanin", {ATPG, WIDTH}),
    ("circuits.network.subnetwork", "repro.circuits.network", "Network.subnetwork", {WIDTH}),
    ("atpg.fault_sim.drop_check", "repro.atpg.fault_sim", "PatternBlockStore.first_detection", ENGINE),
    ("atpg.fault_sim.validate", "repro.atpg.engine", "fault_simulate", {ATPG}),
    ("atpg.fault_sim.validate", "repro.atpg.certify", "fault_simulate", ENGINE),
    ("atpg.sharing.exchange", "repro.atpg.sharing", "StructuralClauseStore.promote", {ATPG}),
    ("atpg.sharing.exchange", "repro.atpg.sharing", "StructuralClauseStore.fresh_for", {ATPG}),
    ("atpg.sharing.exchange", "repro.sat.incremental", "IncrementalSatSolver.push_shared", {ATPG}),
    ("atpg.sharing.exchange", "repro.sat.incremental", "IncrementalSatSolver.drain_structural", {ATPG}),
    ("atpg.certify.ladder", "repro.atpg.certify", "EscalationLadder.process", ENGINE),
    ("atpg.parallel.run", "repro.atpg.parallel", "ParallelAtpgEngine.run", {SERVICE}),
    ("atpg.checkpoint.append", "repro.atpg.checkpoint", "CheckpointWriter.write_record", {SERVICE}),
    ("io.atomic.write", "repro.io.atomic", "atomic_write_text", {ATPG, WIDTH, SERVICE}),
    ("io.atomic.write", "repro.io.atomic", "atomic_write_json", {ATPG, WIDTH}),
    ("io.atomic.write", "repro.service.jobs", "atomic_write_json", {SERVICE}),
    ("io.atomic.write", "repro.service.store", "atomic_write_json", {SERVICE}),
    ("io.atomic.write", "repro.service.runner", "atomic_write_json", {SERVICE}),
    ("service.admit", "repro.service.server", "AtpgService.submit", {SERVICE}),
    ("service.jobs.create", "repro.service.jobs", "JobStore.create", {SERVICE}),
    ("service.jobs.state", "repro.service.jobs", "JobStore.set_state", {SERVICE}),
    ("service.runner.execute", "repro.service.runner", "execute_job", {SERVICE}),
    ("service.store.put", "repro.service.store", "ResultStore.put", {SERVICE}),
    ("service.store.get", "repro.service.store", "ResultStore.get", {SERVICE}),
    ("width.run", "repro.core.width_pipeline", "WidthAnalysisPipeline.run", {WIDTH}),
    ("core.hypergraph.build", "repro.core.width_pipeline", "circuit_hypergraph", {WIDTH}),
    ("core.mla.estimate", "repro.core.width_pipeline", "estimate_cutwidth", {WIDTH}),
    ("partition.multilevel", "repro.core.mla", "multilevel_bisect", {WIDTH}),
    ("partition.fm", "repro.partition.multilevel", "fm_bisect", {WIDTH}),
    ("partition.exact", "repro.core.mla", "exact_min_cutwidth", {WIDTH}),
    ("core.hypergraph.cut_eval", "repro.core.mla", "cut_width_under_order", {WIDTH}),
    ("core.hypergraph.cut_eval", "repro.core.hypergraph", "cut_profile", {WIDTH}),
    ("core.hypergraph.restrict", "repro.core.hypergraph", "Hypergraph.restricted_to", {WIDTH}),
)

#: Spans whose self time is their layer's "other" (glue between the
#: wrapped calls): reported as ``atpg.other_s`` / ``width.other_s``.
LAYER_OTHER = {"atpg.engine.run": "atpg.other", "width.run": "width.other"}


def binding_id(module: str, attr: str) -> str:
    return f"{module}:{attr}"


class Tracer:
    """Span stack plus per-name self time and call counts (in memory)."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        # Open frames: [name, start_ns, child_ns, joined re-entries].
        self.stack: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.binding_calls: dict[str, int] = defaultdict(int)
        #: Drop checks that found a detecting pattern.
        self.drop_hits = 0

    def enter(self, name: str) -> None:
        if self.stack and self.stack[-1][0] == name:
            self.stack[-1][3] += 1
            return
        self.stack.append([name, self.clock(), 0, 0])
        self.calls[name] += 1

    def exit(self, name: str) -> None:
        frame = self.stack[-1]
        if frame[0] != name:
            raise RuntimeError(f"span {name!r} closed inside {frame[0]!r}")
        if frame[3]:
            frame[3] -= 1
            return
        self.stack.pop()
        duration = self.clock() - frame[1]
        self.self_ns[name] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit(name)

    def wrap(self, func, name: str, binding: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer.binding_calls[binding] += 1
            tracer.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit(name)
            if name == "atpg.fault_sim.drop_check" and result is not None:
                tracer.drop_hits += 1
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self, bindings=BINDINGS) -> None:
        """Patch every binding (importing its module first)."""
        for name, module_name, attr, _ in bindings:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # Class attributes: read through __dict__ so a plain function
            # is patched as a function (the wrapper then binds as a method).
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            if getattr(original, "__wrapped_by_tracer__", False):
                raise RuntimeError(f"{module_name}.{attr} patched twice")
            setattr(owner, leaf, self.wrap(original, name, binding_id(module_name, attr)))

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "binding_calls": dict(self.binding_calls),
            "drop_hits": self.drop_hits,
        }


# ----------------------------------------------------------------------
# Aggregation and checks over traced processes
# ----------------------------------------------------------------------
def merge(snapshots: list[dict]) -> dict:
    """Sum traced-process snapshots (each carrying ``wall_ns``)."""
    total = {"wall_ns": 0, "self_ns": defaultdict(int), "calls": defaultdict(int),
             "binding_calls": defaultdict(int), "drop_hits": 0}
    for snap in snapshots:
        total["wall_ns"] += snap["wall_ns"]
        total["drop_hits"] += snap["drop_hits"]
        for key in ("self_ns", "calls", "binding_calls"):
            for name, value in snap[key].items():
                total[key][name] += value
    return total


def layer_table(total: dict) -> list[tuple[str, int, int]]:
    """Rows (name, self_ns, calls), largest first, then ``other``."""
    rows = sorted(
        ((name, ns, total["calls"].get(name, 0)) for name, ns in total["self_ns"].items()),
        key=lambda row: (-row[1], row[0]),
    )
    rows.append(("other", total["wall_ns"] - sum(total["self_ns"].values()), 0))
    return rows


def accounting_errors(total: dict) -> list[str]:
    errors = [
        f"span {name} has negative self time {ns} ns"
        for name, ns in total["self_ns"].items()
        if ns < 0
    ]
    other = total["wall_ns"] - sum(total["self_ns"].values())
    if other < 0:
        errors.append(f"spans cover more than the traced wall (other = {other} ns)")
    return errors


def coverage_errors(total: dict, workload: str, bindings=BINDINGS) -> list[str]:
    return [
        f"wrapper {module}.{attr} ({name}) recorded no call on {workload}"
        for name, module, attr, workloads in bindings
        if workload in workloads
        and not total["binding_calls"].get(binding_id(module, attr))
    ]
