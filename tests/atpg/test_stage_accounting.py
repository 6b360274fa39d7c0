"""Stage accounting: every engine stage interval is billed exactly once.

The engine's clock (``time.perf_counter`` as seen by
``repro.atpg.engine`` and by :func:`repro.obs.span`) is replaced by a
fake that advances one unit per read, and a large tick is injected
inside one piece of per-fault work at a time.  Two properties must hold
for both solver modes, with certification off, in witness mode, and in
full mode on the proof-logged rung:

* the stages never sum to more than the run's wall time (nothing is
  billed twice — cone-solver setup used to land in ``build`` and again
  in ``encode``);
* every injected tick lands in some stage (nothing goes unbilled — the
  phase seeding after each test and the ``validate`` fault simulation
  used to run after the solve stage had closed, and the full-mode DRUP
  check ran outside every stage).
"""

from __future__ import annotations

import time
import types

import pytest

import repro.atpg.certify as certify_module
import repro.atpg.engine as engine_module
import repro.obs as obs_module
from repro.atpg.certify import RUNGS
from repro.atpg.engine import AtpgEngine
from repro.atpg.options import AtpgOptions
from repro.circuits.network import Network
from repro.sat.incremental import IncrementalSatSolver
from tests.conftest import make_random_network

TICK = 1_000.0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


#: (solver mode, certify mode, where the tick is injected).
CASES = [
    ("incremental", "off", "cone_setup"),
    ("incremental", "off", "evaluate"),
    ("incremental", "off", "validate"),
    ("incremental", "witness", "cone_setup"),
    ("incremental", "witness", "evaluate"),
    ("incremental", "witness", "witness_replay"),
    ("fresh", "off", "validate"),
    ("fresh", "witness", "witness_replay"),
    ("incremental", "full", "drup_check"),
    ("fresh", "full", "drup_check"),
]


@pytest.mark.parametrize("solver_mode,certify,target", CASES)
def test_stages_partition_the_wall(monkeypatch, solver_mode, certify, target):
    clock = FakeClock()
    fake_time = types.SimpleNamespace(
        perf_counter=clock.perf_counter, monotonic=time.monotonic
    )
    monkeypatch.setattr(engine_module, "time", fake_time)
    monkeypatch.setattr(obs_module, "time", fake_time)

    calls = []

    def ticking(func):
        def wrapper(*args, **kwargs):
            calls.append(target)
            clock.now += TICK
            return func(*args, **kwargs)

        return wrapper

    owner, name = {
        "cone_setup": (IncrementalSatSolver, "add_base"),
        "evaluate": (Network, "evaluate"),
        "validate": (engine_module, "fault_simulate"),
        "witness_replay": (certify_module, "fault_simulate"),
        "drup_check": (certify_module, "check_drup"),
    }[target]
    monkeypatch.setattr(owner, name, ticking(getattr(owner, name)))
    if target == "drup_check":
        # Start every fault on the proof-logged rung, so every UNSAT
        # verdict gets its DRUP check.
        monkeypatch.setattr(
            AtpgEngine,
            "_route_start_rung",
            lambda self, fault: RUNGS.index("fresh-cdcl"),
        )

    network = make_random_network(6, num_inputs=5, num_gates=16)
    options = AtpgOptions(solver_mode=solver_mode, certify=certify)
    summary = AtpgEngine(network, options).run()
    stats = summary.stats

    assert calls, f"{target} never ran"
    billed = sum(stats.stage_times().values())
    assert billed <= stats.wall_time, (
        f"stages {stats.stage_times()} exceed wall {stats.wall_time}"
    )
    assert billed >= TICK * len(calls), (
        f"{len(calls)} ticks inside {target} not billed to a stage: "
        f"{stats.stage_times()}"
    )
