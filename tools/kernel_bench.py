#!/usr/bin/env python
"""Flat-kernel microbench: CDCL propagation throughput in isolation.

Runs the incremental ATPG engine over a generated circuit and reports
the solve stage's propagations/sec — the single number that tracks the
flat-array kernel's raw speed.  The fault set and call sequence are
fully deterministic, so the work counters (propagations, conflicts) are
bit-identical across hosts and only the rate varies; CI records the
JSON next to the ratcheted ``BENCH_atpg.json`` as a quick trend line.

Two further microbenches isolate the round-2 hot loops:

* ``prop_microbench`` — pure unit propagation, no search: a scripted
  implication network (a binary chain feeding ternary collector
  clauses, so both the binary pre-pass and the watch-list path run)
  is propagated from a single decision and unwound, repeatedly.  No
  conflicts, no analysis, no VSIDS — the reported propagations/sec is
  the propagation loop alone.
* ``fsim_microbench`` — compiled fault-simulation throughput: every
  collapsed fault probed against full-width pattern blocks through one
  :class:`FaultSimulator`, reported as packed-word operations/sec.

The wall rate is noisy on loaded runners, so the report includes a
steal-corrected rate (solve time scaled by the run's CPU/wall ratio)
and takes the best of ``--repeat`` runs.

Usage::

    PYTHONPATH=src python tools/kernel_bench.py [--repeat 3] \
        [--seed 7] [--gates 300] [--json KERNEL_bench.json]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.atpg.engine import AtpgEngine
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import collapse_faults
from repro.atpg.options import AtpgOptions
from repro.circuits.decompose import tech_decompose
from repro.circuits.simulate import pack_patterns, simulate
from repro.gen.random_circuits import RandomCircuitSpec, random_circuit
from repro.obs import rates
from repro.sat.cdcl import CdclCore
from repro.sat.compile import lit_of
from repro.sat.result import SolverStats


def one_run(network, faults):
    engine = AtpgEngine(network, AtpgOptions(order="given"))
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    result = engine.run(faults=faults)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    stats = result.stats
    solve = stats.solve_time
    solve_cpu = solve * (cpu / wall) if wall else solve

    def props_per_sec(seconds):
        return rates(stats, seconds, ("propagations",))["propagations_per_sec"]

    return {
        "propagations": stats.propagations,
        "conflicts": stats.conflicts,
        "sat_calls": stats.sat_calls,
        "solve_time_s": solve,
        "solve_time_cpu_s": solve_cpu,
        "propagations_per_sec": props_per_sec(solve),
        "propagations_per_sec_cpu": props_per_sec(solve_cpu),
        "shared_promoted": stats.shared_promoted,
        "shared_injected": stats.shared_injected,
        "shared_hit_rate": stats.shared_hit_rate,
    }


def prop_microbench(num_vars=600, rounds=400):
    """Propagation-only rate: decide one literal, cascade, unwind.

    The formula is a deterministic implication network over
    ``num_vars`` chain variables: binary clauses ``x_i -> x_{i+1}``
    (the binary pre-pass) and, for every adjacent pair, a ternary
    collector ``x_i & x_{i+1} -> y_{i/2}`` (the watch-list path).  One
    decision on ``x_0`` propagates everything with zero conflicts, so
    the loop below measures ``_propagate`` and ``backjump`` alone —
    no analysis, no branching heuristic, no restarts.  Uses the core's
    internal enqueue/propagate entry points on purpose; this is a
    kernel probe, not an API example.
    """
    core = CdclCore()
    n_collect = num_vars // 2
    core.new_vars(num_vars + n_collect)
    for i in range(num_vars - 1):
        core.add_clause([lit_of(i, False), lit_of(i + 1, True)])
    for j in range(n_collect):
        core.add_clause(
            [
                lit_of(2 * j, False),
                lit_of(2 * j + 1, False),
                lit_of(num_vars + j, True),
            ]
        )
    stats = SolverStats()
    decision = lit_of(0, True)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for _ in range(rounds):
        core.trail_lim.append(len(core.trail))
        core._enqueue(decision)
        conflict = core._propagate(stats)
        assert conflict < 0, "implication chain must not conflict"
        core.backjump(0)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    return {
        "vars": num_vars + n_collect,
        "rounds": rounds,
        "propagations": stats.propagations,
        "wall_time_s": wall,
        "cpu_time_s": cpu,
        "propagations_per_sec_cpu": (
            stats.propagations / cpu if cpu else 0.0
        ),
    }


def fsim_microbench(network, faults, blocks=8, seed=11):
    """Compiled fault-sim kernel rate: packed-word operations/sec."""
    sim = FaultSimulator(network)
    rng = random.Random(seed)
    goods = []
    for _ in range(blocks):
        block = [
            {name: rng.randrange(2) for name in network.inputs}
            for _ in range(64)
        ]
        words = pack_patterns(block, network.inputs)
        goods.append(simulate(network, words, 64))
    mask = (1 << 64) - 1
    checksum = 0
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for good_values in goods:
        for fault in faults:
            checksum ^= sim.detect_mask(fault, good_values, mask)
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    return {
        "blocks": blocks,
        "faults": len(faults),
        "gate_evals": sim.gate_evals,
        "word_ops": sim.word_ops,
        "wall_time_s": wall,
        "cpu_time_s": cpu,
        "words_per_sec_cpu": sim.word_ops / cpu if cpu else 0.0,
        "checksum": checksum,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--inputs", type=int, default=20)
    parser.add_argument("--gates", type=int, default=300)
    parser.add_argument("--outputs", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = RandomCircuitSpec(
        num_inputs=args.inputs,
        num_gates=args.gates,
        num_outputs=args.outputs,
        seed=args.seed,
    )
    network = tech_decompose(random_circuit(spec))
    faults = collapse_faults(network)

    runs = [one_run(network, faults) for _ in range(max(1, args.repeat))]
    counters = {
        (r["propagations"], r["conflicts"], r["sat_calls"]) for r in runs
    }
    if len(counters) != 1:
        print(f"ERROR: work counters varied across runs: {counters}")
        return 1
    best = max(runs, key=lambda r: r["propagations_per_sec_cpu"])

    prop_runs = [prop_microbench() for _ in range(max(1, args.repeat))]
    if len({r["propagations"] for r in prop_runs}) != 1:
        print("ERROR: prop microbench work counters varied across runs")
        return 1
    prop_best = max(prop_runs, key=lambda r: r["propagations_per_sec_cpu"])

    fsim_runs = [
        fsim_microbench(network, faults) for _ in range(max(1, args.repeat))
    ]
    if len({(r["word_ops"], r["checksum"]) for r in fsim_runs}) != 1:
        print("ERROR: fsim microbench work counters varied across runs")
        return 1
    fsim_best = max(fsim_runs, key=lambda r: r["words_per_sec_cpu"])

    report = {
        "circuit": network.name,
        "faults": len(faults),
        "repeat": len(runs),
        **best,
        "prop_microbench": prop_best,
        "fsim_microbench": fsim_best,
    }
    print(
        f"kernel: {report['propagations']} propagations in "
        f"{report['solve_time_s']:.3f}s solve "
        f"({report['propagations_per_sec']:.0f}/s wall, "
        f"{report['propagations_per_sec_cpu']:.0f}/s steal-corrected, "
        f"best of {report['repeat']})"
    )
    print(
        f"prop-only: {prop_best['propagations']} propagations, "
        f"{prop_best['propagations_per_sec_cpu']:.0f}/s steal-free "
        f"(binary chain + ternary collectors, no search)"
    )
    print(
        f"fsim: {fsim_best['word_ops']} word ops over "
        f"{fsim_best['blocks']} blocks x {fsim_best['faults']} faults, "
        f"{fsim_best['words_per_sec_cpu']:.0f} words/s"
    )
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
