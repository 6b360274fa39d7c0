"""End-to-end benchmark of the three user paths, with a traced run.

    python3 e2ebench/run.py --workload atpg-cli --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1     # print everything

Workloads (see e2ebench/README.md): ``atpg-cli``, ``width-study`` and
``service-mix``.  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` measures them the same way, then repeats the
inputs through the span tracer for the per-layer metrics.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics that ``BENCHMARK.json`` lists for the mode.  Exits 1
when an output is wrong or a check fails, 2 when run outside a
checkout of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Bytecode of the benchmark and of the program goes under the work
# directory, never next to the sources.
sys.pycache_prefix = str(ROOT / ".e2ebench" / "pycache")


def checkout_problem() -> str | None:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        return f"no program sources under {ROOT / 'src'}: run from a checkout"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json in {ROOT}"
    return None


def metric_json(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_metrics(run, spec: dict) -> dict:
    if not run.trace:
        return {m["name"]: metric_json(run.e2e[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}
    return {
        m["name"]: metric_json(run.layers.get(m["name"], (0, m["unit"]))[0], m["unit"])
        for m in spec["per_layer"]
    }


def report(run, spec: dict) -> None:
    """Human-readable tables: end-to-end metrics, then the layer table."""
    print(f"== {run.workload} (seed {run.seed}, trace {int(run.trace)}) ==")
    print(f"  {'metric':<14} {'value':>12} {'unit':<5} {'n':>4}  note")
    for m in spec["end_to_end"]:
        value, unit, count, note = run.e2e[m["name"]]
        print(f"  {m['name']:<14} {value:>12.4f} {unit:<5} {count:>4}  {note}")
    share = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_share':<14} {share:>12.4f} {'':<5} {run.attempted:>4}  "
          f"{run.failed} of {run.attempted} operations failed")
    if not run.trace:
        return
    wall = run.traced_wall_s
    overhead = run.layers["trace.overhead"][0]
    print(f"  layer table: traced wall {wall:.3f}s, tracing overhead {overhead:.3f}x")
    print(f"  {'span':<30} {'self_s':>9} {'calls':>9} {'share':>7}")
    for name, self_ns, calls in run.table:
        print(f"  {name:<30} {self_ns / 1e9:>9.4f} {calls:>9} {self_ns / 1e9 / wall:>7.1%}")
    print(f"  {'(sum = traced wall)':<30} {sum(r[1] for r in run.table) / 1e9:>9.4f}")
    print(f"  {'per-layer metric':<32} {'value':>14} unit")
    for m in spec["per_layer"]:
        value, unit = run.layers.get(m["name"], (0, m["unit"]))
        mark = "" if m["name"] in run.layers else "  (not reached)"
        print(f"  {m['name']:<32} {value:>14.6g} {unit}{mark}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, refs, ledger):
    from measure import WORK
    from workloads import WORKLOADS, Run

    run_dir = WORK / "runs" / f"{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run = Run(workload=workload, seed=seed, seconds=seconds, trace=trace,
              run_dir=run_dir, refs=refs, ledger=ledger)
    try:
        WORKLOADS[workload](run)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("atpg-cli", "width-study", "service-mix", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"e2ebench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Fill the bytecode cache the program's processes share, so that no
    # timed process compiles (and no child's peak RSS is a compile's).
    sys.dont_write_bytecode = False
    import repro.cli  # noqa: F401
    import repro.core.width_pipeline  # noqa: F401
    import repro.service.server  # noqa: F401

    import corpus
    from measure import WORK, Ledger, code_digest

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return run_all(spec, args.seed, seconds)
    WORK.mkdir(exist_ok=True)
    ledger = Ledger(WORK / "ledger.json", code_digest())
    run = run_workload(args.workload, args.seed, seconds, args.trace == 1,
                       corpus.load_references(), ledger)
    report(run, spec)
    ledger.save()
    errors = run.errors + ledger.errors
    for warning in run.warnings:
        print(f"e2ebench: failed operation: {warning}", file=sys.stderr)
    for error in errors:
        print(f"e2ebench: ERROR: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result_metrics(run, spec),
    }))
    return 0 if not errors else 1


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload, traced, one process each (so that peak RSS, taken
    over a process's children, stays per workload)."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            stdout=subprocess.PIPE, text=True,
        )
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines), flush=True)
        results[workload] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: r["metrics"] for w, r in results.items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
