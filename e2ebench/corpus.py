"""Seeded benchmark inputs and the committed reference answers.

Every netlist the benchmark feeds the program comes from a fixed,
named pool, so one committed reference covers every seed:

* ``SMALL_SUITE`` / ``srand<i>``: small suite and small random circuits,
  where a ``repro atpg`` process is ~90% interpreter start-up;
* ``bench520_s7``: the 520-gate random bench circuit of the perf smoke;
* ``rtail8`` (hard tail, mostly solve) and ``rand_iscas_a`` (redundancy
  heavy, run with ``--certify full``);
* the MCNC suite for the width study: a fixed core (the dearer
  circuits) plus one circuit of each matched pair of similar cost, so
  that the draw moves no throughput or latency figure by much.

The seed picks members of these pools and their order; it never
invents a circuit that has no reference.  ``references.json`` holds,
per circuit, the sha256 of its ``.bench`` text (a changed generator is
a changed benchmark and fails loudly) and the verdict classes recorded
once with ``--certify full`` (every UNTESTABLE count DRUP- or
agreement-certified), plus cold-mode width summaries.

Re-record (only when the pools change)::

    PYTHONPATH=src python3 e2ebench/corpus.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: Small suite circuits for ``atpg-cli`` (engine time <= ~0.2s each).
SMALL_SUITE = (
    ("iscas", "c17"),
    ("mcnc", "dec4"),
    ("mcnc", "parity16"),
    ("mcnc", "dec5"),
    ("mcnc", "mux4"),
    ("mcnc", "cmp8"),
    ("mcnc", "alu4"),
    ("mcnc", "rca8"),
    ("mcnc", "cla8"),
    ("iscas", "parity24"),
    ("mcnc", "mult4"),
    ("mcnc", "rand_mcnc_a"),
    ("mcnc", "mux5"),
    ("iscas", "alu8"),
)
#: Pool indices of the small random circuits each workload draws from.
CLI_RANDOM = range(0, 16)
SERVICE_COMPUTED = range(100, 356)
SERVICE_CACHED = range(400, 448)
#: Width study: nine circuits a pass, none dearer than ~1.5 s, so a run
#: makes four or five passes and every latency band has a sample in each
#: pass.  Fixed: ``mux4`` first (its result line carries start-up, ~0.8 s:
#: the fifth of nine, where the median lands), ``cla8`` and ``mult4``
#: above it, and ``rand_mcnc_b``/``rand_mcnc_f``, the two dearest (two of
#: nine, so the nearest-rank p90 lands inside their band whatever the pass
#: count).  The seed draws one circuit of each pair of similar cost and
#: faults/s, all below ``mux4``'s line, and the order.
WIDTH_FIXED = ("mux4", "rand_mcnc_b", "rand_mcnc_f", "cla8", "mult4")
WIDTH_PAIRS = (
    ("alu4", "dec5"),
    ("cmp8", "dec4"),
    ("mux5", "parity16"),
    ("rca8", "rand_mcnc_a"),
)
#: Options the ``atpg-cli`` corpus passes per circuit (default: none).
CLI_OPTIONS = {"rand_iscas_a": ("--certify", "full")}


def _suite_of(name: str) -> str | None:
    for suite, member in SMALL_SUITE:
        if member == name:
            return suite
    return None


def build(name: str):
    """The ``Network`` behind a pool name (imports the program)."""
    from repro.gen.benchmarks import load_circuit
    from repro.gen.random_circuits import RandomCircuitSpec, random_circuit

    if name.startswith("srand"):
        index = int(name[len("srand"):])
        rng = random.Random(index)
        # The service pools are smaller: a job is mostly service overhead.
        gates = rng.randint(30, 110) if index < 100 else rng.randint(12, 40)
        return random_circuit(
            RandomCircuitSpec(
                num_inputs=max(6, gates // 5),
                num_gates=gates,
                num_outputs=rng.randint(2, 6) if index < 100 else rng.randint(2, 4),
                locality=rng.uniform(0.45, 0.65),
                reconvergence=rng.uniform(0.12, 0.22),
                seed=50_000 + index,
            )
        )
    if name == "bench520_s7":
        return random_circuit(
            RandomCircuitSpec(num_inputs=26, num_gates=520, num_outputs=12, seed=7)
        )
    if name in ("rtail8", "rand_iscas_a"):
        return load_circuit("iscas", name)
    suite = _suite_of(name)
    if suite is None:
        raise KeyError(f"no pool circuit named {name!r}")
    return load_circuit(suite, name)


def netlist_text(name: str) -> str:
    from repro.io.bench import dumps_bench

    return dumps_bench(build(name))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atpg_pool() -> list[str]:
    names = [name for _, name in SMALL_SUITE]
    names += [f"srand{i}" for i in CLI_RANDOM]
    names += [f"srand{i}" for i in SERVICE_COMPUTED]
    names += [f"srand{i}" for i in SERVICE_CACHED]
    names += ["bench520_s7", "rtail8", "rand_iscas_a"]
    return names


def width_pool() -> list[str]:
    return list(WIDTH_FIXED) + [name for pair in WIDTH_PAIRS for name in pair]


# ----------------------------------------------------------------------
# Seeded draws
# ----------------------------------------------------------------------
def atpg_cli_corpus(seed: int) -> list[str]:
    """c17, 19 drawn small circuits, bench520_s7, rtail8, rand_iscas_a.

    The three large ones are always the top three process walls, so the
    nearest-rank p90 of the 23 walls is the smallest of them."""
    rng = random.Random(f"atpg-cli:{seed}")
    small = [name for _, name in SMALL_SUITE if name != "c17"]
    small += [f"srand{i}" for i in CLI_RANDOM]
    names = ["c17", *rng.sample(small, 19), "bench520_s7", "rtail8", "rand_iscas_a"]
    rng.shuffle(names)
    return names


def width_corpus(seed: int) -> list[str]:
    rng = random.Random(f"width-study:{seed}")
    rest = list(WIDTH_FIXED[1:]) + [rng.choice(pair) for pair in WIDTH_PAIRS]
    rng.shuffle(rest)
    return [WIDTH_FIXED[0], *rest]


#: One block of the service trace: 6 distinct computed netlists, 2 exact
#: resubmissions of recent ones, 2 reads of the pre-filled result cache.
#: Computed jobs are the majority, so the median job is a computed one
#: and not the edge between two latency bands.
SERVICE_BLOCK = ("computed",) * 6 + ("duplicate",) * 2 + ("cached",) * 2


def _stratified(rng: random.Random, pool, per_block: int, blocks: int) -> list[str]:
    """``per_block`` picks per block, one from each cost stratum (pool
    sorted by fault count), so every block carries about the same work
    whatever the seed."""
    faults = load_references()["atpg"]
    names = sorted((f"srand{i}" for i in pool), key=lambda n: (faults[n]["faults"], n))
    size = len(names) // per_block
    strata = [rng.sample(names[k * size:(k + 1) * size], blocks) for k in range(per_block)]
    picks = []
    for block in range(blocks):
        row = [stratum[block] for stratum in strata]
        rng.shuffle(row)
        picks += row
    return picks


def service_trace(seed: int, blocks: int) -> list[dict]:
    """``blocks`` shuffled blocks; a duplicate repeats one of the last
    few computed submissions before it."""
    rng = random.Random(f"service-mix:{seed}")
    per_block = SERVICE_BLOCK.count("computed"), SERVICE_BLOCK.count("cached")
    computed = _stratified(rng, SERVICE_COMPUTED, per_block[0], blocks)[::-1]
    cached = _stratified(rng, SERVICE_CACHED, per_block[1], blocks)[::-1]
    kinds: list[str] = []
    for _ in range(blocks):
        block = list(SERVICE_BLOCK)
        rng.shuffle(block)
        kinds += block
    # A resubmission needs an earlier original: lead with a computed one.
    first = kinds.index("computed")
    kinds.insert(0, kinds.pop(first))
    trace: list[dict] = []
    recent: list[str] = []
    for kind in kinds:
        if kind == "computed":
            name = computed.pop()
            recent = (recent + [name])[-4:]
        elif kind == "cached":
            name = cached.pop()
        else:
            name = rng.choice(recent)
        trace.append({"kind": kind, "name": name})
    return trace


def cache_pool(trace: list[dict]) -> list[str]:
    return [item["name"] for item in trace if item["kind"] == "cached"]


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def verdict_classes(status_counts: dict) -> dict:
    """Mode-independent classes: TESTED/DROPPED split moves with solver
    mode and order, ``detected`` does not."""
    return {
        "faults": sum(status_counts.values()),
        "detected": status_counts.get("tested", 0)
        + status_counts.get("dropped", 0),
        "untestable": status_counts.get("untestable", 0),
        "unobservable": status_counts.get("unobservable", 0),
        "aborted": status_counts.get("aborted", 0),
    }


def atpg_mismatches(reference: dict, status_counts: dict) -> list[str]:
    got = verdict_classes(status_counts)
    want = {key: reference[key] for key in got if key in reference}
    want["aborted"] = 0
    return [
        f"{key}: got {got[key]}, reference {want[key]}"
        for key in want
        if got[key] != want[key]
    ]


def width_mismatches(reference: dict, payload: dict) -> list[str]:
    got = {
        "faults": payload["n_faults"],
        "n_samples": payload["n_samples"],
        "n_unobservable": payload["n_unobservable"],
        "max_cutwidth": payload["max_cutwidth"],
    }
    return [
        f"{key}: got {got[key]}, reference {reference[key]}"
        for key in got
        if got[key] != reference[key]
    ]


def record() -> dict:
    """Recompute every reference with certification on (slow, ~minutes)."""
    from repro.atpg.engine import AtpgEngine
    from repro.core.width_pipeline import WidthAnalysisPipeline
    from repro.gen.benchmarks import load_circuit
    from repro.io.bench import loads_bench

    atpg = {}
    for name in atpg_pool():
        text = netlist_text(name)
        network = loads_bench(text, name=name)
        summary = AtpgEngine(network, certify="full").run()
        health = summary.stats.health
        classes = verdict_classes(summary.status_counts())
        if classes["aborted"] or health.uncertified or health.disagreements:
            raise SystemExit(f"{name}: uncertified reference {classes}")
        del classes["aborted"]
        atpg[name] = {"sha256": sha256(text), **classes}
        print(name, atpg[name], flush=True)
    width = {}
    for name in width_pool():
        report = WidthAnalysisPipeline(
            load_circuit("mcnc", name), seed=0, mode="cold"
        ).run()
        payload = report.as_dict()
        width[name] = {
            "faults": payload["n_faults"],
            "n_samples": payload["n_samples"],
            "n_unobservable": payload["n_unobservable"],
            "max_cutwidth": payload["max_cutwidth"],
        }
        print(name, width[name], flush=True)
    return {"atpg": atpg, "width": width}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python3 e2ebench/corpus.py --record")
    document = record()
    REFERENCES.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
