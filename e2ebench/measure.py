"""Shared plumbing: checkout paths, child environment, percentiles,
timed processes and the work-counter ledger."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (git-ignored): the
#: bytecode cache, the counter ledger and one directory per run.
WORK = ROOT / ".e2ebench"
PROCESS_TIMEOUT_S = 120.0


def child_env(run_dir: Path) -> dict:
    """Environment for program processes: the checkout's sources, bytecode
    cached under ``WORK`` (never next to the sources), temp files in the
    run directory, line-buffered output for timestamped reads."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONUNBUFFERED="1",
        TMPDIR=str(run_dir / "tmp"),
    )
    return env


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, percent: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percent``% of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, (percent * len(ordered) + 99) // 100)
    return float(ordered[rank - 1])


def samples_beyond(count: int, percent: int) -> int:
    """How many samples lie above the nearest-rank ``percent`` sample."""
    return count - max(1, (percent * count + 99) // 100)


def percentile_supported(count: int, percent: int) -> bool:
    """A percentile is reportable only with >= 10 samples beyond it."""
    return samples_beyond(count, percent) >= 10


def timed_run(argv: list[str], env: dict, cwd: Path) -> tuple[int, float, str, str]:
    """Run a process to completion: (exit code, wall seconds, out, err)."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, env=env, cwd=cwd, capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    return proc.returncode, time.perf_counter() - start, proc.stdout, proc.stderr


def code_digest() -> str:
    """sha256 over the program and benchmark sources: work counters are
    compared only between runs of identical code."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")) + [HERE / "references.json"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Ledger:
    """Deterministic work counters keyed by (code, input, options).

    The first run of a code version records each key; every later
    observation of the same key, in this run or any later run of the
    same code, must repeat it exactly.
    """

    def __init__(self, path: Path, digest: str) -> None:
        self.path = path
        self.digest = digest
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            document = {}
        self.entries: dict = document.get(digest, {})
        self.errors: list[str] = []

    def check(self, key: str, counters: dict) -> None:
        previous = self.entries.setdefault(key, counters)
        if previous != counters:
            self.errors.append(
                f"work counters for {key} changed without a code change: "
                f"{previous} then {counters}"
            )

    def save(self) -> None:
        temp = self.path.with_suffix(".tmp")
        temp.write_text(json.dumps({self.digest: self.entries}), encoding="utf-8")
        temp.replace(self.path)
