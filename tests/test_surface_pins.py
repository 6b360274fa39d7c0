"""Pins of the CLI surface, the service's cache identity and the
stats schemas.

The job key is a content address in the result cache: if a refactor
changes its bytes, every cached result silently becomes unreachable.
The CLI option table pins, per subcommand, every option string and its
default, so moving declarations into shared parsers changes nothing a
user can type.  The stats schemas pin the key paths and value types of
every stats document a consumer parses (``--bench-json``, ``/healthz``,
the service's result document), so a change to how the counters are
declared cannot drop, rename or retype a key.
"""

from __future__ import annotations

import argparse
import json

from repro.atpg.options import AtpgOptions
from repro.atpg.parallel import ParallelAtpgEngine
from repro.cli import build_parser, main
from repro.gen.benchmarks import C17_BENCH, c17
from repro.service.hashing import canonical_job_key
from repro.service.runner import result_document
from repro.service.server import AtpgService, ServiceConfig


#: canonical_job_key(c17, overrides) for the service defaults and two
#: override sets.
GOLDEN_JOB_KEYS = (
    (None, "5e8ba0aeba47480333b89fd4dbb673fd298c9f798af692459e6736e40e0bbe31"),
    (
        {"solver_mode": "incremental"},
        "f39fd4b291fc81d50adaab721e095e034a35ff1663f5fe707f56fcd19dbbc4d9",
    ),
    (
        {"max_conflicts": 5000},
        "cf7122b59c26b2f672a41219aa3c3e07d1749b943026ab2219a7c3d748ed2c01",
    ),
)


def test_golden_job_keys():
    network = c17()
    for overrides, key in GOLDEN_JOB_KEYS:
        assert canonical_job_key(network, overrides) == key, overrides


#: subcommand -> {option strings (or positional dest): default}.
CLI_OPTIONS = {
    "example": {},
    "fig1": {
        "--suite": None,
        "--solver": 'cdcl',
        "--max-faults": None,
        "--plot": False,
    },
    "fig8": {
        "--suite": None,
        "--max-faults": 60,
        "--seed": 0,
        "--workers": 1,
        "--deadline": None,
        "--plot": False,
    },
    "width-study": {
        "netlist": None,
        "--suite-name": 'mcnc',
        "--circuit": None,
        "--decompose": False,
        "--seed": 0,
        "--max-faults": 60,
        "--no-cap": False,
        "--workers": 1,
        "--mla": 'cold',
        "--bounds": False,
        "--shard-timeout": None,
        "--deadline": None,
        "--bench-json": None,
        "--no-validate": False,
    },
    "gen-study": {
        "--sizes": None,
        "--max-faults": 25,
        "--seed": 0,
    },
    "bdd-compare": {},
    "phase-transition": {
        "--local-levels": None,
        "--global-levels": None,
        "--sizes": None,
        "--max-faults": 8,
    },
    "ablations": {},
    "width-effort": {
        "--suite-name": 'mcnc',
        "--circuit": None,
        "--max-faults": 30,
    },
    "suite-table": {
        "--suite": None,
        "--max-faults": None,
    },
    "atpg": {
        "netlist": None,
        "--solver": 'cdcl',
        "--solver-mode": 'incremental',
        "--no-dropping": False,
        "--decompose": False,
        "--compact": False,
        "--workers": 1,
        "--order": 'auto',
        "--budget-policy": 'fixed',
        "--hardness-model": None,
        "--block-size": 64,
        "--bench-json": None,
        "--deadline": None,
        "--shard-timeout": None,
        "--checkpoint": None,
        "--resume": None,
        "--no-validate": False,
        "--certify": 'off',
        "--max-conflicts-per-fault": 100000,
        "--mem-budget-mb": None,
        "--share-learned": 'cone',
    },
    "profile": {
        "netlist": None,
        "--decompose": False,
    },
    "cutwidth": {
        "netlist": None,
        "--decompose": False,
        "--seed": 0,
    },
    "serve": {
        "--data-dir": 'atpg-service-data',
        "--host": '127.0.0.1',
        "--port": 8321,
        "--max-concurrent-jobs": 1,
        "--workers": 1,
        "--queue-limit": 64,
        "--queue-soft-limit": 16,
        "--degraded-max-conflicts": 4000,
        "--retry-after": 5.0,
        "--cache-max-mb": None,
        "--drain-timeout": 10.0,
        "--node-id": None,
        "--lease-ttl": 10.0,
        "--scan-interval": 1.0,
        "--tenant-max-conflicts": None,
        "--tenant-max-deadline": None,
        "--tenant-max-queued": None,
    },
}


def _option_table(parser: argparse.ArgumentParser) -> dict:
    sub = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    table = {}
    for name, command in sub.choices.items():
        table[name] = {
            "/".join(action.option_strings) or action.dest: action.default
            for action in command._actions
            if not isinstance(action, argparse._HelpAction)
        }
    return table


def test_cli_option_strings_and_defaults_pinned():
    assert _option_table(build_parser()) == CLI_OPTIONS


# ----------------------------------------------------------------------
# stats schemas
# ----------------------------------------------------------------------
def _schema(value, prefix: str = "") -> dict[str, str]:
    """Key path -> value type name of a JSON document; ``[]`` marks a
    list element, and empty containers are leaves."""
    if isinstance(value, dict) and value:
        out: dict[str, str] = {}
        for key, item in value.items():
            out.update(_schema(item, f"{prefix}.{key}" if prefix else key))
        return out
    if isinstance(value, list) and value:
        out = {}
        for item in value:
            out.update(_schema(item, prefix + "[]"))
        return out
    return {prefix: type(value).__name__}


_HEALTH_SCHEMA = {
    "retries": "int",
    "backoff_delays": "list",
    "timed_out_shards": "int",
    "crashed_shards": "int",
    "shard_splits": "int",
    "degraded": "bool",
    "deadline_hit": "bool",
    "abort_reasons": "dict",
    "certified": "int",
    "uncertified": "int",
    "disagreements": "int",
    "escalations": "int",
}

#: ``EngineStats.as_dict()`` of a c17 run.
ENGINE_STATS_SCHEMA = {
    "stage_times.build": "float",
    "stage_times.encode": "float",
    "stage_times.solve": "float",
    "stage_times.fsim": "float",
    "wall_time": "float",
    "sat_calls": "int",
    "cache_hits": "int",
    "cache_misses": "int",
    "cache_hit_rate": "float",
    "good_sims": "int",
    "cone_sims": "int",
    "workers": "int",
    "shards": "int",
    "replay_solves": "int",
    "propagations": "int",
    "decisions": "int",
    "conflicts": "int",
    "shared_promoted": "int",
    "shared_injected": "int",
    "shared_active_solves": "int",
    "shared_hit_rate": "float",
    "budget_escalations": "int",
    "hard_routed": "int",
    **{f"health.{key}": kind for key, kind in _HEALTH_SCHEMA.items()},
    "propagations_per_sec": "float",
    "decisions_per_sec": "float",
    "conflicts_per_sec": "float",
}

#: ``repro width-study <c17> --bench-json``.
WIDTH_BENCH_SCHEMA = {
    "circuit": "str",
    "mode": "str",
    "seed": "int",
    "n_faults": "int",
    "n_samples": "int",
    "n_unobservable": "int",
    "n_skipped": "int",
    "max_cutwidth": "int",
    "stats.stage_times.signature": "float",
    "stats.stage_times.cone": "float",
    "stats.stage_times.arrange": "float",
    "stats.stage_times.merge": "float",
    "stats.wall_time": "float",
    "stats.sub_cache_hits": "int",
    "stats.sub_cache_misses": "int",
    "stats.cache_hit_rate": "float",
    "stats.cone_cache_hits": "int",
    "stats.cone_cache_misses": "int",
    "stats.warm_starts": "int",
    "stats.cold_runs": "int",
    "stats.workers": "int",
    "stats.shards": "int",
    **{f"stats.health.{key}": kind for key, kind in _HEALTH_SCHEMA.items()},
    "faults_per_sec": "float",
}

#: ``AtpgService.healthz()`` of a fresh service at default settings.
HEALTHZ_SCHEMA = {
    "state": "str",
    "node_id": "str",
    "queue_depth": "int",
    "running": "int",
    "held_leases": "list",
    "lease_ttl_s": "float",
    "uptime_s": "float",
    "totals.submitted": "int",
    "totals.deduped": "int",
    "totals.cache_hits": "int",
    "totals.refused": "int",
    "totals.degraded_admissions": "int",
    "totals.completed": "int",
    "totals.failed": "int",
    "totals.recovered": "int",
    "totals.runner_crashes": "int",
    "totals.solver_sat_calls": "int",
    "totals.lease_steals": "int",
    "totals.lease_lost": "int",
    "totals.adoption_exhausted": "int",
    "totals.storage_errors": "int",
    "cache.hits": "int",
    "cache.misses": "int",
    "cache.evictions": "int",
    "cache.size_evictions": "int",
    "cache.write_errors": "int",
    "cache.max_bytes": "NoneType",
    "cache.current_bytes": "int",
}


def _bench_json(tmp_path, command: str, *options: str) -> dict:
    """``repro <command> <c17> <options> --bench-json``'s document."""
    netlist = tmp_path / "c17.bench"
    netlist.write_text(C17_BENCH)
    out = tmp_path / "bench.json"
    argv = [command, str(netlist), *options, "--bench-json", str(out)]
    assert main(argv) == 0
    return json.loads(out.read_text())


def test_atpg_bench_json_stats_schema(tmp_path, capsys):
    payload = _bench_json(tmp_path, "atpg")
    assert _schema(payload["stats"]) == ENGINE_STATS_SCHEMA
    assert "worker_stats" not in payload


def test_parallel_atpg_bench_json_stats_schema(tmp_path, capsys):
    payload = _bench_json(tmp_path, "atpg", "--workers", "2")
    assert _schema(payload["stats"]) == ENGINE_STATS_SCHEMA
    assert _schema(payload["worker_stats"]) == {
        f"[].{path}": kind for path, kind in ENGINE_STATS_SCHEMA.items()
    }


def test_width_study_bench_json_schema(tmp_path, capsys):
    assert _schema(_bench_json(tmp_path, "width-study")) == WIDTH_BENCH_SCHEMA


def test_healthz_schema(tmp_path):
    service = AtpgService(ServiceConfig(data_dir=tmp_path))
    assert _schema(service.healthz()) == HEALTHZ_SCHEMA


def test_result_document_stats_schema():
    options = AtpgOptions(solver_mode="fresh", certify="witness")
    summary = ParallelAtpgEngine(c17(), options).run()
    meta = {"id": "job", "job_key": "k", "circuit_hash": "h", "options": {}}
    assert _schema(result_document(meta, summary)["stats"]) == (
        ENGINE_STATS_SCHEMA
    )
