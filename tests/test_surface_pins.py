"""Pins of the CLI surface and of the service's cache identity.

The job key is a content address in the result cache: if a refactor
changes its bytes, every cached result silently becomes unreachable.
The CLI option table pins, per subcommand, every option string and its
default, so moving declarations into shared parsers changes nothing a
user can type.
"""

from __future__ import annotations

import argparse

from repro.cli import build_parser
from repro.gen.benchmarks import c17
from repro.service.hashing import canonical_job_key


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
