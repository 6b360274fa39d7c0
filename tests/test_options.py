"""The one ATPG configuration: ``AtpgOptions`` validation, its job-key
projection, the CLI and service agreeing on it, the journal refusing a
resume under other options, and the shared drop-or-solve loop giving
sequential and parallel runs the same records under a deadline."""

from __future__ import annotations

import json

import pytest

from repro.atpg.checkpoint import CheckpointError
from repro.atpg.engine import AtpgEngine, FaultStatus, run_atpg
from repro.atpg.options import AtpgOptions
from repro.atpg.parallel import ParallelAtpgEngine
from repro.cli import _atpg_options, build_parser, main
from repro.gen.benchmarks import C17_BENCH, c17
from repro.service.hashing import canonical_options
from tests.conftest import make_random_network


class TestAtpgOptions:
    @pytest.mark.parametrize(
        "bad",
        [
            {"share_learned": "all"},
            {"budget_policy": "lucky"},
            {"max_conflicts": -1},
            {"drop_block_size": 0},
            {"deadline": float("nan")},
            {"mem_budget_mb": 0.0},
            {"shard_timeout": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            AtpgOptions(**bad)

    def test_service_validates_submitted_values(self):
        with pytest.raises(ValueError):
            canonical_options({"solver_mode": "warm"})

    def test_engine_keyword_shorthand(self):
        fresh = AtpgOptions(solver_mode="fresh")
        engine = AtpgEngine(c17(), fresh, certify="full")
        expected = AtpgOptions(solver_mode="fresh", certify="full")
        assert engine.options == expected


def test_cli_fresh_witness_equals_service_defaults():
    """``repro atpg --solver-mode fresh --certify witness`` asks for
    byte-for-byte the records a default service job computes."""
    args = build_parser().parse_args(
        ["atpg", "c17.bench", "--solver-mode", "fresh", "--certify", "witness"]
    )
    cli = json.dumps(_atpg_options(args).result_fields(), sort_keys=True)
    service = json.dumps(canonical_options(None), sort_keys=True)
    assert cli == service


def test_cli_defaults_are_option_defaults():
    args = build_parser().parse_args(["atpg", "c17.bench"])
    assert _atpg_options(args) == AtpgOptions()


class TestResumeUnderOtherOptions:
    """A journal settled under one option set must not be resumed under
    another: c17 under ``max_conflicts=0`` aborts 7 faults, and resuming
    that journal with defaults used to keep all 7 aborts (0 SAT calls,
    coverage 9/16) where an uninterrupted run reaches 16/16."""

    def _starved_journal(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        starved = ParallelAtpgEngine(c17(), AtpgOptions(max_conflicts=0)).run(
            checkpoint_to=journal
        )
        assert len(starved.by_status(FaultStatus.ABORTED)) == 7
        return journal

    def test_resume_with_other_options_refused(self, tmp_path):
        journal = self._starved_journal(tmp_path)
        with pytest.raises(CheckpointError, match="options"):
            ParallelAtpgEngine(c17()).run(resume_from=journal)

    def test_resume_with_same_options_keeps_records(self, tmp_path):
        journal = self._starved_journal(tmp_path)
        resumed = run_atpg(
            c17(), AtpgOptions(max_conflicts=0), resume_from=journal
        )
        assert len(resumed.by_status(FaultStatus.ABORTED)) == 7
        assert resumed.stats.sat_calls == 0

    def test_cli_resume_mismatch_is_a_clear_error(self, tmp_path, capsys):
        netlist = tmp_path / "c17.bench"
        netlist.write_text(C17_BENCH)
        journal = self._starved_journal(tmp_path)
        code = main(["atpg", str(netlist), "--resume", str(journal)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot resume:")
        assert "Traceback" not in err


def test_deadline_records_match_between_sequential_and_parallel(monkeypatch):
    """Past the deadline both engines drop-check before aborting, so a
    run whose deadline expires after K solves records the same faults
    DROPPED and ABORTED either way (fresh mode)."""
    solves_before_deadline = 3
    solves = []
    generate_test = AtpgEngine.generate_test

    def counting_generate_test(self, fault, stats=None):
        solves.append(fault)
        return generate_test(self, fault, stats)

    monkeypatch.setattr(AtpgEngine, "generate_test", counting_generate_test)
    monkeypatch.setattr(
        AtpgEngine,
        "_past_deadline",
        lambda self: len(solves) >= solves_before_deadline,
    )
    network = make_random_network(5, num_inputs=5, num_gates=20)
    options = AtpgOptions(solver_mode="fresh")

    sequential = AtpgEngine(network, options).run()
    assert len(solves) == solves_before_deadline
    solves.clear()
    parallel = ParallelAtpgEngine(network, options).run()

    def essence(summary):
        return [
            (r.fault, r.status, r.test, r.abort_reason)
            for r in summary.records
        ]

    assert essence(sequential) == essence(parallel)
    statuses = [r.status for r in sequential.records]
    first_abort = statuses.index(FaultStatus.ABORTED)
    assert FaultStatus.DROPPED in statuses[first_abort:]
