"""Unit tests for the service subsystem (hashing, cache, jobs, budgets,
admission) — everything in-process; the subprocess chaos scenarios live
in test_chaos.py."""

from __future__ import annotations

import asyncio
import copy
import json
import multiprocessing

import pytest

from repro.gen.benchmarks import C17_BENCH, c17
from repro.io.bench import dumps_bench, loads_bench
from repro.service.budgets import (
    AdmissionController,
    BackpressureConfig,
    TenantPolicy,
)
from repro.service.hashing import (
    RESULT_OPTIONS,
    canonical_circuit_hash,
    canonical_job_key,
    canonical_options,
)
from repro.service.jobs import (
    MAX_ADOPTIONS,
    JobState,
    JobStore,
    job_id_for_key,
)
from repro.service.runner import execute_job, result_document
from repro.service.server import AtpgService, ServiceConfig
from repro.service.store import ResultStore, cacheable, verdict_digest


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------
class TestHashing:
    def test_hash_invariant_under_presentation(self):
        net = c17()
        reordered = "\n".join(
            sorted(C17_BENCH.strip().splitlines(), reverse=True)
        )
        assert canonical_circuit_hash(net) == canonical_circuit_hash(
            loads_bench(reordered, name="other-name")
        )

    def test_hash_sensitive_to_structure(self):
        net = c17()
        text = C17_BENCH.replace("NAND(1, 3)", "NAND(2, 3)")
        assert canonical_circuit_hash(net) != canonical_circuit_hash(
            loads_bench(text)
        )

    def test_options_enter_job_key(self):
        net = c17()
        base = canonical_job_key(net, canonical_options(None))
        degraded = canonical_job_key(
            net, canonical_options({"max_conflicts": 4_000})
        )
        assert base != degraded

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown job option"):
            canonical_options({"frobnicate": True})

    def test_defaults_are_service_defaults(self):
        opts = canonical_options(None)
        assert opts == dict(RESULT_OPTIONS)
        assert opts["solver_mode"] == "fresh"
        assert opts["certify"] == "witness"


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def completed_doc():
    """A real completed c17 result document (computed once)."""
    import tempfile
    from pathlib import Path

    network = c17()
    root = Path(tempfile.mkdtemp(prefix="svc-store-"))
    store = JobStore(root)
    options = canonical_options(None)
    key = canonical_job_key(network, options)
    job_id = job_id_for_key(key)
    store.create(
        job_id,
        job_key=key,
        circuit_hash=canonical_circuit_hash(network),
        circuit_name=network.name,
        netlist_text=dumps_bench(network),
        options=options,
        tenant="default",
    )
    doc = execute_job(store, ResultStore(root / "cas"), job_id)
    return {"network": network, "key": key, "doc": doc}


class TestResultStore:
    def test_put_get_roundtrip_serves_verified(self, completed_doc, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put(completed_doc["key"], completed_doc["doc"])
        served = store.get(completed_doc["key"], completed_doc["network"])
        assert served is not None
        assert served["verdict_digest"] == completed_doc["doc"]["verdict_digest"]
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 0
        assert stats["evictions"] == 0
        assert stats["size_evictions"] == 0
        assert stats["max_bytes"] is None
        assert stats["current_bytes"] > 0

    def test_miss_on_absent_key(self, completed_doc, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("ab" * 32, completed_doc["network"]) is None
        assert store.stats()["misses"] == 1

    def test_tampered_verdict_evicted(self, completed_doc, tmp_path):
        """Flipping one cached test-vector bit must fail witness replay
        (after re-stamping the digest, so only the replay can catch it)."""
        from repro.atpg.certify import witness_ok
        from repro.atpg.faults import Fault

        store = ResultStore(tmp_path)
        doc = copy.deepcopy(completed_doc["doc"])
        # Find a single-bit corruption that genuinely defeats detection
        # (not every flip does — patterns over-specify some inputs).
        network = completed_doc["network"]
        victim = None
        for record in doc["records"]:
            if record["status"] != "tested" or not record["test"]:
                continue
            fault = Fault(record["net"], record["value"])
            for net in record["test"]:
                flipped = dict(record["test"], **{net: record["test"][net] ^ 1})
                if not witness_ok(network, fault, flipped):
                    record["test"] = flipped
                    victim = record
                    break
            if victim:
                break
        assert victim is not None, "no single-bit corruption broke detection"
        doc["verdict_digest"] = verdict_digest(doc["records"])
        store.put(completed_doc["key"], doc)
        assert store.get(completed_doc["key"], completed_doc["network"]) is None
        assert store.stats()["evictions"] == 1
        assert not store._path(completed_doc["key"]).exists()

    def test_digest_mismatch_evicted(self, completed_doc, tmp_path):
        store = ResultStore(tmp_path)
        store.put(completed_doc["key"], completed_doc["doc"])
        path = store._path(completed_doc["key"])
        raw = json.loads(path.read_text())
        raw["verdict_digest"] = "0" * 64
        path.write_text(json.dumps(raw))
        assert store.get(completed_doc["key"], completed_doc["network"]) is None
        assert store.stats()["evictions"] == 1

    def test_orchestration_aborts_not_cacheable(self, completed_doc, tmp_path):
        doc = copy.deepcopy(completed_doc["doc"])
        doc["records"][0].update(
            status="aborted", abort_reason="deadline_exceeded", test=None
        )
        assert not cacheable(doc)
        store = ResultStore(tmp_path)
        assert not store.put(completed_doc["key"], doc)
        assert not store._path(completed_doc["key"]).exists()

    def test_budget_aborts_are_cacheable(self, completed_doc):
        doc = copy.deepcopy(completed_doc["doc"])
        doc["records"][0].update(
            status="aborted", abort_reason="budget_exhausted", test=None,
            certified=None,
        )
        assert cacheable(doc)

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store._path("../../etc/passwd")


class TestSizeBoundedEviction:
    """LRU eviction of the CAS when ``max_bytes`` is set."""

    KEYS = ["aa", "bb", "cc"]

    def _filled_store(self, completed_doc, tmp_path, max_bytes):
        """A store holding all KEYS with strictly increasing mtimes.

        Filled unbounded so no eviction fires during setup, then
        re-opened with the budget (the directory is the only state;
        counters are per-process telemetry starting at zero).
        """
        import os

        unbounded = ResultStore(tmp_path)
        for index, key in enumerate(self.KEYS):
            assert unbounded.put(key, completed_doc["doc"])
            # Coarse-mtime filesystems would otherwise tie; pin a
            # deterministic recency order: aa oldest, cc newest.
            os.utime(unbounded._path(key), (1000.0 + index, 1000.0 + index))
        return ResultStore(tmp_path, max_bytes=max_bytes)

    def _doc_size(self, completed_doc, tmp_path):
        probe = ResultStore(tmp_path / "probe")
        probe.put("aa", completed_doc["doc"])
        return probe._path("aa").stat().st_size

    def test_rejects_non_positive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=-1)

    def test_unbounded_store_never_size_evicts(self, completed_doc, tmp_path):
        store = ResultStore(tmp_path)
        for key in self.KEYS:
            store.put(key, completed_doc["doc"])
        assert store.size_evictions == 0
        assert all(store._path(k).exists() for k in self.KEYS)

    def test_oldest_evicted_first(self, completed_doc, tmp_path):
        size = self._doc_size(completed_doc, tmp_path)
        store = self._filled_store(completed_doc, tmp_path, max_bytes=2 * size)
        # Budget fits two docs; a fourth promotion must evict aa (oldest).
        assert store.put("dd", completed_doc["doc"])
        assert not store._path("aa").exists()
        assert not store._path("bb").exists()
        assert store._path("cc").exists()
        assert store._path("dd").exists()
        assert store.size_evictions == 2
        assert store.current_bytes() <= 2 * size

    def test_just_written_doc_survives_tiny_budget(
        self, completed_doc, tmp_path
    ):
        # A budget smaller than one document: the promotion still lands
        # (keep= is exempt) and everything else is reclaimed.
        store = self._filled_store(completed_doc, tmp_path, max_bytes=1)
        assert store.put("dd", completed_doc["doc"])
        assert store._path("dd").exists()
        for key in self.KEYS:
            assert not store._path(key).exists()

    def test_served_read_refreshes_recency(self, completed_doc, tmp_path):
        size = self._doc_size(completed_doc, tmp_path)
        store = self._filled_store(completed_doc, tmp_path, max_bytes=2 * size)
        # Serving aa must move it to the MRU end: the next promotion
        # then reclaims bb (now the oldest) instead.
        assert store.get("aa", completed_doc["network"]) is not None
        assert store.put("dd", completed_doc["doc"])
        assert store._path("aa").exists()
        assert not store._path("bb").exists()
        assert not store._path("cc").exists()

    def test_stats_reflect_size_eviction(self, completed_doc, tmp_path):
        size = self._doc_size(completed_doc, tmp_path)
        store = self._filled_store(completed_doc, tmp_path, max_bytes=2 * size)
        assert store.stats()["current_bytes"] == 3 * size
        assert store.put("dd", completed_doc["doc"])
        stats = store.stats()
        assert stats["max_bytes"] == 2 * size
        assert stats["size_evictions"] == 2  # aa and bb reclaimed
        assert stats["evictions"] == 0  # no verification failures
        assert stats["current_bytes"] <= 2 * size
        # An evicted document reads as a plain miss, never an error.
        assert store.get("aa", completed_doc["network"]) is None
        assert store.stats()["misses"] == 1

    def test_service_config_wires_cache_budget(self, tmp_path):
        service = AtpgService(
            ServiceConfig(data_dir=tmp_path, cache_max_mb=0.25)
        )
        assert service.results.max_bytes == int(0.25 * 1024 * 1024)
        assert service.healthz()["cache"]["max_bytes"] == int(
            0.25 * 1024 * 1024
        )


# ----------------------------------------------------------------------
# job store lifecycle + recovery
# ----------------------------------------------------------------------
def _make_job(root, network=None) -> tuple[JobStore, str]:
    network = network or c17()
    store = JobStore(root)
    options = canonical_options(None)
    key = canonical_job_key(network, options)
    job_id = job_id_for_key(key)
    store.create(
        job_id,
        job_key=key,
        circuit_hash=canonical_circuit_hash(network),
        circuit_name=network.name,
        netlist_text=dumps_bench(network),
        options=options,
        tenant="default",
    )
    return store, job_id


class TestJobStore:
    def test_running_jobs_readopted_queued_jobs_kept(self, tmp_path):
        store, job_id = _make_job(tmp_path)
        store.set_state(job_id, JobState.RUNNING, runner_pid=None)
        adopted = store.recover()
        assert [m["id"] for m in adopted] == [job_id]
        meta = store.load_meta(job_id)
        assert meta["state"] == JobState.QUEUED.value
        assert meta["adoptions"] == 1

    def test_terminal_jobs_not_readopted(self, tmp_path):
        store, job_id = _make_job(tmp_path)
        store.set_state(job_id, JobState.DONE)
        assert store.recover() == []

    def test_adoption_budget_exhaustion_fails_job(self, tmp_path):
        store, job_id = _make_job(tmp_path)
        store.set_state(
            job_id, JobState.RUNNING, adoptions=MAX_ADOPTIONS, runner_pid=None
        )
        assert store.recover() == []
        meta = store.load_meta(job_id)
        assert meta["state"] == JobState.FAILED.value
        assert "re-adoptions" in meta["error"]

    def test_orphan_runner_killed_on_recovery(self, tmp_path):
        import os
        import signal
        import subprocess
        import time

        orphan = subprocess.Popen(["sleep", "60"])
        store, job_id = _make_job(tmp_path)
        store.set_state(job_id, JobState.RUNNING, runner_pid=orphan.pid)
        store.recover()
        deadline = time.monotonic() + 5
        while orphan.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert orphan.poll() == -signal.SIGKILL

    def test_malformed_job_id_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        for bad in ("", "../x", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.job_dir(bad)


# ----------------------------------------------------------------------
# admission ladder
# ----------------------------------------------------------------------
class TestAdmission:
    def _controller(self, **tenants):
        return AdmissionController(
            BackpressureConfig(
                hard_limit=4, soft_limit=2, degraded_max_conflicts=1_000
            ),
            tenant_policies=tenants,
        )

    def test_hard_limit_refuses_with_retry_after(self):
        adm = self._controller().admit(canonical_options(None), "t", 4, 0)
        assert not adm.accepted
        assert adm.reason == "queue_full"
        assert adm.retry_after_s == 5.0

    def test_tenant_quota_refuses(self):
        ctl = self._controller(t=TenantPolicy(max_queued=1))
        adm = ctl.admit(canonical_options(None), "t", 1, 1)
        assert not adm.accepted
        assert adm.reason == "tenant_quota"

    def test_soft_limit_degrades_budget(self):
        adm = self._controller().admit(canonical_options(None), "t", 2, 0)
        assert adm.accepted and adm.degraded
        assert adm.options["max_conflicts"] == 1_000

    def test_below_soft_limit_untouched(self):
        opts = canonical_options(None)
        adm = self._controller().admit(opts, "t", 1, 0)
        assert adm.accepted and not adm.degraded
        assert adm.options == opts

    def test_tenant_conflict_clamp(self):
        ctl = self._controller(t=TenantPolicy(max_conflicts=500))
        adm = ctl.admit(canonical_options(None), "t", 0, 0)
        assert adm.options["max_conflicts"] == 500

    def test_deadline_clamp(self):
        ctl = self._controller(t=TenantPolicy(max_deadline_s=10.0))
        assert ctl.clamp_deadline(None, "t") == 10.0
        assert ctl.clamp_deadline(3.0, "t") == 3.0
        assert ctl.clamp_deadline(60.0, "t") == 10.0
        assert ctl.clamp_deadline(60.0, "other") == 60.0


# ----------------------------------------------------------------------
# service front-door behaviour (in-process, no HTTP)
# ----------------------------------------------------------------------
class TestServiceSubmit:
    def _service(self, tmp_path, **kwargs) -> AtpgService:
        return AtpgService(ServiceConfig(data_dir=tmp_path, **kwargs))

    def test_submit_queues_and_dedupes(self, tmp_path):
        svc = self._service(tmp_path)
        status, doc = svc.submit(C17_BENCH)
        assert status == 202
        assert doc["job"]["state"] == JobState.QUEUED.value
        status, doc2 = svc.submit(C17_BENCH)
        assert status == 200 and doc2["deduped"]
        assert doc2["job"]["id"] == doc["job"]["id"]
        assert svc.totals.deduped == 1

    def test_invalid_netlist_400(self, tmp_path):
        status, doc = self._service(tmp_path).submit("this is not bench")
        assert status == 400
        assert "invalid netlist" in doc["error"]

    def test_unknown_option_400(self, tmp_path):
        status, doc = self._service(tmp_path).submit(
            C17_BENCH, options={"nope": 1}
        )
        assert status == 400

    def test_draining_503(self, tmp_path):
        svc = self._service(tmp_path)
        svc.draining = True
        assert svc.submit(C17_BENCH)[0] == 503

    def test_queue_full_429(self, tmp_path):
        svc = self._service(tmp_path)
        svc.admission.backpressure = BackpressureConfig(
            hard_limit=1, soft_limit=1
        )
        assert svc.submit(C17_BENCH)[0] == 202
        other = C17_BENCH.replace("NAND(1, 3)", "NAND(2, 3)")
        status, doc = svc.submit(other)
        assert status == 429
        assert doc["retry_after_s"] == 5.0
        assert svc.totals.refused == 1

    def test_degraded_admission_distinct_identity(self, tmp_path):
        svc = self._service(tmp_path)
        svc.admission.backpressure = BackpressureConfig(
            hard_limit=8, soft_limit=1, degraded_max_conflicts=1_000
        )
        assert svc.submit(C17_BENCH)[0] == 202
        other = C17_BENCH.replace("NAND(1, 3)", "NAND(2, 3)")
        status, doc = svc.submit(other)
        assert status == 202
        assert doc["job"]["degraded"]
        assert doc["job"]["options"]["max_conflicts"] == 1_000
        # The same netlist at full budget is a different job identity.
        full = canonical_job_key(
            loads_bench(other), canonical_options(None)
        )
        assert doc["job"]["job_key"] != full
        assert svc.totals.degraded_admissions == 1

    def test_cache_hit_creates_done_job(self, tmp_path, completed_doc):
        svc = self._service(tmp_path)
        svc.results.put(completed_doc["key"], completed_doc["doc"])
        status, doc = svc.submit(dumps_bench(completed_doc["network"]))
        assert status == 200 and doc["cache_hit"]
        meta = doc["job"]
        assert meta["state"] == JobState.DONE.value
        assert meta["cache_hit"]
        served = svc.store.load_result(meta["id"])
        assert served["verdict_digest"] == completed_doc["doc"]["verdict_digest"]
        assert svc.totals.cache_hits == 1
        assert svc.totals.solver_sat_calls == 0

    def test_recover_requeues(self, tmp_path):
        svc = self._service(tmp_path)
        svc.submit(C17_BENCH)
        job_id = svc.queue[0]
        svc.store.set_state(job_id, JobState.RUNNING, runner_pid=None)
        svc2 = self._service(tmp_path)
        assert svc2.recover() == 1
        assert svc2.queue == [job_id]
        assert svc2.totals.recovered == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="service runners fork",
    )
    def test_healthz_counts_an_exited_runner(self, tmp_path):
        """/healthz settles a runner that has exited before the
        runner's monitor task next polls it, and the monitor then
        counts nothing twice."""
        svc = self._service(tmp_path)
        status, doc = svc.submit(C17_BENCH)
        assert status == 202
        job_id = doc["job"]["id"]

        async def scenario() -> None:
            svc.queue.remove(job_id)
            svc._start_runner(job_id)
            process = svc.running[job_id]
            process.join()  # the monitor task has not run since
            assert process.exitcode == 0
            assert svc.job_view(job_id)["job"]["state"] == "done"
            health = svc.healthz()
            assert health["running"] == 0
            assert health["totals"]["completed"] == 1
            sat_calls = svc.store.load_result(job_id)["stats"]["sat_calls"]
            assert health["totals"]["solver_sat_calls"] == sat_calls
            assert health["held_leases"] == []
            await asyncio.sleep(0.2)  # the monitor task sees the exit
            assert svc.healthz()["totals"]["completed"] == 1
            assert svc.totals.solver_sat_calls == sat_calls

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# result document shape
# ----------------------------------------------------------------------
class TestResultDocument:
    def test_document_digest_matches_records(self, completed_doc):
        doc = completed_doc["doc"]
        assert doc["verdict_digest"] == verdict_digest(doc["records"])
        assert doc["faults"] == len(doc["records"])
        assert doc["fault_coverage"] == 1.0
        assert doc["stats"]["sat_calls"] > 0
