r"""The on-disk job store: crash-safe job lifecycle and re-adoption.

Every job lives in its own directory under ``<root>/jobs/<job_id>/``:

* ``job.json`` — the lifecycle document (state machine below), always
  replaced atomically so a crash never leaves a torn state;
* ``circuit.bench`` — the submitted netlist, exactly as received;
* ``journal.jsonl`` — the per-fault checkpoint journal the engine
  appends to as records settle (:mod:`repro.atpg.checkpoint`): the
  event stream's source of truth *and* the resume log;
* ``result.json`` — the final result document (atomic write).

State machine::

    QUEUED -> RUNNING -> DONE
       ^         |         \-> (terminal; also entered directly on a
       |         v              cache hit, with cache_hit=true)
       +---- (re-adopted) -> FAILED (terminal, attempts exhausted)

Crash recovery is the point of this layout: the job id doubles as the
directory name, the journal is flushed per record, and ``job.json`` is
atomic, so after a ``kill -9`` at *any* instant the store re-derives
the full queue by scanning directories.  ``RUNNING`` jobs are
re-adopted — their recorded runner pid is killed if still alive (the
orphan would otherwise race the re-adopted run for the journal), the
job goes back to ``QUEUED`` with ``adoptions + 1``, and the next run
resumes from the journal, re-dispatching only unsettled faults.

The job id is derived from the canonical job key
(:mod:`repro.service.hashing`), which is what makes submission dedupe
trivial: an identical submission maps onto the identical directory.

Multi-node fencing: when several nodes share the store, ownership of a
job is a lease (``lease.json`` next to ``job.json``, see
:mod:`repro.service.lease`).  Every ``job.json`` write by an owner
passes a :class:`~repro.service.lease.FenceGuard`; the store rejects
writes bearing a stale fencing token
(:class:`~repro.service.lease.StaleTokenError`), so a paused-then-
resumed zombie runner can never clobber the new owner's state.  The
last granted token is persisted in the meta (``fence_token``) and fed
back as the acquisition floor, keeping tokens monotonic even over a
destroyed lease file.
"""

from __future__ import annotations

import enum
import json
import os
import signal
import time
from pathlib import Path
from typing import Optional

from repro.io.atomic import atomic_write_json

JOB_SCHEMA_VERSION = 1

#: Re-adoptions of one job before the store stops trusting it (a job
#: that takes every runner down is the service-level poisoned shard).
MAX_ADOPTIONS = 3


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


def job_id_for_key(job_key: str) -> str:
    """Job id = prefixed truncation of the canonical job key."""
    return f"j{job_key[:24]}"


class JobStore:
    """Filesystem-backed job registry (see module docstring)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise ValueError(f"malformed job id {job_id!r}")
        return self.jobs_dir / job_id

    def meta_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def lease_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "lease.json"

    def circuit_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "circuit.bench"

    def journal_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "journal.jsonl"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    # -- lifecycle ------------------------------------------------------
    def create(
        self,
        job_id: str,
        *,
        job_key: str,
        circuit_hash: str,
        circuit_name: str,
        netlist_text: str,
        options: dict,
        tenant: str,
        degraded: bool = False,
    ) -> dict:
        """Materialise a new QUEUED job on disk and return its meta."""
        directory = self.job_dir(job_id)
        directory.mkdir(parents=True, exist_ok=True)
        self.circuit_path(job_id).write_text(netlist_text, encoding="utf-8")
        meta = {
            "schema": JOB_SCHEMA_VERSION,
            "id": job_id,
            "state": JobState.QUEUED.value,
            "job_key": job_key,
            "circuit_hash": circuit_hash,
            "circuit_name": circuit_name,
            "options": options,
            "tenant": tenant,
            "degraded": degraded,
            "cache_hit": False,
            "adoptions": 0,
            "runner_pid": None,
            "fence_token": 0,
            "abort_reason": None,
            "submitted_at": time.time(),
            "started_at": None,
            "finished_at": None,
            "error": None,
        }
        self.write_meta(meta)
        return meta

    def write_meta(self, meta: dict, fence=None) -> None:
        """Atomically replace ``job.json``; with ``fence`` set, first
        prove lease ownership (raises
        :class:`~repro.service.lease.StaleTokenError` for a zombie)."""
        if fence is not None:
            fence()
        atomic_write_json(self.meta_path(meta["id"]), meta, fp="job.meta")

    def load_meta(self, job_id: str) -> Optional[dict]:
        try:
            return json.loads(
                self.meta_path(job_id).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None

    def set_state(
        self, job_id: str, state: JobState, fence=None, **fields
    ) -> dict:
        """Atomically transition ``job_id`` (read-modify-replace).

        ``fence`` (a :class:`~repro.service.lease.FenceGuard`) makes the
        transition an *owner* write: a stale fencing token is rejected
        before anything touches disk.
        """
        meta = self.load_meta(job_id)
        if meta is None:
            raise KeyError(f"no such job {job_id!r}")
        meta["state"] = state.value
        meta.update(fields)
        self.write_meta(meta, fence=fence)
        return meta

    def load_result(self, job_id: str) -> Optional[dict]:
        try:
            return json.loads(
                self.result_path(job_id).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None

    def list_jobs(self) -> list[dict]:
        """All job metas, oldest submission first."""
        metas = []
        for entry in sorted(self.jobs_dir.iterdir()):
            if not entry.is_dir():
                continue
            meta = self.load_meta(entry.name)
            if meta is not None:
                metas.append(meta)
        metas.sort(key=lambda m: (m.get("submitted_at") or 0.0, m["id"]))
        return metas

    # -- crash recovery -------------------------------------------------
    def sweep_temps(self) -> int:
        """Remove orphaned atomic-write temp files.

        A SIGKILL between ``mkstemp`` and ``os.replace`` leaks exactly
        one fsynced-but-uncommitted ``*.tmp`` sibling (the error paths
        unlink theirs, but no ``finally`` survives SIGKILL).  Harmless
        to correctness — readers never look at temp names — but the
        recovery sweep keeps the store clean and lets the chaos matrix
        assert "no orphaned temp files" after every crash point.
        """
        removed = 0
        for tmp in self.jobs_dir.glob("*/*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def fail_exhausted(self, meta: dict, detail: str = "") -> dict:
        """Land a job that burned its adoption budget in FAILED with a
        machine-readable reason — it must never stall in QUEUED nor
        poison the queue forever (surfaced at ``/healthz`` as
        ``adoption_exhausted``)."""
        return self.set_state(
            meta["id"],
            JobState.FAILED,
            finished_at=time.time(),
            abort_reason="adoption_exhausted",
            error=(
                f"abandoned after {meta['adoptions']} re-adoptions"
                + (f" ({detail})" if detail else "")
            ),
        )

    def recover(self, node_id: Optional[str] = None) -> list[dict]:
        """Re-adopt every non-terminal job after a restart.

        Returns the re-queued metas in submission order.  RUNNING jobs
        get their recorded runner pid SIGKILLed first if it is still
        alive: the previous server may have died (``kill -9``) while
        its forked runner kept going, and two writers on one journal is
        the one topology the torn-line tolerance cannot repair.  Jobs
        past :data:`MAX_ADOPTIONS` are FAILED with
        ``abort_reason="adoption_exhausted"`` instead of re-queued — a
        submission that kills every runner must not poison the queue
        forever.

        Args:
            node_id: when the store is shared between nodes, pass this
                node's id — RUNNING jobs owned by a *live* lease of a
                different node are left strictly alone (their owner is
                healthy; stealing is the scan loop's job once the lease
                expires).  ``None`` preserves the single-node
                behaviour: every non-terminal job is this process's to
                adopt.
        """
        self.sweep_temps()
        adopted = []
        for meta in self.list_jobs():
            state = JobState(meta["state"])
            if state.terminal:
                continue
            if state is JobState.RUNNING:
                if node_id is not None and self._foreign_live_lease(
                    meta["id"], node_id
                ):
                    continue
                _kill_if_alive(meta.get("runner_pid"))
                if meta["adoptions"] + 1 > MAX_ADOPTIONS:
                    self.fail_exhausted(meta)
                    continue
                meta = self.set_state(
                    meta["id"],
                    JobState.QUEUED,
                    adoptions=meta["adoptions"] + 1,
                    runner_pid=None,
                )
            adopted.append(meta)
        return adopted

    def _foreign_live_lease(self, job_id: str, node_id: str) -> bool:
        """True when ``job_id`` is owned by a live lease of another
        node (lazy import: lease.py imports failpoints only)."""
        from repro.service.lease import LeaseFile

        # TTL is irrelevant for reading liveness; any positive value.
        return LeaseFile(
            self.lease_path(job_id), node_id, ttl_s=1.0
        ).held_by_other()


def _kill_if_alive(pid: Optional[int]) -> None:
    """SIGKILL a recorded runner pid if that process still exists.

    The pid is not reaped here: when it is this process's child, its
    exit status belongs to the handle that started it (a reap here
    would leave ``Process.exitcode`` at ``None`` and ``Popen`` at 0).
    """
    if not pid or pid == os.getpid():
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        return
