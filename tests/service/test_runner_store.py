"""Forked runners promote into the server's own result store.

Jobs here go through the dispatcher's runner path
(``AtpgService._start_runner``: lease, fork, monitor), so every
promotion happens in a forked runner process.  Two properties of the
server's :class:`~repro.service.store.ResultStore` must survive the
fork: its ``--cache-max-mb`` cap governs the runner's promotions, and
its ``*.tmp`` sweep runs once, when the server opens the store — never
again at runner start, where it would delete a concurrent runner's
in-flight promotion temp file.
"""

from __future__ import annotations

import asyncio
import multiprocessing

import pytest

from repro.gen.benchmarks import C17_BENCH
from repro.service.jobs import JobState
from repro.service.server import AtpgService, ServiceConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="service runners fork",
)


def _run_jobs(service: AtpgService, options_list: list[dict]) -> list[str]:
    """Submit each option set for c17 and run it through a forked
    runner, one at a time; returns the job ids."""
    job_ids = []
    for options in options_list:
        status, doc = service.submit(C17_BENCH, options=options)
        assert status == 202, doc
        job_ids.append(doc["job"]["id"])

    async def dispatch() -> None:
        for job_id in job_ids:
            service.queue.remove(job_id)
            service._start_runner(job_id)
            while job_id in service.running:
                await asyncio.sleep(0.01)

    asyncio.run(dispatch())
    for job_id in job_ids:
        assert service.store.load_meta(job_id)["state"] == JobState.DONE.value
    return job_ids


def test_runner_promotions_respect_cache_cap(tmp_path):
    probe = AtpgService(ServiceConfig(data_dir=tmp_path / "probe"))
    _run_jobs(probe, [{}])
    doc_bytes = probe.results.current_bytes()

    # Room for one result document, not for three.
    cap_mb = 1.5 * doc_bytes / (1024 * 1024)
    service = AtpgService(
        ServiceConfig(data_dir=tmp_path / "capped", cache_max_mb=cap_mb)
    )
    _run_jobs(
        service,
        [{"max_conflicts": budget} for budget in (1_000, 2_000, 3_000)],
    )
    assert service.results.current_bytes() <= service.results.max_bytes


def test_runner_start_leaves_foreign_temp_files(tmp_path):
    service = AtpgService(ServiceConfig(data_dir=tmp_path))
    # Stands in for a concurrent runner's in-flight promotion.
    foreign = service.results.root / "in-flight.json.tmp"
    foreign.write_text("{}")
    _run_jobs(service, [{}])
    assert foreign.exists()
