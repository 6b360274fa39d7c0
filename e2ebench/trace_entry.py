"""Fresh-interpreter entry point of the traced run.

    python3 e2ebench/trace_entry.py OUT.json cli -- <repro arguments>
    python3 e2ebench/trace_entry.py OUT.json replay TRACE.json DATA_DIR [--untraced]

``cli`` times ``import repro.cli``, installs the span wrappers, then
calls ``repro.cli.main`` with the arguments.  ``replay`` does the same
import, then replays a service trace in-process through
``AtpgService.submit`` (``JobStore.create`` / ``ResultStore.get``) and
``execute_job``; with ``--untraced`` it installs nothing, which gives
the untraced wall the tracing overhead is measured against.  The
summary (traced wall, span snapshot, per-job results) goes to OUT.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def replay(trace_path: str, data_dir: str) -> list[dict]:
    from repro.service import runner
    from repro.service.server import AtpgService, ServiceConfig

    service = AtpgService(ServiceConfig(data_dir=data_dir))
    results = []
    for item in json.loads(Path(trace_path).read_text(encoding="utf-8")):
        status, doc = service.submit(item["netlist"])
        entry = {"name": item["name"], "kind": item["kind"], "http": status}
        if status in (200, 202):
            job_id = doc["job"]["id"]
            if status == 202:
                # What the dispatcher does: dequeue, then run the job.
                service.queue.remove(job_id)
                runner.execute_job(service.store, service.results, job_id)
            result = service.store.load_result(job_id) or {}
            entry["status_counts"] = result.get("status_counts")
            entry["stats"] = result.get("stats", {})
            entry["computed"] = status == 202
        results.append(entry)
    return results


def main(argv: list[str]) -> int:
    out, mode, rest = argv[0], argv[1], argv[2:]
    traced = "--untraced" not in rest
    tracer = Tracer()
    start = time.perf_counter_ns()
    with tracer.span("startup.import"):
        import repro.cli
    if traced:
        with tracer.span("startup.patch"):
            tracer.install()
    code, jobs = 0, []
    try:
        if mode == "cli":
            code = repro.cli.main(rest[1:] if rest[:1] == ["--"] else rest)
        else:
            jobs = replay(rest[0], rest[1])
    finally:
        wall_ns = time.perf_counter_ns() - start
        summary = tracer.snapshot()
        summary.update(
            wall_ns=wall_ns,
            exit_code=code,
            heavy_deps_loaded=sum(m in sys.modules for m in ("numpy", "scipy")),
            jobs=jobs,
        )
        Path(out).write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
