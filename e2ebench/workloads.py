"""The three workloads, each driving the program only from outside:
subprocesses for the CLI, HTTP for the service.  A traced run repeats
the same inputs through ``trace_entry.py`` for the layer table."""

from __future__ import annotations

import json
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import tracer
from measure import (
    HERE,
    PROCESS_TIMEOUT_S,
    Ledger,
    child_env,
    median,
    percentile,
    percentile_supported,
    timed_run,
)

PY = sys.executable
SETUP_REPS = 5
#: Never start more work past this many seconds into a run.
RUN_BUDGET_S = 120.0
SERVICE_BLOCKS = 12  # 120 submissions: p90 needs >= 100
MIN_JOBS = 100
POLL_S = 0.02


@dataclass
class Run:
    """One benchmark invocation: inputs, outcome accounting, metrics."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    run_dir: Path
    refs: dict
    ledger: Ledger
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: name -> (value, unit, samples, note)
    e2e: dict = field(default_factory=dict)
    #: name -> (value, unit)
    layers: dict = field(default_factory=dict)
    table: list = field(default_factory=list)
    traced_wall_s: float = 0.0

    def __post_init__(self) -> None:
        (self.run_dir / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = child_env(self.run_dir)
        self.texts: dict[str, str] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def op_failed(self, message: str, incorrect: bool = True) -> None:
        self.failed += 1
        (self.errors if incorrect else self.warnings).append(message)

    def netlist(self, name: str) -> Path:
        """Write ``name``'s netlist once, refusing a changed generator."""
        path = self.run_dir / "netlists" / f"{name}.bench"
        if name not in self.texts:
            text = corpus.netlist_text(name)
            want = self.refs["atpg"][name]["sha256"]
            if corpus.sha256(text) != want:
                raise SystemExit(
                    f"netlist {name} no longer matches its reference "
                    "(generator changed): re-record e2ebench/references.json"
                )
            self.texts[name] = text
            path.parent.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
        return path

    def input_id(self, name: str) -> str:
        """Pool name plus netlist digest: counters belong to the input."""
        return f"{name}@{self.refs['atpg'][name]['sha256'][:16]}"

    def metric(self, name: str, values: list, unit: str, per=None, note: str = "") -> None:
        """Median of ``values`` (or ``per`` when given, a rate/percentile)."""
        value = median(values) if per is None else per
        self.e2e[name] = (value, unit, len(values), note)

    def peak_rss(self) -> None:
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        self.e2e["peak_rss_mb"] = (rss_mb, "MB", 1, "RUSAGE_CHILDREN")

    def latency(self, samples: list[float], job_note: str) -> None:
        self.metric("job_p50_s", samples, "s", note=job_note)
        note = job_note
        if not percentile_supported(len(samples), 90):
            note += f"; only {len(samples)} samples, p90 needs 100"
        self.metric("job_p90_s", samples, "s", per=percentile(samples, 90), note=note)


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------
def import_probe(run: Run, reps: int) -> list[float]:
    """Fresh interpreters running ``import repro.cli``: their walls, and
    ``startup.modules_loaded``."""
    walls, modules = [], set()
    probe = "import repro.cli, sys; print(len(sys.modules))"
    for _ in range(reps):
        code, wall, out, err = timed_run([PY, "-c", probe], run.env, run.run_dir)
        if code != 0:
            raise SystemExit(f"import repro.cli failed:\n{err}")
        walls.append(wall)
        modules.add(int(out))
    if len(modules) != 1:
        run.errors.append(f"modules loaded by import repro.cli varied: {modules}")
    run.layers["startup.modules_loaded"] = (modules.pop(), "count")
    return walls


def cli_setup(run: Run) -> None:
    """``setup_s``: fresh interpreter to ``import repro.cli`` done."""
    walls = import_probe(run, SETUP_REPS)
    run.metric("setup_s", walls, "s", note="python -c 'import repro.cli'")


def run_passes(run: Run, one_pass) -> int:
    """Whole passes over the corpus: at least one, then more only while
    another is expected to end within ``--seconds``."""
    passes, last, begin = 0, 0.0, time.perf_counter()
    while passes == 0 or (
        time.perf_counter() - begin + last <= run.seconds
        and run.elapsed() < RUN_BUDGET_S
    ):
        start = time.perf_counter()
        one_pass(passes)
        last = time.perf_counter() - start
        passes += 1
    return passes


def traced_cli(run: Run, args: list[str], tag: str) -> tuple[int, float, str, dict]:
    """One traced program process: (exit code, wall, stderr, snapshot)."""
    out = run.run_dir / f"trace-{tag}.json"
    argv = [PY, str(HERE / "trace_entry.py"), str(out), "cli", "--", *args]
    code, wall, _, err = timed_run(argv, run.env, run.run_dir)
    return code, wall, err, json.loads(out.read_text(encoding="utf-8"))


def finish_trace(run: Run, snapshots: list[dict], untraced_wall: float, traced_wall: float) -> None:
    """Layer table, accounting and coverage checks, span metrics."""
    total = tracer.merge(snapshots)
    run.errors += tracer.accounting_errors(total)
    run.errors += tracer.coverage_errors(total, run.workload)
    run.ledger.check(f"{run.workload} seed={run.seed} span calls", dict(sorted(total["calls"].items())))
    run.table = tracer.layer_table(total)
    for name, ns in total["self_ns"].items():
        layer = tracer.LAYER_OTHER.get(name, name)
        run.layers[f"{layer}_s"] = (ns / 1e9, "s")
        run.layers[f"{layer}_calls"] = (total["calls"][name], "count")
    checks = total["calls"].get("atpg.fault_sim.drop_check", 0)
    run.layers["atpg.fault_sim.drop_hit_ratio"] = (
        total["drop_hits"] / checks if checks else 0.0, "ratio")
    run.traced_wall_s = total["wall_ns"] / 1e9
    run.layers["other_s"] = (run.table[-1][1] / 1e9, "s")
    run.layers["trace.wall_s"] = (run.traced_wall_s, "s")
    run.layers["trace.overhead"] = (traced_wall / untraced_wall, "ratio")


def sat_layers(run: Run, stats: list[dict]) -> None:
    """Deterministic solver work of the run's engine results."""
    totals = {key: sum(s.get(key, 0) for s in stats)
              for key in ("sat_calls", "propagations", "conflicts", "shared_active_solves")}
    run.layers["sat.calls"] = (totals["sat_calls"], "count")
    run.layers["sat.propagations"] = (totals["propagations"], "count")
    run.layers["sat.conflicts"] = (totals["conflicts"], "count")
    run.layers["atpg.sharing.hit_rate"] = (
        totals["shared_active_solves"] / totals["sat_calls"] if totals["sat_calls"] else 0.0,
        "ratio")


def solver_counters(stats: dict) -> dict:
    return {key: stats.get(key) for key in ("sat_calls", "propagations", "conflicts")}


# ----------------------------------------------------------------------
# atpg-cli
# ----------------------------------------------------------------------
def atpg_invocation(run: Run, name: str, tag: str, traced: bool = False):
    """One ``repro atpg`` process, checked against the reference."""
    bench_json = run.run_dir / f"bench-{tag}.json"
    args = ["atpg", str(run.netlist(name)), "--bench-json", str(bench_json),
            *corpus.CLI_OPTIONS.get(name, ())]
    run.attempted += 1
    if traced:
        code, wall, err, snapshot = traced_cli(run, args, tag)
    else:
        code, wall, _, err = timed_run([PY, "-m", "repro", *args], run.env, run.run_dir)
        snapshot = None
    if code != 0:
        run.op_failed(f"repro atpg {name} exited {code}: {err[-500:]}")
        return wall, None, snapshot
    try:
        payload = json.loads(bench_json.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        run.op_failed(f"repro atpg {name} wrote no --bench-json")
        return wall, None, snapshot
    bench_json.unlink()
    mismatches = corpus.atpg_mismatches(run.refs["atpg"][name], payload["status_counts"])
    if mismatches:
        run.op_failed(f"repro atpg {name}: {'; '.join(mismatches)}")
    options = " ".join(corpus.CLI_OPTIONS.get(name, ()))
    run.ledger.check(f"atpg {run.input_id(name)} incremental {options}",
                     solver_counters(payload["stats"]))
    return wall, payload, snapshot


def atpg_cli(run: Run) -> None:
    names = corpus.atpg_cli_corpus(run.seed)
    cli_setup(run)
    walls, faults, stats = [], 0, []
    snapshots, traced_walls = [], []

    def one_pass(index: int) -> None:
        nonlocal faults
        for i, name in enumerate(names):
            wall, payload, _ = atpg_invocation(run, name, f"{index}-{i}")
            walls.append(wall)
            if payload is not None:
                faults += payload["faults"]
                if index == 0:
                    stats.append(payload["stats"])
            if run.trace and index == 0:
                # Traced right after untraced, so both see the same host.
                wall, _, snapshot = atpg_invocation(run, name, f"traced-{i}", traced=True)
                traced_walls.append(wall)
                snapshots.append(snapshot)

    run_passes(run, one_pass)
    busy = sum(walls)
    run.metric("cli_p50_s", walls, "s", note="repro atpg process wall")
    run.latency(walls, "a job is one repro atpg process")
    run.metric("jobs_per_s", walls, "1/s", per=len(walls) / busy, note="processes / process wall")
    run.metric("faults_per_s", walls, "1/s", per=faults / busy, note="collapsed faults / process wall")
    run.peak_rss()
    if not run.trace:
        return
    sat_layers(run, stats)
    finish_trace(run, snapshots, sum(walls[: len(names)]), sum(traced_walls))
    heavy = snapshots[names.index("c17")]["heavy_deps_loaded"]
    run.layers["startup.heavy_deps_loaded"] = (heavy, "count")
    run.ledger.check("atpg-cli heavy deps", {"c17": heavy})


# ----------------------------------------------------------------------
# width-study
# ----------------------------------------------------------------------
def width_args(run: Run, names: list[str], bench_json: Path) -> list[str]:
    circuits = [arg for name in names for arg in ("--circuit", name)]
    return ["width-study", "--suite-name", "mcnc", *circuits, "--no-cap",
            "--workers", "1", "--bench-json", str(bench_json)]


def width_process(run: Run, args: list[str]) -> tuple[float, list[float], int]:
    """Run width-study, timestamping each circuit's result line."""
    start = time.perf_counter()
    proc = subprocess.Popen([PY, "-m", "repro", *args], env=run.env, cwd=run.run_dir,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    stamps = []
    try:
        for line in proc.stdout:
            if line.startswith("circuit "):
                stamps.append(time.perf_counter())
        err = proc.stderr.read()
        code = proc.wait(timeout=PROCESS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    if code != 0:
        run.op_failed(f"repro width-study exited {code}: {err[-500:]}")
    gaps = [b - a for a, b in zip([start] + stamps, stamps)]
    return wall, gaps, code


def check_width(run: Run, names: list[str], bench_json: Path) -> tuple[int, dict]:
    """Per-circuit reference check; (faults analysed, counter totals)."""
    try:
        payloads = json.loads(bench_json.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        run.op_failed("repro width-study wrote no --bench-json")
        return 0, {}
    bench_json.unlink()
    faults, totals = 0, {"mla_runs": 0, "hits": 0, "misses": 0}
    for name, payload in zip(names, payloads):
        mismatches = corpus.width_mismatches(run.refs["width"][name], payload)
        if mismatches:
            run.op_failed(f"width-study {name}: {'; '.join(mismatches)}")
        stats = payload["stats"]
        counters = {"mla_runs": stats["cold_runs"] + stats["warm_starts"],
                    "hits": stats["sub_cache_hits"], "misses": stats["sub_cache_misses"]}
        run.ledger.check(f"width {name} cold seed=0", counters)
        faults += payload["n_faults"]
        for key in totals:
            totals[key] += counters[key]
    if len(payloads) != len(names):
        run.op_failed(f"width-study reported {len(payloads)} of {len(names)} circuits")
    return faults, totals


def width_study(run: Run) -> None:
    names = corpus.width_corpus(run.seed)
    cli_setup(run)
    walls, gaps, faults, counters = [], [], 0, {}
    bench_json = run.run_dir / "width.json"

    def one_pass(index: int) -> None:
        nonlocal faults, counters
        run.attempted += 1
        wall, circuit_gaps, code = width_process(run, width_args(run, names, bench_json))
        walls.append(wall)
        gaps.extend(circuit_gaps)
        if code == 0:
            analysed, counters = check_width(run, names, bench_json)
            faults += analysed

    run_passes(run, one_pass)
    busy = sum(walls)
    run.metric("cli_p50_s", walls, "s", note="repro width-study process wall")
    run.latency(gaps, "a job is one circuit: time between its result line and the previous")
    run.metric("jobs_per_s", walls, "1/s", per=len(gaps) / busy, note="circuits / process wall")
    run.metric("faults_per_s", walls, "1/s", per=faults / busy, note="collapsed faults / process wall")
    run.peak_rss()
    if not run.trace:
        return
    sat_layers(run, [])
    run.attempted += 1
    traced_json = run.run_dir / "width-traced.json"
    code, wall, err, snapshot = traced_cli(run, width_args(run, names, traced_json), "width")
    if code != 0:
        run.op_failed(f"traced repro width-study exited {code}: {err[-500:]}")
    else:
        check_width(run, names, traced_json)
    # Against the last untraced pass, run just before: the host drifts
    # between the first pass and the traced one.
    finish_trace(run, [snapshot], walls[-1], wall)
    run.layers["startup.heavy_deps_loaded"] = (snapshot["heavy_deps_loaded"], "count")
    run.layers["width.mla_runs"] = (counters.get("mla_runs", 0), "count")
    lookups = counters.get("hits", 0) + counters.get("misses", 0)
    run.layers["width.memo_hit_rate"] = (counters.get("hits", 0) / lookups if lookups else 0.0, "ratio")


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process; ready once it prints "serving on"."""

    def __init__(self, run: Run, data_dir: Path) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [PY, "-m", "repro", "serve", "--data-dir", str(data_dir), "--port", "0"],
            env=run.env, cwd=run.run_dir, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - self.start
        if not line.startswith("serving on "):
            self.stop()
            raise SystemExit(f"repro serve did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def request(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        body = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(f"http://127.0.0.1:{self.port}{path}", data=body, method=method)
        try:
            with urllib.request.urlopen(req, timeout=PROCESS_TIMEOUT_S) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read() or b"{}")

    def stop(self) -> None:
        """SIGTERM drain, then wait (killing only a server that hangs)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def drive(run: Run, server: Server, trace: list[dict], deadline_s: float | None) -> tuple[list[dict], float]:
    """Two closed-loop callers over ``trace``; each waits for DONE.

    Stops early only past ``deadline_s`` with >= ``MIN_JOBS`` finished.
    """
    lock = threading.Lock()
    cursor = [0]
    done: list[dict] = []
    start = time.perf_counter()

    def caller() -> None:
        while True:
            with lock:
                late = deadline_s is not None and time.perf_counter() - start >= deadline_s
                if cursor[0] >= len(trace) or (late and len(done) >= MIN_JOBS):
                    return
                item = trace[cursor[0]]
                cursor[0] += 1
            outcome = submit_and_wait(server, item, run.texts[item["name"]])
            with lock:
                done.append(outcome)

    threads = [threading.Thread(target=caller) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done, time.perf_counter() - start


def submit_and_wait(server: Server, item: dict, text: str) -> dict:
    """One caller request; ``http`` 0 means the service stopped answering
    (or the job outlived ``PROCESS_TIMEOUT_S``)."""
    outcome = dict(item, http=0)
    t0 = time.perf_counter()
    try:
        status, doc = server.request("POST", "/jobs", {"netlist": text})
        outcome["submit_s"] = time.perf_counter() - t0
        if status not in (200, 202):
            outcome["http"] = status
            return outcome
        job, result = doc["job"], None
        while job["state"] not in ("done", "failed"):
            if time.perf_counter() - t0 > PROCESS_TIMEOUT_S:
                return outcome
            time.sleep(POLL_S)
            _, view = server.request("GET", f"/jobs/{job['id']}")
            job, result = view["job"], view.get("result")
        outcome["latency_s"] = time.perf_counter() - t0
        outcome["seen_at"] = time.time()
        if result is None and job["state"] == "done":
            result = server.request("GET", f"/jobs/{job['id']}")[1].get("result")
    except (OSError, ValueError, KeyError) as exc:
        outcome["error"] = f"{type(exc).__name__}: {exc}"
        return outcome
    outcome.update(http=status, job=job, result=result)
    return outcome


def check_job(run: Run, outcome: dict) -> None:
    run.attempted += 1
    name = outcome["name"]
    if outcome["http"] == 0:
        run.op_failed(f"job {name}: no answer ({outcome.get('error', 'timed out')})")
        return
    if outcome["http"] not in (200, 202):
        run.op_failed(f"job {name} refused with HTTP {outcome['http']}", incorrect=False)
        return
    if outcome["job"]["state"] != "done" or not outcome["result"]:
        run.op_failed(f"job {name} ended {outcome['job']['state']}: {outcome['job'].get('error')}")
        return
    result = outcome["result"]
    mismatches = corpus.atpg_mismatches(run.refs["atpg"][name], result["status_counts"])
    if mismatches:
        run.op_failed(f"job {name}: {'; '.join(mismatches)}")
    run.ledger.check(f"service {run.input_id(name)} fresh", solver_counters(result["stats"]))


def service_mix(run: Run) -> None:
    trace = corpus.service_trace(run.seed, SERVICE_BLOCKS)
    for name in {item["name"] for item in trace}:
        run.netlist(name)
    import_probe(run, 1)

    # The pre-filled result cache: the cached-kind netlists computed by
    # a service, then the job history dropped (only cas/ is kept).
    prefill = run.run_dir / "prefill"
    server = Server(run, prefill)
    try:
        cached = [{"kind": "prefill", "name": name} for name in corpus.cache_pool(trace)]
        for outcome in drive(run, server, cached, None)[0]:
            check_job(run, outcome)
    finally:
        server.stop()
    shutil.rmtree(prefill / "jobs")

    def fresh_data(tag: str) -> Path:
        data = run.run_dir / f"data-{tag}"
        shutil.copytree(prefill / "cas", data / "cas")
        return data

    ready = []
    for rep in range(SETUP_REPS):
        server = Server(run, fresh_data(str(rep)))
        ready.append(server.ready_s)
        if rep < SETUP_REPS - 1:
            server.stop()
    try:
        outcomes, wall = drive(run, server, trace, run.seconds)
        health = server.request("GET", "/healthz")[1]
    finally:
        server.stop()
    for outcome in outcomes:
        check_job(run, outcome)
    finished = [o for o in outcomes if o.get("result")]
    computed = [o for o in finished if o["http"] == 202]
    run.metric("setup_s", ready, "s", note="repro serve spawn to 'serving on'")
    run.metric("cli_p50_s", [o["latency_s"] for o in computed], "s",
               note="computed jobs only: the service's counterpart of one repro atpg run")
    run.latency([o["latency_s"] for o in finished], "POST /jobs to the caller seeing DONE")
    run.metric("jobs_per_s", outcomes, "1/s", per=len(finished) / wall, note="jobs done / run wall")
    run.metric("faults_per_s", outcomes, "1/s",
               per=sum(o["result"]["faults"] for o in finished) / wall,
               note="faults in DONE results / run wall")
    run.peak_rss()
    if not run.trace:
        return

    def job_median(key: str, values: list) -> None:
        run.layers[key] = (median(values) if values else 0.0, "s")

    job_median("service.submit_s", [o["submit_s"] for o in outcomes if "submit_s" in o])
    job_median("service.queue_wait_s", [o["job"]["started_at"] - o["job"]["submitted_at"] for o in computed])
    job_median("service.run_s", [o["job"]["finished_at"] - o["job"]["started_at"] for o in computed])
    job_median("service.notify_s", [o["seen_at"] - o["job"]["finished_at"] for o in computed])
    totals = health["totals"]
    run.layers["service.dedupe_ratio"] = (totals["deduped"] / totals["submitted"], "ratio")
    run.layers["service.cache_hit_ratio"] = (totals["cache_hits"] / totals["submitted"], "ratio")

    # The same trace, replayed in-process: untraced, traced, untraced
    # again (the traced wall is compared with the mean of its neighbours).
    trace_file = run.run_dir / "trace.json"
    trace_file.write_text(json.dumps(
        [dict(item, netlist=run.texts[item["name"]]) for item in trace]), encoding="utf-8")
    walls, snapshot = [], None
    for step, tag in enumerate(("untraced", "traced", "untraced")):
        out = run.run_dir / f"replay-{step}.json"
        argv = [PY, str(HERE / "trace_entry.py"), str(out), "replay", str(trace_file),
                str(fresh_data(f"replay-{step}"))] + (["--untraced"] if tag == "untraced" else [])
        code, wall, _, err = timed_run(argv, run.env, run.run_dir)
        if code != 0:
            raise SystemExit(f"service replay ({tag}) failed:\n{err[-2000:]}")
        walls.append(wall)
        replayed = json.loads(out.read_text(encoding="utf-8"))
        snapshot = replayed if tag == "traced" else snapshot
        for job in replayed["jobs"]:
            result = {"status_counts": job.get("status_counts"), "stats": job.get("stats")}
            check_job(run, {"name": job["name"], "http": job["http"],
                            "job": {"state": "done"}, "result": result})
    finish_trace(run, [snapshot], (walls[0] + walls[2]) / 2, walls[1])
    run.layers["startup.heavy_deps_loaded"] = (snapshot["heavy_deps_loaded"], "count")
    sat_layers(run, [o["result"]["stats"] for o in computed])


WORKLOADS = {
    tracer.ATPG: atpg_cli,
    tracer.WIDTH: width_study,
    tracer.SERVICE: service_mix,
}
