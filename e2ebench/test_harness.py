"""Unit tests of the benchmark harness (not of the program).

    python3 -m pytest e2ebench/test_harness.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import tracer  # noqa: E402
from measure import percentile, percentile_supported, samples_beyond  # noqa: E402


class FakeClock:
    """Nanosecond clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def tick(self, ns: int) -> None:
        self.now += ns


def make_tracer():
    clock = FakeClock()
    return tracer.Tracer(clock=clock), clock


def test_nested_spans_bill_self_time_once():
    t, clock = make_tracer()
    with t.span("outer"):
        clock.tick(10)
        with t.span("inner"):
            clock.tick(30)
        clock.tick(5)
        with t.span("inner"):
            clock.tick(7)
    assert t.self_ns == {"outer": 15, "inner": 37}
    assert t.calls == {"outer": 1, "inner": 2}
    total = tracer.merge([dict(t.snapshot(), wall_ns=60)])
    assert tracer.layer_table(total)[-1] == ("other", 8, 0)
    assert sum(row[1] for row in tracer.layer_table(total)) == 60
    assert tracer.accounting_errors(total) == []


def test_exception_closes_span_and_propagates():
    t, clock = make_tracer()

    def boom():
        clock.tick(4)
        raise ValueError("solver error")

    wrapped = t.wrap(boom, "sat.cdcl.solve", "m:boom")
    with t.span("atpg.certify.ladder"):
        clock.tick(1)
        with pytest.raises(ValueError):
            wrapped()
        clock.tick(2)
    assert t.stack == []
    assert t.self_ns == {"sat.cdcl.solve": 4, "atpg.certify.ladder": 3}
    assert t.binding_calls == {"m:boom": 1}


def test_direct_reentry_joins_the_open_span():
    """atomic_write_json -> atomic_write_text: one logical write."""
    t, clock = make_tracer()
    write_text = t.wrap(lambda: clock.tick(6), "io.atomic.write", "m:text")

    def json_body():
        clock.tick(2)
        write_text()

    write_json = t.wrap(json_body, "io.atomic.write", "m:json")
    write_json()
    assert t.calls == {"io.atomic.write": 1}
    assert t.self_ns == {"io.atomic.write": 8}
    assert t.binding_calls == {"m:json": 1, "m:text": 1}


def test_reentry_through_the_certify_ladder():
    """generate_test -> ladder -> primary solve -> (ladder's replay rung)
    solve -> witness validate: every span keeps only its own time."""
    t, clock = make_tracer()
    solve = t.wrap(lambda: clock.tick(20), "sat.incremental.solve", "m:solve")
    validate = t.wrap(lambda: clock.tick(3), "atpg.fault_sim.validate", "m:validate")

    def generate_test(depth):
        clock.tick(1)
        ladder(depth)

    def ladder_body(depth):
        clock.tick(2)
        solve()
        if depth == 0:
            # A rung that re-enters the engine's per-fault entry point.
            traced_generate(depth + 1)
        validate()

    ladder = t.wrap(ladder_body, "atpg.certify.ladder", "m:ladder")
    traced_generate = t.wrap(generate_test, "atpg.engine.generate_test", "m:gen")
    traced_generate(0)
    assert t.calls == {
        "atpg.engine.generate_test": 2,
        "atpg.certify.ladder": 2,
        "sat.incremental.solve": 2,
        "atpg.fault_sim.validate": 2,
    }
    assert t.self_ns == {
        "atpg.engine.generate_test": 2,
        "atpg.certify.ladder": 4,
        "sat.incremental.solve": 40,
        "atpg.fault_sim.validate": 6,
    }
    total = tracer.merge([dict(t.snapshot(), wall_ns=52)])
    assert tracer.layer_table(total)[-1] == ("other", 0, 0)


def test_mismatched_close_is_refused():
    t, _ = make_tracer()
    t.enter("a")
    with pytest.raises(RuntimeError):
        t.exit("b")


def test_accounting_flags_overlapping_walls():
    total = tracer.merge([{"wall_ns": 5, "self_ns": {"a": 7}, "calls": {"a": 1},
                           "binding_calls": {}, "drop_hits": 0}])
    assert tracer.accounting_errors(total)


def test_coverage_reports_a_stale_binding():
    bindings = (("x.span", "mod", "fn", {"atpg-cli"}), ("y.span", "mod", "g", {"width-study"}))
    total = tracer.merge([{"wall_ns": 1, "self_ns": {}, "calls": {},
                           "binding_calls": {}, "drop_hits": 0}])
    assert len(tracer.coverage_errors(total, "atpg-cli", bindings)) == 1
    total["binding_calls"]["mod:fn"] = 1
    assert tracer.coverage_errors(total, "atpg-cli", bindings) == []


def test_install_patches_the_callers_binding(tmp_path, monkeypatch):
    module = tmp_path / "fakemod.py"
    module.write_text(
        "def helper():\n    return 1\n\n"
        "class Thing:\n    def work(self):\n        return helper() + 1\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    t, _ = make_tracer()
    t.install((("h", "fakemod", "helper", set()), ("w", "fakemod", "Thing.work", set())))
    import fakemod

    assert fakemod.Thing().work() == 2
    assert t.calls == {"w": 1, "h": 1}
    with pytest.raises(RuntimeError):
        t.install((("h", "fakemod", "helper", set()),))


@pytest.mark.parametrize(
    "count, beyond, supported",
    [(100, 10, True), (99, 9, False), (19, 1, False), (150, 15, True), (110, 11, True)],
)
def test_p90_needs_ten_samples_beyond_it(count, beyond, supported):
    assert samples_beyond(count, 90) == beyond
    assert percentile_supported(count, 90) is supported


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([3.0], 90) == 3.0
    assert percentile([5, 1, 4, 2, 3], 90) == 5


def test_service_trace_is_seeded_and_well_formed():
    trace = corpus.service_trace(7, 12)
    assert trace == corpus.service_trace(7, 12)
    assert trace != corpus.service_trace(8, 12)
    assert len(trace) == 120 and trace[0]["kind"] == "computed"
    seen = set()
    for item in trace:
        if item["kind"] == "duplicate":
            assert item["name"] in seen
        if item["kind"] == "computed":
            assert item["name"] not in seen
            seen.add(item["name"])
    cached = corpus.cache_pool(trace)
    assert len(cached) == len(set(cached)) == 24


def test_draws_stay_inside_the_referenced_pools():
    refs = corpus.load_references()
    for seed in range(20):
        assert set(corpus.atpg_cli_corpus(seed)) <= set(refs["atpg"])
        assert "c17" in corpus.atpg_cli_corpus(seed)
        assert set(corpus.width_corpus(seed)) <= set(refs["width"])
        assert {i["name"] for i in corpus.service_trace(seed, 12)} <= set(refs["atpg"])


def test_verdict_classes_ignore_the_tested_dropped_split():
    ref = {"faults": 16, "detected": 16, "untestable": 0, "unobservable": 0}
    incremental = {"tested": 8, "dropped": 8, "untestable": 0, "unobservable": 0, "aborted": 0}
    fresh = {"tested": 6, "dropped": 10, "untestable": 0, "unobservable": 0, "aborted": 0}
    assert corpus.atpg_mismatches(ref, incremental) == []
    assert corpus.atpg_mismatches(ref, fresh) == []
    aborted = {"tested": 6, "dropped": 9, "untestable": 0, "unobservable": 0, "aborted": 1}
    assert corpus.atpg_mismatches(ref, aborted)
