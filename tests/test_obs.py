"""The field-driven merge, JSON view and stage timer of ``repro.obs``."""

from __future__ import annotations

import types
from dataclasses import dataclass, field

import pytest

import repro.obs as obs
from repro.obs import Counters, recomputed, span, stage, topology


@dataclass
class _Inner(Counters):
    hits: int = 0
    tally: int = recomputed(default=0)


@dataclass
class _Outer(Counters):
    derived = ("double_calls",)
    rate_clock = "solve_time"

    solve_time: float = stage()
    wall_time: float = 0.0
    calls: int = 0
    propagations: int = 0
    decisions: int = 0
    conflicts: int = 0
    flagged: bool = False
    delays: list[float] = field(default_factory=list)
    workers: int = topology()
    inner: _Inner = field(default_factory=_Inner)

    @property
    def double_calls(self) -> int:
        return 2 * self.calls


def test_merge_rules():
    a = _Outer(calls=1, flagged=False, delays=[0.1], workers=4)
    a.inner.hits, a.inner.tally = 1, 7
    b = _Outer(solve_time=2.0, calls=2, flagged=True, delays=[0.2], workers=9)
    b.inner.hits, b.inner.tally = 3, 5
    a.merge(b)
    assert (a.solve_time, a.calls, a.flagged) == (2.0, 3, True)
    assert a.delays == [0.1, 0.2]
    assert a.workers == 4  # topology: the coordinator's, never merged
    assert (a.inner.hits, a.inner.tally) == (4, 7)  # tally recomputed


def test_as_dict_groups_stages_and_appends_derived_and_rates():
    stats = _Outer(solve_time=2.0, calls=3, propagations=10, delays=[0.5])
    doc = stats.as_dict()
    assert doc == {
        "stage_times": {"solve": 2.0},
        "wall_time": 0.0,
        "calls": 3,
        "propagations": 10,
        "decisions": 0,
        "conflicts": 0,
        "flagged": False,
        "delays": [0.5],
        "workers": 1,
        "inner": {"hits": 0, "tally": 0},
        "double_calls": 6,
        "propagations_per_sec": 5.0,
        "decisions_per_sec": 0.0,
        "conflicts_per_sec": 0.0,
    }
    doc["delays"].append(1.0)
    assert stats.delays == [0.5]  # the view is a copy


def test_span_bills_however_the_block_exits(monkeypatch):
    ticks = iter([10.0, 13.0, 20.0, 24.0])
    clock = types.SimpleNamespace(perf_counter=lambda: next(ticks))
    monkeypatch.setattr(obs, "time", clock)
    stats = _Outer()
    with span(stats, "solve") as solved:
        pass
    with pytest.raises(KeyError):
        with span(stats, "solve"):
            raise KeyError("fault")
    assert solved.seconds == 3.0
    assert stats.solve_time == 7.0
