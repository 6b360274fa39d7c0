"""One counters and timing mechanism for every stats block.

Each stats class of the program (the engine's
:class:`~repro.atpg.engine.EngineStats`, the supervisor's
:class:`~repro.atpg.supervisor.RunHealth`, the width study's, the
solvers', the sharing store's and the service's totals) is a plain
dataclass deriving from :class:`Counters`.  Its fields *are* the
counters: hot loops bump them as ordinary attributes, and
:meth:`Counters.merge` / :meth:`Counters.as_dict` walk
:func:`dataclasses.fields` instead of listing them by hand.

Merge rules: numbers add, bools OR, lists extend, nested
:class:`Counters` merge.  Field metadata marks the exceptions:

* :func:`stage` — ``<stage>_time`` seconds billed by :func:`span`; they
  add on merge and ``as_dict`` groups them under ``stage_times``;
* :func:`topology` — facts the coordinator sets (``workers``,
  ``shards``), never merged;
* :func:`recomputed` — tallies recomputed over a run's final records
  (``abort_reasons``, ``certified``, ``uncertified``), never merged, so
  shard-level counts cannot double-count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Optional

_ROLE = "obs"
_STAGE, _TOPOLOGY, _RECOMPUTED = "stage", "topology", "recomputed"

#: The search counters every ``<counter>_per_sec`` rate is reported for.
RATED = ("propagations", "decisions", "conflicts")


def stage() -> Any:
    """A ``<stage>_time`` field: seconds billed by :func:`span`."""
    return field(default=0.0, metadata={_ROLE: _STAGE})


def topology() -> Any:
    """A count (default 1) the run's coordinator sets; never merged."""
    return field(default=1, metadata={_ROLE: _TOPOLOGY})


def recomputed(**kwargs: Any) -> Any:
    """A tally recomputed over final records; never merged."""
    return field(metadata={_ROLE: _RECOMPUTED}, **kwargs)


def rates(
    stats: Any, seconds: float, names: tuple[str, ...] = RATED
) -> dict[str, float]:
    """``<name>_per_sec`` for each named counter of ``stats`` over
    ``seconds`` (0.0 when no time was spent)."""
    return {
        f"{name}_per_sec": getattr(stats, name) / seconds if seconds else 0.0
        for name in names
    }


@dataclass
class Counters:
    """Base of every stats dataclass (see module docstring)."""

    #: Properties ``as_dict`` reports after the fields.
    derived: ClassVar[tuple[str, ...]] = ()
    #: Field holding the seconds the :data:`RATED` counters are rated
    #: over in ``as_dict``; ``None`` reports no rates.
    rate_clock: ClassVar[Optional[str]] = None

    def merge(self, other: "Counters") -> None:
        """Accumulate ``other``'s counters into this one."""
        for spec in fields(self):
            if spec.metadata.get(_ROLE) in (_TOPOLOGY, _RECOMPUTED):
                continue
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, Counters):
                mine.merge(theirs)
            elif isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, bool):
                setattr(self, spec.name, mine or theirs)
            else:
                setattr(self, spec.name, mine + theirs)

    def stage_times(self) -> dict[str, float]:
        """Per-stage seconds, keyed by stage name."""
        return {
            spec.name[: -len("_time")]: getattr(self, spec.name)
            for spec in fields(self)
            if spec.metadata.get(_ROLE) == _STAGE
        }

    def as_dict(self) -> dict:
        """JSON-ready view: ``stage_times``, the other fields (nested
        counters as dicts), the derived properties, then the rates."""
        doc: dict[str, Any] = {}
        stages = self.stage_times()
        if stages:
            doc["stage_times"] = stages
        for spec in fields(self):
            if spec.metadata.get(_ROLE) == _STAGE:
                continue
            value = getattr(self, spec.name)
            if isinstance(value, Counters):
                value = value.as_dict()
            elif isinstance(value, (list, dict)):
                value = type(value)(value)
            doc[spec.name] = value
        for name in self.derived:
            doc[name] = getattr(self, name)
        if self.rate_clock is not None:
            doc.update(rates(self, getattr(self, self.rate_clock)))
        return doc


class span:
    """Bill the wall time of a ``with`` block to ``stats.<stage>_time``.

    The time is billed however the block exits (a ``return`` or an
    exception included); ``seconds`` holds it afterwards, for callers
    that also record it per item::

        with span(stats, "build") as built:
            ...
        record.build_time = built.seconds
    """

    __slots__ = ("_stats", "_attr", "_start", "seconds")

    def __init__(self, stats: Counters, stage: str) -> None:
        self._stats = stats
        self._attr = f"{stage}_time"
        self.seconds = 0.0

    def __enter__(self) -> "span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start
        setattr(
            self._stats,
            self._attr,
            getattr(self._stats, self._attr) + self.seconds,
        )
