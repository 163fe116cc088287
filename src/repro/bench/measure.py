"""Measurement utilities: per-operation wall time plus logical costs.

The paper reports the *average* and *maximum* execution time over 5,000
operations per cell.  We report the same statistics over a scaled
operation count, plus the deterministic logical-cost counters
(:mod:`repro.indexes.cost`) which are machine-independent and therefore
the auditable half of the reproduction.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from ..indexes.cost import CostSnapshot, CostTracker

#: The list :func:`recording` collects into, or None outside one.
_recorded: list["Measurement"] | None = None


@dataclass
class Measurement:
    """Timing + cost statistics of one batch of operations."""

    label: str
    durations: list[float] = field(default_factory=list)
    cost: CostSnapshot = field(default_factory=CostSnapshot)

    @property
    def count(self) -> int:
        return len(self.durations)

    @property
    def total_s(self) -> float:
        return sum(self.durations)

    @property
    def avg_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    @property
    def max_s(self) -> float:
        return max(self.durations) if self.durations else 0.0

    @property
    def avg_ms(self) -> float:
        return self.avg_s * 1_000

    @property
    def max_ms(self) -> float:
        return self.max_s * 1_000

    def cost_per_op(self, counter: str) -> float:
        if not self.count:
            return 0.0
        return self.cost[counter] / self.count

    def summary(self) -> str:
        return (
            f"{self.label}: n={self.count} avg={self.avg_ms:.3f}ms "
            f"max={self.max_ms:.3f}ms logical={self.cost.total_logical_cost()}"
        )


def measure_ops(
    label: str,
    operation: Callable[[Any], Any],
    items: Iterable[Any],
    tracker: CostTracker | None = None,
) -> Measurement:
    """Run *operation* once per item, timing each call individually."""
    measurement = Measurement(label)
    before = tracker.snapshot() if tracker is not None else None
    perf = time.perf_counter
    for item in items:
        start = perf()
        operation(item)
        measurement.durations.append(perf() - start)
    if tracker is not None and before is not None:
        measurement.cost = tracker.snapshot().diff(before)
    return _record(measurement)


def measure_block(
    label: str,
    block: Callable[[], Any],
    tracker: CostTracker | None = None,
) -> Measurement:
    """Time a single block (index builds, whole transactions)."""
    before = tracker.snapshot() if tracker is not None else None
    start = time.perf_counter()
    block()
    duration = time.perf_counter() - start
    measurement = Measurement(label, [duration])
    if tracker is not None and before is not None:
        measurement.cost = tracker.snapshot().diff(before)
    return _record(measurement)


def _record(measurement: Measurement) -> Measurement:
    if _recorded is not None:
        _recorded.append(measurement)
    return measurement


@contextmanager
def recording() -> Iterator[list[Measurement]]:
    """Collect every measurement taken inside the block, in call order."""
    global _recorded
    outer, _recorded = _recorded, []
    try:
        yield _recorded
    finally:
        _recorded = outer
