"""Incrementally-maintained table statistics.

The planner costs access paths with per-column value distributions: the
exact number of rows carrying a given value in a column (for singleton
index probes) and distinct counts (for compound-prefix estimates under the
usual attribute-independence assumption).  Maintaining the counts
incrementally keeps planning O(1) per candidate.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import Any

from ..nulls import NULL


class ColumnStatistics:
    """Value histogram for one column (NULL counted separately)."""

    __slots__ = ("counts", "null_count")

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.null_count = 0

    def add(self, value: Any) -> None:
        if value is NULL:
            self.null_count += 1
        else:
            self.counts[value] += 1

    def remove(self, value: Any) -> None:
        if value is NULL:
            self.null_count -= 1
        else:
            self.counts[value] -= 1
            if self.counts[value] <= 0:
                del self.counts[value]

    @property
    def distinct(self) -> int:
        """Number of distinct non-null values currently present."""
        return len(self.counts)

    def frequency(self, value: Any) -> int:
        """Exact number of rows whose column equals *value*."""
        if value is NULL:
            return self.null_count
        return self.counts.get(value, 0)


class TableStatistics:
    """All column statistics of one table plus the row count."""

    def __init__(self, n_columns: int) -> None:
        self.columns = [ColumnStatistics() for __ in range(n_columns)]
        self.row_count = 0

    def add_row(self, row: Sequence[Any]) -> None:
        # ColumnStatistics.add, inlined: this runs once per insert
        for stat, value in zip(self.columns, row):
            if value is NULL:
                stat.null_count += 1
            else:
                stat.counts[value] += 1
        self.row_count += 1

    def remove_row(self, row: Sequence[Any]) -> None:
        for stat, value in zip(self.columns, row):
            stat.remove(value)
        self.row_count -= 1

    def update_row(self, old: Sequence[Any], new: Sequence[Any]) -> None:
        for stat, old_value, new_value in zip(self.columns, old, new):
            if old_value != new_value or (old_value is NULL) != (new_value is NULL):
                stat.remove(old_value)
                stat.add(new_value)

    # ------------------------------------------------------------------
    # Planner estimates

    def estimate_prefix(self, positions: Sequence[int], values: Sequence[Any]) -> float:
        """Estimated rows matching equality on several columns.

        Uses the exact count of the first column scaled down by the
        distinct counts of the remaining columns (independence
        assumption) — the classic System-R style estimate.
        """
        if not positions:
            return float(self.row_count)
        estimate = float(self.columns[positions[0]].frequency(values[0]))
        for pos in positions[1:]:
            distinct = self.columns[pos].distinct
            if distinct > 1:
                estimate /= distinct
        return max(estimate, 0.0)
