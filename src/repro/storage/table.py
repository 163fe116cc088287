"""Tables: schema + heap + indexes + statistics, kept in lockstep.

:class:`Table` offers *physical* row operations only — no constraints, no
triggers.  Logical DML (with integrity enforcement) lives in
:mod:`repro.query.dml`, which calls down into this layer.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from ..errors import SchemaError
from ..indexes.cost import CostTracker
from ..indexes.definition import IndexDefinition
from ..indexes.manager import IndexManager, TableIndex
from .heap import HeapFile, Row
from .schema import Column, TableSchema
from .statistics import TableStatistics


class Table:
    """One table: named, typed, indexed, instrumented."""

    def __init__(
        self,
        name: str,
        schema: TableSchema | Iterable[Column],
        tracker: CostTracker | None = None,
        index_order: int = 64,
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.schema = schema if isinstance(schema, TableSchema) else TableSchema(schema)
        self.heap = HeapFile()
        self.tracker = tracker if tracker is not None else CostTracker()
        self.indexes = IndexManager(self.tracker, index_order)
        self.statistics = TableStatistics(len(self.schema))
        # Plan cache: predicate shape -> (index name, prefix cols, filter?).
        # Owned here (not in the planner) so it dies with the table.
        self._plan_cache: dict = {}
        # Prepared-probe cache: (columns, null_columns) -> PreparedProbe.
        # Managed by repro.query.probes; entries re-plan themselves when
        # ``indexes.version`` moves (the catalog epoch counter).
        self._probe_cache: dict = {}

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def row_count(self) -> int:
        return len(self.heap)

    def __repr__(self) -> str:
        return (
            f"<Table {self.name}: {len(self.heap)} rows, "
            f"{len(self.indexes)} indexes>"
        )

    # ------------------------------------------------------------------
    # Physical row operations

    def insert_row(
        self,
        values: Sequence[Any] | Mapping[str, Any],
        pre_validated: bool = False,
    ) -> int:
        """Validate and store one row, maintaining indexes + statistics.

        ``pre_validated`` skips re-validation when the caller already
        holds a row produced by ``schema.validate_row`` (the logical DML
        layer validates before firing triggers).
        """
        if pre_validated:
            row = tuple(values)
        elif isinstance(values, Mapping):
            row = self.schema.row_from_mapping(values)
        else:
            row = self.schema.validate_row(values)
        rid = self.heap.insert(row)
        try:
            self.indexes.insert_row(rid, row)
        except Exception:
            self.heap.delete(rid)
            raise
        self.statistics.add_row(row)
        return rid

    def insert_rows(self, rows: Sequence[Row]) -> list[int]:
        """Store a batch of pre-validated rows with one index run.

        Heap first (rids are allocated in arrival order, exactly as a
        loop of :meth:`insert_row` would), then a single index-major
        maintenance pass (:meth:`IndexManager.insert_rows` — one
        structure run per index instead of one fan-out per row), then
        statistics.  A failing index run removes the batch's heap rows
        again, so a raising batch leaves the table untouched.
        """
        rids = [self.heap.insert(row) for row in rows]
        try:
            self.indexes.insert_rows(list(zip(rids, rows)))
        except Exception:
            for rid in reversed(rids):
                self.heap.delete(rid)
            raise
        for row in rows:
            self.statistics.add_row(row)
        return rids

    def delete_rid(self, rid: int) -> Row:
        """Remove the row at *rid*, maintaining indexes + statistics."""
        row = self.heap.get(rid)
        self.indexes.delete_row(rid, row)
        self.heap.delete(rid)
        self.statistics.remove_row(row)
        return row

    def update_rid(
        self, rid: int, new_values: Sequence[Any], pre_validated: bool = False
    ) -> tuple[Row, Row]:
        """Replace the row at *rid*; returns (old_row, new_row)."""
        new_row = tuple(new_values) if pre_validated else self.schema.validate_row(new_values)
        old_row = self.heap.get(rid)
        self.indexes.update_row(rid, old_row, new_row)
        self.heap.update(rid, new_row)
        self.statistics.update_row(old_row, new_row)
        return old_row, new_row

    def restore_row(self, rid: int, row: Row) -> None:
        """Undo-log path: put a deleted row back at its original rid."""
        self.heap.restore(rid, row)
        self.indexes.insert_row(rid, row)
        self.statistics.add_row(row)

    def get_row(self, rid: int) -> Row:
        return self.heap.get(rid)

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Physical full scan (no cost accounting — the executor counts)."""
        return self.heap.scan()

    # ------------------------------------------------------------------
    # Index administration

    def create_indexes(
        self, definitions: Sequence[IndexDefinition]
    ) -> list[TableIndex]:
        """Create indexes and build them over the current rows, all in
        one heap scan (:meth:`IndexManager.create`); all or none."""
        positions = self.schema.positions
        return self.indexes.create(
            [(d, positions(d.columns)) for d in definitions], self.heap.scan()
        )

    def create_index(self, definition: IndexDefinition) -> TableIndex:
        """Create one index and build it over the current rows."""
        return self.create_indexes([definition])[0]

    def drop_index(self, name: str) -> None:
        self.indexes.drop(name)

    # ------------------------------------------------------------------
    # Convenience projections

    def project(self, row: Sequence[Any], names: Sequence[str]) -> tuple[Any, ...]:
        return self.schema.project(row, names)

    def rows(self) -> list[Row]:
        """Materialise every row (test/report helper, not a hot path)."""
        return [row for __, row in self.heap.scan()]
