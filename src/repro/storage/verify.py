"""Whole-database physical + logical integrity verification.

:func:`verify_integrity` answers the question a crash-recovery test (or
an operator after one) has to be able to ask: *do this database's heaps,
indexes, statistics and declared constraints still agree with each
other?*  Three layers are cross-checked:

1. **heap ↔ index agreement** — for every index of every table: the
   entry count equals the row count, every heap row is indexed exactly
   once under exactly the key its current column values encode, no entry
   dangles (points at a missing rid or carries a stale key), and B+ tree
   structural invariants hold;
2. **statistics** — the incrementally-maintained per-column histograms
   equal a from-scratch recount of the heap;
3. **constraints** — every registered candidate key and foreign key is
   re-validated from scratch under its MATCH semantics
   (:func:`repro.constraints.checker.check_database`).

With MVCC enabled a fourth layer rides along: every table's version
chains must be well-formed (strictly decreasing LSNs, no empty chains,
and the head of every non-pending chain equal to the committed tip) —
see :meth:`repro.storage.versions.VersionStore.check_well_formed`.

The report is hierarchical (per table, per index) so the ``python -m
repro verify`` CLI can print exactly where a disagreement lives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..nulls import NULL

if TYPE_CHECKING:  # pragma: no cover
    from ..constraints.checker import Violation
    from .database import Database
    from .table import Table


@dataclass
class IndexReport:
    """Verification outcome for one index."""

    name: str
    columns: tuple[str, ...]
    entries: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class TableReport:
    """Verification outcome for one table."""

    name: str
    rows: int
    indexes: list[IndexReport] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and all(ix.ok for ix in self.indexes)


@dataclass
class IntegrityReport:
    """The full cross-check result for one database."""

    database: str
    tables: list[TableReport] = field(default_factory=list)
    constraint_violations: list["Violation"] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            all(t.ok for t in self.tables) and not self.constraint_violations
        )

    def problems(self) -> list[str]:
        """Every problem found, flattened with its location."""
        out: list[str] = []
        for table in self.tables:
            out.extend(f"{table.name}: {p}" for p in table.problems)
            for index in table.indexes:
                out.extend(
                    f"{table.name}.{index.name}: {p}" for p in index.problems
                )
        out.extend(str(v) for v in self.constraint_violations)
        return out

    def render(self) -> str:
        """Per-table / per-index report for the CLI."""
        lines = [f"integrity check: database {self.database!r}"]
        for table in self.tables:
            mark = "ok" if table.ok else "FAIL"
            lines.append(f"  table {table.name} ({table.rows} rows): {mark}")
            for problem in table.problems:
                lines.append(f"    ! {problem}")
            for index in table.indexes:
                imark = "ok" if index.ok else "FAIL"
                cols = ", ".join(index.columns)
                lines.append(
                    f"    index {index.name} ({cols}): "
                    f"{index.entries} entries: {imark}"
                )
                for problem in index.problems:
                    lines.append(f"      ! {problem}")
        if self.constraint_violations:
            lines.append(
                f"  constraint violations: {len(self.constraint_violations)}"
            )
            for violation in self.constraint_violations:
                lines.append(f"    ! {violation}")
        else:
            lines.append("  constraints: ok")
        lines.append(f"verdict: {'ok' if self.ok else 'CORRUPT'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------


def _verify_indexes(table: "Table") -> list[IndexReport]:
    """Check every index of *table* against its heap.

    Forward, row by row: each row is encoded once for all the indexes
    (:meth:`IndexManager.encode_rows`), and each index must hold the
    entry its :attr:`~TableIndex.entry_of` picks out of that encoding.
    Backward, index by index: no entry may dangle, and an entry of a
    row whose own entry is missing carries a stale key.  A row indexed
    under its own key and another one as well is reported as indexed
    more than once.  No encoding outlives its row, so the check holds
    no more than the heap's rid map at a time.
    """
    from ..indexes.btree import BPlusTree

    indexes = list(table.indexes)
    if not indexes:
        return []
    rows = dict(table.heap.scan_unordered())
    reports: list[IndexReport] = []
    for index in indexes:
        report = IndexReport(
            name=index.name, columns=index.columns, entries=len(index)
        )
        if len(index) != len(rows):
            report.problems.append(
                f"entry count {len(index)} != row count {len(rows)}"
            )
        reports.append(report)
    missing: list[set[int]] = [set() for __ in indexes]
    for encoded_row in table.indexes.encode_rows(rows.items()):
        rid = encoded_row[-1]
        for index, report, lost in zip(indexes, reports, missing):
            entry = index.entry_of(encoded_row)
            if not index._structure.contains(entry[:-1], rid):
                report.problems.append(f"row rid={rid} missing from index")
                lost.add(rid)
    for index, report, lost in zip(indexes, reports, missing):
        seen_rids: Counter = Counter()
        for entry in index.scan_all():
            rid = entry[-1]
            seen_rids[rid] += 1
            if rid not in rows:
                report.problems.append(f"dangling entry rid={rid}")
            elif rid in lost:
                report.problems.append(
                    f"stale entry rid={rid}: indexed key {entry[:-1]!r} != row key"
                )
        duplicated = [rid for rid, count in seen_rids.items() if count > 1]
        if duplicated:
            report.problems.append(f"rids indexed more than once: {duplicated!r}")
        structure = index._structure
        if isinstance(structure, BPlusTree):
            try:
                structure.check_invariants()
            except AssertionError as exc:
                report.problems.append(f"b+tree invariant broken: {exc}")
    return reports


def _verify_statistics(table: "Table") -> list[str]:
    problems: list[str] = []
    stats = table.statistics
    if stats.row_count != len(table.heap):
        problems.append(
            f"statistics row count {stats.row_count} != heap {len(table.heap)}"
        )
    expected = [Counter() for __ in range(len(table.schema))]
    expected_nulls = [0] * len(table.schema)
    for __, row in table.heap.scan_unordered():
        for position, value in enumerate(row):
            if value is NULL:
                expected_nulls[position] += 1
            else:
                expected[position][value] += 1
    for position, column in enumerate(stats.columns):
        if column.counts != expected[position]:
            problems.append(
                f"column {table.schema.column_names[position]!r} histogram drifted"
            )
        if column.null_count != expected_nulls[position]:
            problems.append(
                f"column {table.schema.column_names[position]!r} null count "
                f"{column.null_count} != {expected_nulls[position]}"
            )
    return problems


def verify_integrity(db: "Database") -> IntegrityReport:
    """Cross-check every table, index, histogram and constraint of *db*."""
    from ..constraints.checker import check_database

    report = IntegrityReport(database=db.name)
    versions = db.versions
    for table in db.tables.values():
        table_report = TableReport(name=table.name, rows=table.row_count)
        table_report.problems.extend(_verify_statistics(table))
        if versions is not None:
            table_report.problems.extend(
                versions.check_well_formed(table.name)
            )
        table_report.indexes.extend(_verify_indexes(table))
        report.tables.append(table_report)
    # Constraint re-validation probes through the planner; the physical
    # checks above already established that heap and indexes agree, so
    # index-backed probes are trustworthy here (and if they are not, the
    # report is already failing).
    report.constraint_violations = check_database(db)
    return report
