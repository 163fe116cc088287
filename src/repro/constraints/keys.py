"""Candidate keys and primary keys: entity integrity.

A candidate key requires that no two rows agree on all key columns with
total values (SQL uniqueness ignores keys containing NULL).  A primary
key additionally requires all its columns to be NOT NULL — the kind of
referenced key the paper targets ("the referenced key is commonly the
primary key, or a candidate key where all columns are NOT NULL").
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from ..errors import KeyViolation, SchemaError
from ..nulls import NULL
from ..query import executor, probes
from ..query.predicate import Predicate, equalities

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database


class CandidateKey:
    """A uniqueness constraint over an ordered set of columns."""

    def __init__(self, table: str, columns: Sequence[str], name: str | None = None):
        if not columns:
            raise SchemaError("a key needs at least one column")
        if len(set(columns)) != len(columns):
            raise SchemaError(f"key lists a column twice: {columns}")
        self.table = table
        self.columns: tuple[str, ...] = tuple(columns)
        self.name = name or f"key_{table}_{'_'.join(columns)}"
        self._positions: tuple[int, ...] | None = None

    @property
    def requires_not_null(self) -> bool:
        return False

    def attach(self, db: "Database") -> None:
        """Validate against the catalog and cache column positions."""
        table = db.table(self.table)
        self._positions = table.schema.positions(self.columns)
        if self.requires_not_null:
            for column in self.columns:
                if table.schema.column(column).nullable:
                    raise SchemaError(
                        f"primary key column {column!r} of {self.table!r} "
                        "must be NOT NULL"
                    )

    def key_values(self, row: Sequence[Any]) -> tuple[Any, ...]:
        assert self._positions is not None, "key not attached to a database"
        return tuple(row[p] for p in self._positions)

    def match_predicate(self, values: Sequence[Any]) -> Predicate:
        return equalities(self.columns, values)

    def check_insert(
        self, db: "Database", row: Sequence[Any], ignore_rid: int | None = None
    ) -> None:
        """Raise :class:`KeyViolation` if *row* would duplicate a key.

        ``ignore_rid`` excludes one existing row (the UPDATE self-match).
        Keys containing NULL never collide, per SQL.  An INSERT asks one
        prepared LIMIT-1 probe (no predicate tree, no per-call plan);
        only the UPDATE case walks the matches to skip its own row.
        """
        values = self.key_values(row)
        if any(v is NULL for v in values):
            if self.requires_not_null:
                raise KeyViolation(
                    f"{self.name}: NULL in primary key columns {self.columns}"
                )
            return
        table = db.table(self.table)
        if ignore_rid is None:
            duplicate = probes.exists_eq(table, self.columns, values)
        else:
            duplicate = any(
                rid != ignore_rid
                for rid, __ in executor.iter_matching(
                    table, self.match_predicate(values)
                )
            )
        if duplicate:
            raise KeyViolation(
                f"{self.name}: duplicate key value {values!r} on {self.table}"
            )

    def describe(self) -> str:
        kind = "PRIMARY KEY" if self.requires_not_null else "UNIQUE"
        return f"{self.name}: {kind} {self.table}({', '.join(self.columns)})"


class PrimaryKey(CandidateKey):
    """A candidate key whose columns must all be NOT NULL."""

    def __init__(self, table: str, columns: Sequence[str], name: str | None = None):
        super().__init__(table, columns, name or f"pk_{table}")

    @property
    def requires_not_null(self) -> bool:
        return True
