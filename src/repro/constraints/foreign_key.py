"""Foreign keys with the SQL MATCH semantics of the paper.

A referential integrity constraint ``CS[f1..fn] ⊆ PS[k1..kn]`` relates a
*child* (referencing) table to a *parent* (referenced) table (§3):

* **MATCH SIMPLE** — a child tuple with any NULL foreign-key component
  satisfies the constraint by default; total foreign-key values must be
  matched exactly by some parent key.
* **MATCH PARTIAL** — every child tuple must be *subsumed* by some parent
  key: each non-null component must match, whatever the null state.
* **MATCH FULL** — the foreign key must be entirely NULL or entirely
  total (and matched).

Enforcement is configured per constraint: ``NATIVE`` (the built-in check
in the DML layer, the "simple semantics" baseline of the experiments),
``TRIGGER`` (the paper's approach for partial semantics — triggers
installed by :mod:`repro.triggers.partial_ri`), or ``NONE`` (declared but
unenforced, for loading and for the integrity checker).
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from typing import TYPE_CHECKING, Any

from ..errors import SchemaError
from ..nulls import NULL, is_total
from ..query.predicate import Predicate, equalities
from .actions import ReferentialAction

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database


class MatchSemantics(str, Enum):
    """The SQL MATCH clause variants (§3)."""

    SIMPLE = "simple"
    PARTIAL = "partial"
    FULL = "full"


class EnforcementMode(str, Enum):
    """How a declared foreign key is enforced at runtime."""

    NATIVE = "native"
    TRIGGER = "trigger"
    NONE = "none"


class ForeignKey:
    """One referential integrity constraint between two tables."""

    def __init__(
        self,
        name: str,
        child_table: str,
        fk_columns: Sequence[str],
        parent_table: str,
        key_columns: Sequence[str],
        match: MatchSemantics = MatchSemantics.SIMPLE,
        on_delete: ReferentialAction = ReferentialAction.SET_NULL,
        on_update: ReferentialAction = ReferentialAction.SET_NULL,
        enforcement: EnforcementMode = EnforcementMode.NATIVE,
    ) -> None:
        if len(fk_columns) != len(key_columns):
            raise SchemaError(
                f"foreign key {name!r}: {len(fk_columns)} child columns vs "
                f"{len(key_columns)} parent columns"
            )
        if not fk_columns:
            raise SchemaError(f"foreign key {name!r} needs >= 1 column")
        if len(set(fk_columns)) != len(fk_columns):
            raise SchemaError(f"foreign key {name!r} repeats a child column")
        if len(set(key_columns)) != len(key_columns):
            raise SchemaError(f"foreign key {name!r} repeats a parent column")
        self.name = name
        self.child_table = child_table
        self.fk_columns: tuple[str, ...] = tuple(fk_columns)
        self.parent_table = parent_table
        self.key_columns: tuple[str, ...] = tuple(key_columns)
        self.match = match
        self.on_delete = on_delete
        self.on_update = on_update
        self.enforcement = enforcement
        self._fk_positions: tuple[int, ...] | None = None
        self._key_positions: tuple[int, ...] | None = None

    # ------------------------------------------------------------------

    @property
    def n_columns(self) -> int:
        return len(self.fk_columns)

    def validate_against(self, db: "Database") -> None:
        """Check both tables/columns exist; cache positions."""
        child = db.table(self.child_table)
        parent = db.table(self.parent_table)
        self._fk_positions = child.schema.positions(self.fk_columns)
        self._key_positions = parent.schema.positions(self.key_columns)
        for f_col, k_col in zip(self.fk_columns, self.key_columns):
            f_type = child.schema.column(f_col).dtype
            k_type = parent.schema.column(k_col).dtype
            if f_type != k_type:
                raise SchemaError(
                    f"foreign key {self.name!r}: domain mismatch "
                    f"{self.child_table}.{f_col} ({f_type.value}) vs "
                    f"{self.parent_table}.{k_col} ({k_type.value})"
                )

    # ------------------------------------------------------------------
    # Row projections

    def child_values(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """The foreign-key components of a child row."""
        assert self._fk_positions is not None, f"{self.name!r} not validated"
        return tuple(row[p] for p in self._fk_positions)

    def parent_values(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """The referenced-key components of a parent row."""
        assert self._key_positions is not None, f"{self.name!r} not validated"
        return tuple(row[p] for p in self._key_positions)

    @property
    def fk_positions(self) -> tuple[int, ...]:
        assert self._fk_positions is not None, f"{self.name!r} not validated"
        return self._fk_positions

    # ------------------------------------------------------------------
    # Predicates used by enforcement

    def parent_match_predicate(self, child_fk: Sequence[Any]) -> Predicate:
        """Parent rows whose key matches the *total* components of
        ``child_fk`` (the subsumption probe of partial semantics)."""
        columns = [
            k for k, v in zip(self.key_columns, child_fk) if v is not NULL
        ]
        values = [v for v in child_fk if v is not NULL]
        return equalities(columns, values)

    def child_state_predicate(self, parent_key: Sequence[Any], null_state: Sequence[int]) -> Predicate:
        """Child rows in the given null *state* referencing ``parent_key``.

        ``null_state`` lists the 0-based FK positions that must be NULL;
        the remaining positions must equal the parent's key values.
        """
        values = [
            NULL if i in null_state else parent_key[i]
            for i in range(self.n_columns)
        ]
        return equalities(self.fk_columns, values)

    def exact_child_predicate(self, parent_key: Sequence[Any]) -> Predicate:
        """Child rows whose FK totally equals ``parent_key``."""
        return equalities(self.fk_columns, parent_key)

    # ------------------------------------------------------------------
    # Satisfaction tests (value level, no database access)

    def row_satisfiable_without_lookup(self, child_fk: Sequence[Any]) -> bool:
        """True when the child value needs no parent search at all.

        SIMPLE: any NULL component. FULL: all NULL. PARTIAL: all NULL
        (an all-null child is subsumed by every parent, but the SQL
        standard still deems it satisfied even on an empty parent table —
        we follow the weaker reading used by the paper's triggers, which
        skip fully-null foreign keys).
        """
        if self.match is MatchSemantics.SIMPLE:
            return not is_total(child_fk)
        if self.match is MatchSemantics.FULL:
            return all(v is NULL for v in child_fk)
        return all(v is NULL for v in child_fk)

    def row_violates_shape(self, child_fk: Sequence[Any]) -> bool:
        """MATCH FULL's shape rule: partially-null FKs are invalid."""
        if self.match is not MatchSemantics.FULL:
            return False
        nulls = sum(1 for v in child_fk if v is NULL)
        return 0 < nulls < len(child_fk)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.child_table}[{', '.join(self.fk_columns)}] ⊆ "
            f"{self.parent_table}[{', '.join(self.key_columns)}] "
            f"MATCH {self.match.value.upper()} "
            f"ON DELETE {self.on_delete.sql()} "
            f"({self.enforcement.value})"
        )
