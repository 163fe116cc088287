"""The shard catalog: which shard owns which rows of which table.

Tables are hash-partitioned on their **FK-prefix**: a parent table
partitions on its referenced candidate key, and a child table partitions
on its foreign-key columns.  Because both sides hash the *same* value
tuple, a child row whose FK components are all non-NULL lands on the
same shard as its witness parent — the common case commits one-phase,
and only MATCH PARTIAL rows with NULL components (whose witness may
live anywhere) need a cross-shard two-phase commit.

Hashing must agree across processes and restarts, so it is crc32 over a
canonical JSON rendering of the partition values — Python's ``hash()``
is salted per process and would route every restart differently.

The catalog also declares the **index design** every shard enforces
with (:meth:`ShardCatalog.index_definitions`): per foreign key the
paper's Bounded structure, plus an index on each table's row-identity
column.  The coordinator provisions it (DESIGN.md §5i), so
the probes it issues — witness by key subset, child by id, child by
null-state pattern — are index ranges on every shard, not heap scans.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..constraints.foreign_key import ForeignKey
from ..core.strategies import IndexStructure, index_definitions
from ..errors import ReproError
from ..indexes.definition import IndexDefinition


class CatalogError(ReproError):
    """A table or column the catalog does not know about."""


def stable_hash(values: Sequence[Any]) -> int:
    """Deterministic cross-process hash of a partition-value tuple.

    ``None`` (SQL NULL) is a first-class input: a child row with NULL FK
    components still needs a stable home shard.
    """
    payload = json.dumps(list(values), separators=(",", ":"), sort_keys=False,
                         default=str)
    return zlib.crc32(payload.encode("utf-8"))


@dataclass(frozen=True)
class FkRoute:
    """One enforced foreign key, as the coordinator routes it."""

    parent_table: str
    parent_key: tuple[str, ...]
    child_columns: tuple[str, ...]
    set_null: bool = True

    def parent_equals(self, child_row: Mapping[str, Any]) -> dict[str, Any]:
        """The non-NULL FK components of *child_row*, keyed by the
        parent columns they reference (the witness-probe predicate)."""
        return {
            parent_col: child_row[child_col]
            for child_col, parent_col in zip(self.child_columns, self.parent_key)
            if child_row.get(child_col) is not None
        }


@dataclass(frozen=True)
class TableRoute:
    """Partitioning metadata for one table."""

    name: str
    columns: tuple[str, ...]
    partition: tuple[str, ...]
    fk: FkRoute | None = None
    #: Column whose values identify rows: operator reports (orphan
    #: listings) name rows by it, falling back to the first column when
    #: unset, and every shard indexes it (the local key check and
    #: select/delete by id).
    id_column: str | None = None

    def row_mapping(self, values: Sequence[Any]) -> dict[str, Any]:
        if len(values) != len(self.columns):
            raise CatalogError(
                f"table {self.name!r} takes {len(self.columns)} values, "
                f"got {len(values)}"
            )
        return dict(zip(self.columns, values))


@dataclass(frozen=True)
class ShardCatalog:
    """Maps tables to shards for a fixed shard count."""

    shards: int
    tables: dict[str, TableRoute] = field(default_factory=dict)

    def route(self, table: str) -> TableRoute:
        entry = self.tables.get(table)
        if entry is None:
            raise CatalogError(f"table {table!r} is not in the shard catalog")
        return entry

    def shard_for(self, table: str, row: Mapping[str, Any]) -> int:
        """The shard owning *row* (a column→value mapping; NULL is
        ``None``).  Every partition column must be present."""
        entry = self.route(table)
        try:
            values = [row[column] for column in entry.partition]
        except KeyError as exc:
            raise CatalogError(
                f"cannot route {table!r}: partition column {exc} missing"
            ) from exc
        return stable_hash(values) % self.shards

    def children_of(self, parent: str) -> list[tuple[str, FkRoute]]:
        return [
            (entry.name, entry.fk)
            for entry in self.tables.values()
            if entry.fk is not None and entry.fk.parent_table == parent
        ]

    def is_parent(self, table: str) -> bool:
        return bool(self.children_of(table))

    def index_definitions(self) -> dict[str, list[IndexDefinition]]:
        """Per table, the indexes every shard carries: the route's
        ``id_column`` and, for each foreign key, the paper's Bounded
        structure (§6.2) on its parent and child tables (named after the
        child table, so two constraints never collide)."""
        wanted: dict[str, list[IndexDefinition]] = {
            name: [] for name in self.tables
        }
        for entry in self.tables.values():
            if entry.id_column is not None:
                wanted[entry.name].append(IndexDefinition(
                    f"{entry.name}_{entry.id_column}", (entry.id_column,)
                ))
            fk = entry.fk
            if fk is None:
                continue
            parent_defs, child_defs = index_definitions(
                ForeignKey(
                    f"fk_{entry.name}", entry.name, fk.child_columns,
                    fk.parent_table, fk.parent_key,
                ),
                IndexStructure.BOUNDED,
            )
            wanted[fk.parent_table] += parent_defs
            wanted[entry.name] += child_defs
        return wanted

    def index_design(self) -> dict[str, list[dict[str, Any]]]:
        """:meth:`index_definitions` in wire form — the ``indexes``
        payload of the shard's ``provision`` op."""
        return {
            table: [
                {"name": d.name, "columns": list(d.columns)} for d in definitions
            ]
            for table, definitions in self.index_definitions().items()
        }


def build_chaos_catalog(shards: int) -> ShardCatalog:
    """The catalog for the chaos soak's P/C MATCH PARTIAL pair.

    Parent ``P`` partitions on its primary key ``(k1, k2)``; child ``C``
    partitions on its FK columns ``(k1, k2)`` — fully-referencing
    children co-locate with their witness parent.  Shards enforce under
    Bounded, with ``C.id`` indexed for the local key check.
    """
    fk = FkRoute(
        parent_table="P",
        parent_key=("k1", "k2"),
        child_columns=("k1", "k2"),
        set_null=True,
    )
    return ShardCatalog(
        shards=shards,
        tables={
            "P": TableRoute("P", ("k1", "k2"), ("k1", "k2")),
            "C": TableRoute("C", ("id", "k1", "k2"), ("k1", "k2"),
                            fk=fk, id_column="id"),
        },
    )
