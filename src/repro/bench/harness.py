"""The experiment harness: build → enforce → measure cells.

A *cell* is one (index structure, data size) combination measured for one
operation kind, matching one table cell of the paper.  The harness:

1. generates the synthetic dataset (bulk load, no indexes — load time is
   reported separately, Table 4),
2. applies the index structure and installs enforcement (partial
   semantics via the generated triggers, or the built-in simple-semantics
   baseline),
3. replays a deterministic operation stream, timing each operation and
   capturing the logical-cost counters.

Datasets are regenerated per cell from the same seed, so every structure
sees byte-identical data and operation streams.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from ..constraints.foreign_key import ForeignKey, MatchSemantics
from ..core.enforcement import EnforcedForeignKey
from ..core.strategies import IndexStructure
from ..query import dml
from ..query.predicate import equalities
from ..workloads import synthetic
from .measure import Measurement, measure_block, measure_ops

#: Pseudo-structure label for the built-in simple-semantics baseline.
SIMPLE_BASELINE = "Simple Semantics"


@dataclass
class PreparedCell:
    """A dataset with enforcement installed, ready to measure."""

    dataset: synthetic.SyntheticDataset
    efk: EnforcedForeignKey
    build: Measurement
    load: Measurement

    @property
    def db(self):
        return self.dataset.db

    @property
    def fk(self) -> ForeignKey:
        return self.efk.fk


def prepare_cell(
    config: synthetic.SyntheticConfig,
    structure: IndexStructure,
    simple: bool = False,
) -> PreparedCell:
    """Generate, index and enforce one cell.

    ``simple=True`` runs the paper's baseline: the same foreign key under
    MATCH SIMPLE with native (built-in) enforcement and the Full index
    structure, which is what a MySQL foreign-key declaration provides.
    """
    load_holder: dict[str, Any] = {}

    def do_load() -> None:
        load_holder["dataset"] = synthetic.generate(config)

    load = measure_block("load", do_load)
    dataset: synthetic.SyntheticDataset = load_holder["dataset"]

    if simple:
        fk = ForeignKey(
            dataset.fk.name,
            dataset.fk.child_table,
            dataset.fk.fk_columns,
            dataset.fk.parent_table,
            dataset.fk.key_columns,
            match=MatchSemantics.SIMPLE,
            on_delete=dataset.fk.on_delete,
        )
        structure = IndexStructure.FULL
    else:
        fk = dataset.fk

    efk_holder: dict[str, Any] = {}

    def do_build() -> None:
        efk_holder["efk"] = EnforcedForeignKey.create(dataset.db, fk, structure)

    build = measure_block("index build", do_build, dataset.db.tracker)
    return PreparedCell(dataset, efk_holder["efk"], build, load)


def run_insert_cell(
    cell: PreparedCell,
    rows: Sequence[tuple[Any, ...]] | None = None,
    count: int = 100,
    label: str | None = None,
) -> Measurement:
    """Insert *rows* (or a fresh stream of *count*) into the child table."""
    if rows is None:
        rows = synthetic.insert_stream(cell.dataset, count)
    child = cell.fk.child_table
    db = cell.db
    return measure_ops(
        label or "insert",
        lambda row: dml.insert(db, child, row),
        rows,
        db.tracker,
    )


def run_delete_cell(
    cell: PreparedCell,
    keys: Sequence[tuple[int, ...]] | None = None,
    count: int = 25,
    from_unique: bool | None = None,
    label: str | None = None,
) -> Measurement:
    """Delete parents by key from the parent table."""
    if keys is None:
        keys = synthetic.delete_stream(cell.dataset, count, from_unique=from_unique)
    parent = cell.fk.parent_table
    key_columns = cell.fk.key_columns
    db = cell.db

    def delete_one(key: tuple[int, ...]) -> None:
        dml.delete_where(db, parent, equalities(key_columns, key))

    return measure_ops(label or "delete", delete_one, keys, db.tracker)


def run_transaction_cell(
    cell: PreparedCell,
    insert_count: int,
    delete_count: int,
) -> tuple[Measurement, Measurement]:
    """§7.4: one transaction of inserts, one transaction of deletes."""
    rows = synthetic.insert_stream(cell.dataset, insert_count)
    keys = synthetic.delete_stream(cell.dataset, delete_count, seed=29)
    db = cell.db
    child = cell.fk.child_table
    parent = cell.fk.parent_table
    key_columns = cell.fk.key_columns

    def insert_txn() -> None:
        with db.begin():
            for row in rows:
                dml.insert(db, child, row)

    def delete_txn() -> None:
        with db.begin():
            for key in keys:
                dml.delete_where(db, parent, equalities(key_columns, key))

    inserts = measure_block(f"txn {insert_count} inserts", insert_txn, db.tracker)
    deletes = measure_block(f"txn {delete_count} deletes", delete_txn, db.tracker)
    return inserts, deletes


def structure_label(structure: IndexStructure, simple: bool = False) -> str:
    return SIMPLE_BASELINE if simple else structure.label
