"""Logical DML: inserts, deletes and updates with full enforcement.

Statement flow (modelled on MySQL, which the paper's experiments used):

``INSERT INTO C``
    BEFORE INSERT triggers → key checks → native FK child checks →
    physical insert → AFTER INSERT triggers.

``DELETE FROM P``
    per victim row: BEFORE DELETE triggers → native RESTRICT checks →
    physical delete → native referential actions → AFTER DELETE triggers
    (where the paper's generated partial-semantics trigger lives).

``UPDATE``
    per row: treated as the paper treats it — the parent side only
    matters when key columns change (delete + insert), the child side
    re-checks the new foreign-key value.

Every row touched is recorded in the active transaction's undo log (if a
transaction is open) so batched update experiments (§7.4) can roll back.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from ..concurrency import hooks
from ..constraints.foreign_key import EnforcementMode
from ..errors import QueryError
from ..storage.heap import Row
from ..testing.faults import fire
from ..triggers.framework import TriggerEvent
from . import enforcement, executor
from .predicate import Predicate

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database
    from ..storage.table import Table


def _log_undo(db: "Database", entry: tuple) -> None:
    txn = db.active_transaction
    wal = db.wal
    versions = db.versions
    if txn is None and wal is None and versions is None:
        return  # the bare engine: nothing records the row
    if txn is not None:
        txn.log(entry)
    elif wal is not None:
        # Auto-commit: each statement is its own tiny transaction.
        wal.log_autocommit(entry)
    if versions is not None:
        versions.on_mutation(entry, txn)


# ----------------------------------------------------------------------
# INSERT


def insert(db: "Database", table_name: str, values: Sequence[Any] | Mapping[str, Any]) -> int:
    """Insert one row with full integrity enforcement; returns the rid."""
    table = db.table(table_name)
    if isinstance(values, Mapping):
        row = table.schema.row_from_mapping(values)
    else:
        row = table.schema.validate_row(values)

    # Multi-session: writer locks come first, before any check reads
    # state that a concurrent transaction could still change.
    hooks.lock_for_insert(db, table_name, row)
    db.triggers.fire(db, table_name, TriggerEvent.BEFORE_INSERT, None, row)

    for key in db.candidate_keys.get(table_name, ()):
        key.check_insert(db, row)
    for fk in db.foreign_keys_on_child(table_name):
        if fk.enforcement is EnforcementMode.NATIVE:
            enforcement.check_child_write(db, fk, row)

    fire("dml.insert.pre")
    rid = table.insert_row(row, pre_validated=True)
    _log_undo(db, ("insert", table_name, rid, row))
    fire("dml.insert.post")
    db.triggers.fire(db, table_name, TriggerEvent.AFTER_INSERT, None, row, rid)
    return rid


# ----------------------------------------------------------------------
# DELETE


def delete_where(
    db: "Database", table_name: str, predicate: Predicate | None = None
) -> int:
    """Delete all matching rows; returns how many were removed."""
    table = db.table(table_name)
    victims = list(executor.iter_matching(table, predicate))
    removed = 0
    for rid, row in victims:
        removed += delete_rid(db, table_name, rid, row) is not None
    return removed


def _changed_while_locking(table: "Table", rid: int, row: Row) -> bool:
    """Whether the row a statement read at *rid* is gone or different
    once its locks are granted: the read saw the tip, so it may have
    been another transaction's uncommitted write, rolled back since."""
    return rid not in table.heap or table.get_row(rid) != row


def delete_rid(
    db: "Database", table_name: str, rid: int, row: Row | None = None
) -> Row | None:
    """Delete one row by rid, with triggers and referential actions.
    None when the row changed while the delete waited for its locks."""
    table = db.table(table_name)
    if row is None:
        row = table.get_row(rid)

    # Multi-session: X on the victim's candidate keys and, when this
    # table is a referenced parent, on its referenced-key values — the
    # delete side of the phantom-parent handshake (witness pins hold S
    # on the key they adopted).
    hooks.lock_for_delete(db, table_name, row)
    if _changed_while_locking(table, rid, row):
        return None
    db.triggers.fire(db, table_name, TriggerEvent.BEFORE_DELETE, row, None, rid)
    native_fks = [
        fk
        for fk in db.foreign_keys_on_parent(table_name)
        if fk.enforcement is EnforcementMode.NATIVE
    ]
    for fk in native_fks:
        enforcement.restrict_parent_remove(db, fk, row, None, rid, fk.on_delete)

    fire("dml.delete.pre")
    table.delete_rid(rid)
    _log_undo(db, ("delete", table_name, rid, row))
    fire("dml.delete.post")

    for fk in native_fks:
        enforcement.handle_parent_removed(db, fk, [fk.parent_values(row)])
    db.triggers.fire(db, table_name, TriggerEvent.AFTER_DELETE, row, None, rid)
    return row


# ----------------------------------------------------------------------
# UPDATE


def update_where(
    db: "Database",
    table_name: str,
    assignments: Mapping[str, Any],
    predicate: Predicate | None = None,
) -> int:
    """Update all matching rows; returns how many were changed."""
    if not assignments:
        raise QueryError("UPDATE needs at least one assignment")
    table = db.table(table_name)
    positions = {table.schema.position(c): v for c, v in assignments.items()}
    victims = list(executor.iter_matching(table, predicate))
    changed = 0
    for rid, old_row in victims:
        new_row = tuple(
            positions.get(i, v) for i, v in enumerate(old_row)
        )
        if new_row == old_row:
            continue
        changed += update_rid(db, table_name, rid, new_row, old_row) is not None
    return changed


def update_rid(
    db: "Database",
    table_name: str,
    rid: int,
    new_values: Sequence[Any],
    old_row: Row | None = None,
) -> tuple[Row, Row] | None:
    """Update one row by rid, with triggers and referential actions.
    None when the row changed while the update waited for its locks."""
    table = db.table(table_name)
    if old_row is None:
        old_row = table.get_row(rid)
    new_row = table.schema.validate_row(new_values)

    hooks.lock_for_update(db, table_name, old_row, new_row)
    if _changed_while_locking(table, rid, old_row):
        return None
    db.triggers.fire(db, table_name, TriggerEvent.BEFORE_UPDATE, old_row, new_row, rid)

    for key in db.candidate_keys.get(table_name, ()):
        key.check_insert(db, new_row, ignore_rid=rid)
    for fk in db.foreign_keys_on_child(table_name):
        if fk.enforcement is EnforcementMode.NATIVE:
            if fk.child_values(new_row) != fk.child_values(old_row):
                enforcement.check_child_write(db, fk, new_row)

    # Parent-side: an update of referenced key columns acts as a delete
    # followed by an insert of the new key (paper §3).
    native_parent_fks = [
        fk
        for fk in db.foreign_keys_on_parent(table_name)
        if fk.enforcement is EnforcementMode.NATIVE
        and fk.parent_values(new_row) != fk.parent_values(old_row)
    ]
    for fk in native_parent_fks:
        enforcement.restrict_parent_remove(db, fk, old_row, new_row, rid, fk.on_update)

    fire("dml.update.pre")
    table.update_rid(rid, new_row, pre_validated=True)
    _log_undo(db, ("update", table_name, rid, old_row, new_row))
    fire("dml.update.post")

    for fk in native_parent_fks:
        enforcement.handle_parent_removed(
            db, fk, [fk.parent_values(old_row)], fk.on_update
        )
    db.triggers.fire(db, table_name, TriggerEvent.AFTER_UPDATE, old_row, new_row, rid)
    return old_row, new_row
