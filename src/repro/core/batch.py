"""Batched enforcement — shared execution across updates (paper §9).

The paper's future work: *"there are several techniques such as batching
and shared execution across updates that apply within transactions, and
could therefore optimize the enforcement of partial referential
integrity in this context."*  This module holds what is specific to a
batch; the §6.1 definitions themselves live once, in
:mod:`repro.query.enforcement`, and both batch paths call them:

* :func:`batch_insert_rows` — writer locks for every row first, then the
  child-side case analysis per row with the surviving subsumption
  probes grouped by shape (one sorted, deduplicated walk per shape),
  then an index-major physical phase.  A transaction inserting 5,000
  children drawn from a few hundred parents descends a few hundred
  times instead of 5,000.
* :func:`batch_delete_parents` — delete all the parents physically
  first, then run the state loop once over every removed key, so each
  distinct (state, values) combination across the batch is probed a
  single time.

Both are all-or-nothing (one transaction when none is open) and leave
the table state the per-row path would (asserted by
tests/test_batch.py).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from ..concurrency import hooks
from ..constraints.foreign_key import EnforcementMode, ForeignKey
from ..query import dml, enforcement
from ..query.predicate import equalities
from ..testing.faults import fire
from ..triggers.framework import TriggerEvent
from ..triggers.partial_ri import _suspended_parent_triggers

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database


def _vector_plan(
    db: "Database", table_name: str
) -> list[tuple[ForeignKey, bool]] | None:
    """The child-side checks a vectorized insert batch must replicate.

    Returns the foreign keys to verify, in the per-row firing order
    (enabled ``_child_ins`` triggers first, then NATIVE-mode keys), with
    a flag marking the trigger-enforced ones (those charge
    ``trigger_invocations`` and fire the ``trigger.child_check`` fault
    point, exactly like :meth:`~repro.triggers.framework.Trigger.fire`).
    Returns None when the table cannot be vectorized faithfully: an
    enabled BEFORE/AFTER INSERT trigger we cannot model, or a
    self-referential key (its parent probes would have to observe the
    batch's own earlier rows).
    """
    child_triggers = {
        f"{fk.name}_child_ins": fk
        for fk in db.foreign_keys_on_child(table_name)
        if fk.enforcement is EnforcementMode.TRIGGER
    }
    checks: list[tuple[ForeignKey, bool]] = []
    for trigger in db.triggers.for_event(table_name, TriggerEvent.BEFORE_INSERT):
        if not trigger.enabled:
            continue
        fk = child_triggers.get(trigger.name)
        if fk is None or fk.parent_table == table_name:
            return None
        checks.append((fk, True))
    for trigger in db.triggers.for_event(table_name, TriggerEvent.AFTER_INSERT):
        if trigger.enabled:
            return None
    for fk in db.foreign_keys_on_child(table_name):
        if fk.enforcement is EnforcementMode.NATIVE:
            if fk.parent_table == table_name:
                return None
            checks.append((fk, False))
    return checks


def _check_children_vectorized(
    db: "Database",
    fk: ForeignKey,
    rows: Sequence[Sequence[Any]],
    as_trigger: bool,
) -> None:
    """Bulk twin of :func:`repro.query.enforcement.check_child_write`.

    The same case analysis per row
    (:func:`~repro.query.enforcement.subsumption_probe`), but the
    surviving probes are grouped by shape and handed to
    :func:`~repro.concurrency.hooks.verify_parent_exists_many` — one
    sorted, deduplicated walk per shape.  A failing batch reports the
    first violating row in arrival order, with the per-row message.
    """
    if as_trigger:
        db.tracker.count("trigger_invocations", len(rows))
    shapes: dict[tuple[str, ...], tuple[list[int], list[list[Any]]]] = {}
    for position, row in enumerate(rows):
        if as_trigger:
            fire("trigger.child_check")
        probe = enforcement.subsumption_probe(db, fk, row)
        if probe is None:
            continue
        columns, values = probe
        positions, values_list = shapes.setdefault(columns, ([], []))
        positions.append(position)
        values_list.append(values)
    failed: int | None = None
    for columns, (positions, values_list) in shapes.items():
        results = hooks.verify_parent_exists_many(db, fk, columns, values_list)
        for position, ok in zip(positions, results):
            if not ok and (failed is None or position < failed):
                failed = position
    if failed is not None:
        raise enforcement.no_reference(fk, rows[failed])


def batch_insert_rows(
    db: "Database",
    table_name: str,
    rows: Sequence[Sequence[Any]],
) -> list[int]:
    """Insert a K-row batch with vectorized enforcement and maintenance.

    The per-batch twin of K :func:`repro.query.dml.insert` calls, and
    the engine half of the server's ``batch`` op: writer locks for every
    row first, then each child-side foreign-key check over the whole
    batch at once (one sorted walk per distinct witness key instead of K
    arbitrary ones), then the physical phase — all heap rows, one
    index-maintenance run per index, statistics, undo log.  Logical
    counters and the resulting physical state are bit-identical to the
    per-row loop (asserted by the counter-parity tests); the batch is
    all-or-nothing (one transaction when none is open).

    Tables the vectorized plan cannot model faithfully — foreign
    triggers, self-referential keys — fall back to the per-row loop
    inside the same transaction.  Tables with candidate keys vectorize
    the probes but keep the physical phase per-row: a uniqueness check
    must observe the batch's own earlier rows.
    """
    table = db.table(table_name)
    validated = [table.schema.validate_row(row) for row in rows]
    if not validated:
        return []
    checks = _vector_plan(db, table_name)
    rids: list[int] = []

    def run() -> None:
        if checks is None:
            for row in validated:
                rids.append(dml.insert(db, table_name, row))
            return
        for row in validated:
            hooks.lock_for_insert(db, table_name, row)
        for fk, as_trigger in checks:
            _check_children_vectorized(db, fk, validated, as_trigger)
        candidate_keys = db.candidate_keys.get(table_name, ())
        if candidate_keys:
            # Uniqueness probes must see the batch's earlier rows: keep
            # the physical phase row-at-a-time (probes stay vectorized).
            for row in validated:
                for key in candidate_keys:
                    key.check_insert(db, row)
                fire("dml.insert.pre")
                rid = table.insert_row(row, pre_validated=True)
                dml._log_undo(db, ("insert", table_name, rid, row))
                fire("dml.insert.post")
                rids.append(rid)
            return
        for __ in validated:
            fire("dml.insert.pre")
        rids.extend(table.insert_rows(validated))
        for rid, row in zip(rids, validated):
            dml._log_undo(db, ("insert", table_name, rid, row))
        for __ in validated:
            fire("dml.insert.post")

    with db.begin_nested():
        run()
    return rids


def batch_delete_parents(
    db: "Database",
    fk: ForeignKey,
    keys: Sequence[Sequence[Any]],
) -> int:
    """Delete many parents with one shared state loop for the batch.

    Returns the number of deleted parents.  Equivalent to deleting the
    keys one by one under the §6.1 trigger, but the state loop
    (:func:`repro.query.enforcement.handle_parent_removed`) runs once
    over all the removed keys, after the last parent is gone.  A NATIVE
    key has no trigger to suspend: each delete already ran its action,
    so the shared loop runs only when the trigger was suspended.
    """
    deleted = 0
    with db.begin_nested():
        with _suspended_parent_triggers(db, fk) as suspended:
            for key in keys:
                deleted += dml.delete_where(
                    db, fk.parent_table, equalities(fk.key_columns, key)
                )
        if suspended:
            enforcement.handle_parent_removed(db, fk, keys)
    return deleted
