"""Batched enforcement — shared execution across updates (paper §9).

The paper's future work: *"there are several techniques such as batching
and shared execution across updates that apply within transactions, and
could therefore optimize the enforcement of partial referential
integrity in this context."*  This module implements both batching ideas
and makes them measurable against the per-row trigger path:

* :func:`batch_insert_children` — group the batch's foreign-key values
  by their total-component projection; one subsumption probe certifies
  every row sharing it.  A transaction inserting 5,000 children drawn
  from a few hundred parents runs a few hundred probes instead of 5,000.
* :func:`batch_delete_parents` — delete the parents physically first,
  then run the §6.1 state loop once per *distinct* (state, values)
  combination across the whole batch instead of once per deleted row.
  Deleting 2,000 parents probes each affected state-value combination a
  single time.

Both run inside one transaction and fall back to per-row semantics
exactly: the observable table state equals what the per-row triggers
would produce (asserted by tests/test_batch.py).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from ..concurrency import hooks
from ..constraints.foreign_key import EnforcementMode, ForeignKey, MatchSemantics
from ..errors import ReferentialIntegrityViolation
from ..nulls import NULL, is_total
from ..query import dml, probes
from ..query.enforcement import _apply_action_scoped, _subsumption_shape
from ..query.predicate import equalities
from ..testing.faults import fire
from ..triggers.framework import TriggerEvent
from ..triggers.partial_ri import _suspended_child_checks, _suspended_parent_triggers
from .states import iter_null_states, state_of

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database


def batch_insert_children(
    db: "Database",
    fk: ForeignKey,
    rows: Sequence[Sequence[Any]],
    atomic: bool = True,
) -> list[int]:
    """Insert many child rows with shared subsumption probes.

    Raises on the first violating row; with ``atomic=True`` (default) the
    whole batch rolls back in that case, as inside one transaction.
    Returns the inserted rids.
    """
    child = db.table(fk.child_table)
    parent = db.table(fk.parent_table)

    validated = [child.schema.validate_row(row) for row in rows]

    # Shared probes: one per distinct total-component projection.
    verified: set[tuple] = set()
    for row in validated:
        fk_value = fk.child_values(row)
        state = state_of(fk_value)
        if len(state) == fk.n_columns:
            continue  # fully null: satisfied without lookup
        totals = tuple(
            (i, fk_value[i]) for i in range(fk.n_columns) if fk_value[i] is not NULL
        )
        if totals in verified:
            continue
        columns = [fk.key_columns[i] for i, __ in totals]
        values = [v for __, v in totals]
        fire("batch.probe")
        db.tracker.count("state_checks")
        if not probes.exists_eq(parent, columns, values):
            raise ReferentialIntegrityViolation(
                f"{fk.name}: no reference is found for {fk_value!r}, "
                "enter a valid value"
            )
        verified.add(totals)

    rids: list[int] = []

    def run() -> None:
        # The batch is already verified; suspend the per-row checks so
        # the probes are not repeated (that is the whole optimisation).
        # Each row gets its own nested scope (savepoint inside a
        # transaction, tiny transaction outside one): a row that fails a
        # remaining per-row check — another foreign key, a candidate key
        # — unwinds only its own writes, leaving the earlier rows fully
        # indexed whatever the caller decides to do with the error.
        with _suspended_child_checks(db, fk):
            for row in validated:
                fire("batch.insert_row")
                with db.begin_nested():
                    rids.append(dml.insert(db, fk.child_table, row))

    if atomic and db.active_transaction is None:
        with db.begin():
            run()
    else:
        run()
    return rids


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

    Same case analysis per row, but the surviving subsumption probes are
    grouped by shape and handed to
    :func:`~repro.concurrency.hooks.verify_parent_exists_many` — one
    sorted, deduplicated walk per shape.  A failing batch reports the
    first violating row in arrival order, with the per-row message.
    """
    if as_trigger:
        db.tracker.count("trigger_invocations", len(rows))
    shapes: dict[tuple[str, ...], tuple[list[int], list[list[Any]]]] = {}
    order: list[tuple[str, ...]] = []
    for position, row in enumerate(rows):
        if as_trigger:
            fire("trigger.child_check")
        child_fk = fk.child_values(row)
        if fk.row_violates_shape(child_fk):
            raise ReferentialIntegrityViolation(
                f"{fk.name}: MATCH FULL forbids partially-null value "
                f"{child_fk!r}"
            )
        if fk.row_satisfiable_without_lookup(child_fk):
            continue
        if fk.match is MatchSemantics.SIMPLE and not is_total(child_fk):
            continue
        db.tracker.count("state_checks")
        columns, slots = _subsumption_shape(fk, child_fk)
        group = shapes.get(columns)
        if group is None:
            group = shapes[columns] = ([], [])
            order.append(columns)
        group[0].append(position)
        group[1].append([child_fk[i] for i in slots])
    failed: int | None = None
    for columns in order:
        positions, values_list = shapes[columns]
        results = hooks.verify_parent_exists_many(
            db, fk, list(columns), values_list
        )
        for position, ok in zip(positions, results):
            if not ok and (failed is None or position < failed):
                failed = position
    if failed is not None:
        child_fk = fk.child_values(rows[failed])
        raise ReferentialIntegrityViolation(
            f"{fk.name}: no reference is found for {child_fk!r}, "
            "enter a valid value"
        )


def batch_insert_rows(
    db: "Database",
    table_name: str,
    rows: Sequence[Sequence[Any]],
    atomic: bool = True,
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

    if atomic and db.active_transaction is None:
        with db.begin():
            run()
    else:
        run()
    return rids


def batch_delete_parents(
    db: "Database",
    fk: ForeignKey,
    keys: Sequence[Sequence[Any]],
    atomic: bool = True,
) -> int:
    """Delete many parents with one shared state loop for the batch.

    Returns the number of deleted parents.  Equivalent to deleting the
    keys one by one under the §6.1 trigger, but each distinct
    (state, total-values) combination across the batch is probed and
    actioned once.
    """
    keys = [tuple(k) for k in keys]

    def run() -> int:
        deleted = 0
        with _suspended_parent_triggers(db, fk):
            for key in keys:
                deleted += dml.delete_where(
                    db, fk.parent_table, equalities(fk.key_columns, key)
                )
        _shared_state_loop(db, fk, keys)
        return deleted

    if atomic and db.active_transaction is None:
        with db.begin():
            return run()
    return run()


def _shared_state_loop(
    db: "Database", fk: ForeignKey, deleted_keys: Sequence[tuple]
) -> None:
    """One pass of the §6.1 enforcement over the whole deleted batch."""
    child = db.table(fk.child_table)
    parent = db.table(fk.parent_table)
    n = fk.n_columns

    # Exact-match children: their parent key is unique, no alternatives.
    seen_exact: set[tuple] = set()
    for key in deleted_keys:
        if key in seen_exact:
            continue
        seen_exact.add(key)
        if probes.exists_eq(child, fk.fk_columns, key):
            _apply_action_scoped(db, fk, fk.exact_child_predicate(key), fk.on_delete)

    # Partial states, deduplicated across the batch: two deleted parents
    # sharing values on a state's total columns need only one probe.
    # A repeated key contributes no new (state, totals) signature at all
    # — every projection of an identical key tuple is identical — so the
    # 2^n - 2 state iterations are skipped wholesale for duplicates
    # instead of being filtered one signature at a time.
    probed: set[tuple] = set()
    seen_keys: set[tuple] = set()
    for key in deleted_keys:
        if key in seen_keys:
            continue
        seen_keys.add(key)
        scope = probes.RangeScope()  # one key's child ranges, read once
        for state in iter_null_states(n, include_total=False, include_all_null=False):
            state_set = set(state)
            positions = tuple(i for i in range(n) if i not in state_set)
            totals = tuple(key[i] for i in positions)
            signature = (state, totals)
            if signature in probed:
                continue
            probed.add(signature)
            fire("batch.state_loop")
            db.tracker.count("state_checks")
            if not probes.exists_eq(
                child,
                [fk.fk_columns[i] for i in positions],
                list(totals),
                null_columns=[fk.fk_columns[i] for i in state],
                scope=scope,
            ):
                continue
            if probes.exists_eq(
                parent,
                [fk.key_columns[i] for i in positions],
                list(totals),
            ):
                continue
            _apply_action_scoped(
                db, fk, fk.child_state_predicate(key, state), fk.on_delete
            )
            scope.clear()  # the action wrote the child table
