"""Referential-integrity enforcement logic shared by the native DML path
and the generated triggers.

Two operations need enforcement (paper §3): writes that create a child
tuple (insert into C / update of C), and writes that remove a parent
tuple (delete from P / update of P).  The functions here implement both,
for all three MATCH semantics, driving every search through the planner
so the installed index structure determines the cost — which is the whole
point of the paper.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any

from ..concurrency import hooks
from ..constraints.actions import ReferentialAction
from ..constraints.foreign_key import ForeignKey, MatchSemantics
from ..core.states import State, iter_null_states
from ..errors import ReferentialIntegrityViolation, RestrictViolation
from ..nulls import NULL
from ..testing.faults import fire
from . import executor, probes
from .predicate import Predicate

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database
    from ..storage.table import Table


# ----------------------------------------------------------------------
# Child-side: inserting / updating a referencing tuple


def _null_mask(child_fk: Sequence[Any]) -> int:
    """Bit ``i`` set where component ``i`` of *child_fk* is total."""
    mask = 0
    for i, v in enumerate(child_fk):
        if v is not NULL:
            mask |= 1 << i
    return mask


def _subsumption_shape(
    fk: ForeignKey, child_fk: Sequence[Any], mask: int
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The (parent columns, child-FK slots) of *child_fk*'s total part,
    whose :func:`_null_mask` is *mask*.

    There are at most ``2^n`` shapes per foreign key — one per null
    mask — and the triggers revisit them millions of times, so the
    column lists are built once and memoized on the key itself.
    """
    shapes = fk.__dict__.get("_subsumption_shapes")
    if shapes is None:
        shapes = fk._subsumption_shapes = {}
    shape = shapes.get(mask)
    if shape is None:
        slots = tuple(i for i, v in enumerate(child_fk) if v is not NULL)
        shape = (tuple(fk.key_columns[i] for i in slots), slots)
        shapes[mask] = shape
    return shape


def subsumption_probe(
    db: "Database", fk: ForeignKey, row: Sequence[Any]
) -> tuple[tuple[str, ...], list[Any]] | None:
    """The parent probe a child write of *row* has to pass: (parent
    columns, values) of the foreign-key value's total components, or
    None when the value is satisfied without a lookup.

    This is the BEFORE INSERT trigger's case analysis (paper §6.1,
    trigger on CS) for all three MATCH semantics, shared by the per-row
    check below and the vectorized one in :mod:`repro.core.batch`.
    Raises :class:`~repro.errors.ReferentialIntegrityViolation` on a
    MATCH FULL shape violation; charges the ``state_checks`` counter for
    a probe it hands back.
    """
    child_fk = fk.child_values(row)
    mask = _null_mask(child_fk)
    if fk.match is MatchSemantics.PARTIAL:
        if not mask:  # all NULL: satisfied without a lookup
            return None
    else:
        if fk.row_violates_shape(child_fk):
            raise ReferentialIntegrityViolation(
                f"{fk.name}: MATCH FULL forbids partially-null value {child_fk!r}"
            )
        if fk.row_satisfiable_without_lookup(child_fk):
            return None
    db.tracker.count("state_checks")
    columns, slots = _subsumption_shape(fk, child_fk, mask)
    return columns, [child_fk[i] for i in slots]


def no_reference(fk: ForeignKey, row: Sequence[Any]) -> ReferentialIntegrityViolation:
    """The veto for a child *row* whose probe found no parent."""
    return ReferentialIntegrityViolation(
        f"{fk.name}: no reference is found for {fk.child_values(row)!r}, "
        "enter a valid value"
    )


def check_child_write(db: "Database", fk: ForeignKey, row: Sequence[Any]) -> None:
    """Veto a child write that would violate *fk* (paper §6.1, trigger on CS).

    One existence probe on the parent table, restricted to the total
    components of the new foreign-key value.  Outside a managed session
    that is all; on one the probe pins its witness
    (:func:`~repro.concurrency.hooks.verify_parent_exists`), so the
    adopted reference cannot be deleted before this transaction ends
    (the partial-RI phantom-parent race).
    """
    probe = subsumption_probe(db, fk, row)
    if probe is not None and hooks.verify_parent_exists(
        db, fk.parent_table, fk.key_columns, *probe
    ) is None:
        raise no_reference(fk, row)


# ----------------------------------------------------------------------
# Parent-side: deleting / updating a referenced tuple


class _ParentAfter:
    """A one-row read view: the parent table as the write at *rid* will
    leave it, that row read as *row* (None: deleted).  The probe kernel
    skips the divergent rid on the tip and re-tests :meth:`row`."""

    def __init__(self, rid: int, row: Sequence[Any] | None) -> None:
        self._rids = (rid,)
        self._row = row

    def divergent_rids(self, table_name: str) -> tuple[int, ...]:
        return self._rids

    def row(self, table_name: str, rid: int) -> Sequence[Any] | None:
        return self._row


def restrict_parent_remove(
    db: "Database",
    fk: ForeignKey,
    old_row: Sequence[Any],
    new_row: Sequence[Any] | None,
    rid: int,
    action: ReferentialAction,
) -> None:
    """The RESTRICT / NO ACTION veto of *action* (the write's ON DELETE
    or ON UPDATE action), run *before* the parent row at *rid* changes
    from *old_row* to *new_row* (None for a delete).

    Rejects the write when a child would lose its last parent — exactly
    when :func:`handle_parent_removed` under SET NULL would rewrite one.
    """
    if not action.rejects:
        return
    parent_key = fk.parent_values(old_row)
    apply_action(db, fk, fk.exact_child_predicate(parent_key), action)
    if fk.match is not MatchSemantics.PARTIAL:
        return
    after = _ParentAfter(rid, new_row)
    for state, __, alternative in iter_populated_states(db, fk, parent_key, view=after):
        if not alternative:
            raise RestrictViolation(
                f"{fk.name}: children in state {state!r} would lose their "
                f"last parent {parent_key!r}"
            )


def handle_parent_removed(
    db: "Database",
    fk: ForeignKey,
    parent_keys: Sequence[Sequence[Any]],
    action: ReferentialAction | None = None,
) -> int:
    """Apply the referential action after parent rows were removed.

    This is the paper's AFTER DELETE trigger on PS (§6.1), for each of
    the removed referenced-key values *parent_keys*: first the total
    children of the removed key receive the action, then each partial
    state that :func:`iter_populated_states` finds orphaned — children
    exist in the state AND no alternative parent subsumes them —
    receives it.  Returns the number of affected child rows.

    The DML path passes the one key of the row it just removed.  The
    batch path (:func:`repro.core.batch.batch_delete_parents`) removes
    all its parents first and passes every key: two removed parents that
    agree on a state's total columns ask the same question, so each
    distinct (state, total values) combination is probed and actioned
    once for the whole call.
    """
    if action is None:
        action = fk.on_delete
    if action.rejects:
        # Already vetoed in restrict_parent_remove before the removal.
        return 0
    affected = 0
    probed: set[tuple[State, tuple[Any, ...]]] = set()
    for parent_key in dict.fromkeys(map(tuple, parent_keys)):
        # 1. Children whose foreign key totally equals the removed key:
        #    the referenced key is unique, so there is never an
        #    alternative.
        affected += _apply_action_scoped(
            db, fk, fk.exact_child_predicate(parent_key), action
        )
        if fk.match is not MatchSemantics.PARTIAL:
            continue

        # 2. Each partial state.  The child probes of one key revisit
        #    the same few index ranges with different residuals, so they
        #    share one read of each (and, without a full-key child
        #    index, one census) — until an action rewrites children.
        scope = probes.RangeScope()
        for state, __, alternative in iter_populated_states(
            db, fk, parent_key, scope, probed=probed
        ):
            if alternative:
                # The removed rows are already gone (AFTER DELETE), so
                # any hit is a genuine alternative.
                continue
            affected += _apply_action_scoped(
                db, fk, fk.child_state_predicate(parent_key, state), action
            )
            scope.clear()
    return affected


def iter_populated_states(
    db: "Database",
    fk: ForeignKey,
    parent_key: Sequence[Any],
    scope: probes.RangeScope | None = None,
    view: Any = None,
    probed: set[tuple[State, tuple[Any, ...]]] | None = None,
) -> Iterator[tuple[State, tuple[Any, ...], bool]]:
    """The §6.1 state loop for one removed key *parent_key*.

    Yields ``(state, values, alternative)`` for each partial null-state
    with children referencing the key: *values* are the key's values on
    the state's total columns, *alternative* whether a parent (seen
    through *view*, if given) matches them.  On a session that parent
    is pinned as a child's witness is
    (:func:`~repro.concurrency.hooks.verify_parent_exists`), so an
    alternative the caller relies on cannot roll back or be deleted
    before its transaction ends.  Lazy: a caller may act on
    a state before the next is probed, and must then clear *scope*.
    Pairs already in *probed* are skipped; probed pairs are added.
    """
    for state, total_positions, child_probe, parent_columns in _state_probes(
        fk, db.table(fk.child_table)
    ):
        values = tuple([parent_key[i] for i in total_positions])
        if probed is not None:
            if (state, values) in probed:
                continue
            probed.add((state, values))
        fire("enforce.state_probe")
        db.tracker.count("state_checks")
        if child_probe.exists(values, None, scope):
            witness = hooks.verify_parent_exists(
                db, fk.parent_table, fk.key_columns, parent_columns, values, view
            )
            yield state, values, witness is not None


def _state_probes(
    fk: ForeignKey, child: Table
) -> tuple[
    tuple[tuple[int, ...], tuple[int, ...], probes.PreparedProbe, tuple[str, ...]],
    ...,
]:
    """Per-state probes of the §6.1 state loop.

    One entry per partial null-state: (state, total positions, the
    prepared child-state probe, the alternative-parent probe's columns).
    Resolved once per foreign key and catalog epoch of the child table,
    and memoized on *fk*: the loop binds values and nothing else.
    """
    epoch = (child, child.indexes.version)
    cached = fk.__dict__.get("_partial_state_probes")
    if cached is None or cached[0] != epoch:
        n = fk.n_columns
        built = []
        for state in iter_null_states(n, include_total=False, include_all_null=False):
            total_positions = tuple(i for i in range(n) if i not in state)
            built.append(
                (
                    state,
                    total_positions,
                    probes.prepared(
                        child,
                        [fk.fk_columns[i] for i in total_positions],
                        [fk.fk_columns[i] for i in state],
                    ),
                    tuple([fk.key_columns[i] for i in total_positions]),
                )
            )
        cached = fk._partial_state_probes = (epoch, tuple(built))
    return cached[1]


def _apply_action_scoped(
    db: "Database", fk: ForeignKey, child_pred: Predicate, action: ReferentialAction
) -> int:
    """Apply one referential action under a savepoint when possible.

    Inside a transaction, each step of the §6.1 state loop runs in its
    own nested scope: a failure (or injected fault) while actioning one
    state's children unwinds exactly that state's writes, leaving the
    earlier states' completed work intact for the caller to keep or roll
    back wholesale.
    """
    fire("enforce.apply_action")
    txn = db.active_transaction
    if txn is None or not txn.is_open:
        return apply_action(db, fk, child_pred, action)
    with txn.savepoint():
        return apply_action(db, fk, child_pred, action)


def apply_action(
    db: "Database", fk: ForeignKey, child_pred: Predicate, action: ReferentialAction
) -> int:
    """Run one referential action over the children matching *child_pred*
    (under RESTRICT / NO ACTION: veto if there is one)."""
    from . import dml

    if action is ReferentialAction.CASCADE:
        return dml.delete_where(db, fk.child_table, child_pred)
    if action is ReferentialAction.SET_NULL:
        assignments = {column: NULL for column in fk.fk_columns}
        return dml.update_where(db, fk.child_table, assignments, child_pred)
    if action is ReferentialAction.SET_DEFAULT:
        child = db.table(fk.child_table)
        assignments = {}
        for column in fk.fk_columns:
            default = child.schema.column(column).default
            assignments[column] = default
        count = dml.update_where(db, fk.child_table, assignments, child_pred)
        if count and any(v is not NULL for v in assignments.values()):
            # SQL requires the defaulted value to satisfy the constraint.
            probe_row: list[Any] = [NULL] * len(child.schema)
            for column, value in assignments.items():
                probe_row[child.schema.position(column)] = value
            check_child_write(db, fk, probe_row)
        return count
    # RESTRICT / NO ACTION
    if executor.exists(db, fk.child_table, child_pred):
        raise RestrictViolation(
            f"{fk.name}: {action.sql()} vetoes the removal, children "
            f"still match {child_pred.sql()}"
        )
    return 0
