"""Installation of partial-referential-integrity enforcement triggers.

This is the operational half of the paper's §6.1: given a foreign key
declared with MATCH PARTIAL, install the trigger set that enforces it —

* BEFORE INSERT / BEFORE UPDATE on the child table: veto writes whose
  foreign-key value has no subsuming parent;
* (optional) BEFORE DELETE / BEFORE UPDATE on the parent table when the
  referential action is RESTRICT / NO ACTION;
* AFTER DELETE / AFTER UPDATE on the parent table: apply the referential
  action to children whose last parent vanished, via the state loop.

The trigger bodies call into :mod:`repro.query.enforcement`, so every
search they run is planned against whatever index structure is installed
— exactly the experimental variable of the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..constraints.foreign_key import EnforcementMode, ForeignKey, MatchSemantics
from ..errors import SchemaError
from ..query import enforcement
from ..testing.faults import fire
from ..triggers import sqlgen
from .framework import Trigger, TriggerEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database


def trigger_names(fk: ForeignKey) -> tuple[str, ...]:
    """The names of the triggers :func:`install` creates for *fk*."""
    return (
        f"{fk.name}_child_ins",
        f"{fk.name}_child_upd",
        f"{fk.name}_parent_del",
        f"{fk.name}_parent_upd",
    )


def install(db: "Database", fk: ForeignKey) -> list[Trigger]:
    """Install the enforcement trigger set for a MATCH PARTIAL key.

    The foreign key must already be registered on *db* (so positions are
    validated); its enforcement mode is switched to TRIGGER so the native
    DML path does not double-check.
    """
    if fk.match is not MatchSemantics.PARTIAL:
        raise SchemaError(
            f"trigger enforcement targets MATCH PARTIAL keys, "
            f"{fk.name!r} is MATCH {fk.match.value.upper()}"
        )
    if fk not in db.foreign_keys:
        db.add_foreign_key(fk)
    fk.enforcement = EnforcementMode.TRIGGER
    sql = sqlgen.all_trigger_sql(fk)

    def child_check(db_: Any, event: TriggerEvent, table: str, old: Any, new: Any) -> None:
        if event is TriggerEvent.BEFORE_UPDATE and old is not None:
            if fk.child_values(new) == fk.child_values(old):
                return
        fire("trigger.child_check")
        enforcement.check_child_write(db_, fk, new)

    def parent_restrict(
        db_: Any, event: TriggerEvent, table: str, old: Any, new: Any, rid: Any = None
    ) -> None:
        action = fk.on_update if event is TriggerEvent.BEFORE_UPDATE else fk.on_delete
        if not action.rejects:
            return
        if event is TriggerEvent.BEFORE_UPDATE and new is not None:
            if fk.parent_values(new) == fk.parent_values(old):
                return
        fire("trigger.parent_restrict")
        enforcement.restrict_parent_remove(db_, fk, old, new, rid, action)

    def parent_removed(db_: Any, event: TriggerEvent, table: str, old: Any, new: Any) -> None:
        action = fk.on_update if event is TriggerEvent.AFTER_UPDATE else fk.on_delete
        if event is TriggerEvent.AFTER_UPDATE and new is not None:
            if fk.parent_values(new) == fk.parent_values(old):
                return
        fire("trigger.parent_delete")
        enforcement.handle_parent_removed(db_, fk, [fk.parent_values(old)], action)

    names = trigger_names(fk)
    triggers = [
        Trigger(names[0], fk.child_table, TriggerEvent.BEFORE_INSERT,
                child_check, sql[names[0]]),
        Trigger(names[1], fk.child_table, TriggerEvent.BEFORE_UPDATE,
                child_check, sql[names[1]]),
        Trigger(names[2], fk.parent_table, TriggerEvent.AFTER_DELETE,
                parent_removed, sql[names[2]]),
        Trigger(names[3], fk.parent_table, TriggerEvent.AFTER_UPDATE,
                parent_removed, sql[names[3]]),
    ]
    if fk.on_delete.rejects or fk.on_update.rejects:
        triggers.append(
            Trigger(f"{fk.name}_parent_restrict_del", fk.parent_table,
                    TriggerEvent.BEFORE_DELETE, parent_restrict)
        )
        triggers.append(
            Trigger(f"{fk.name}_parent_restrict_upd", fk.parent_table,
                    TriggerEvent.BEFORE_UPDATE, parent_restrict)
        )
    for trigger in triggers:
        db.triggers.add(trigger)
    return triggers


class _suspended_triggers:
    """Temporarily disable a named subset of the FK's triggers.

    Used by the intelligent deletion service (which replaces the parent-
    side enforcement with its interactive flow) and by the §9 batched
    parent delete (which removes every parent first and runs the state
    loop once for the batch).  Entering returns the triggers it disabled:
    those that were enabled, i.e. the per-row actions now left undone."""

    def __init__(self, db: "Database", names: list[str]) -> None:
        self._db = db
        self._names = names
        self._disabled: list = []

    def __enter__(self) -> list:
        self._disabled = []
        for name in self._names:
            if name in self._db.triggers:
                trigger = self._db.triggers.get(name)
                if trigger.enabled:
                    trigger.enabled = False
                    self._disabled.append(trigger)
        return self._disabled

    def __exit__(self, *exc_info) -> None:
        for trigger in self._disabled:
            trigger.enabled = True


def _suspended_parent_triggers(db: "Database", fk: ForeignKey) -> _suspended_triggers:
    """Disable the AFTER DELETE / AFTER UPDATE parent-side enforcement."""
    return _suspended_triggers(
        db, [f"{fk.name}_parent_del", f"{fk.name}_parent_upd"]
    )


def uninstall(db: "Database", fk: ForeignKey) -> None:
    """Drop the trigger set of *fk* and mark the key unenforced."""
    for name in trigger_names(fk) + (
        f"{fk.name}_parent_restrict_del",
        f"{fk.name}_parent_restrict_upd",
    ):
        if name in db.triggers:
            db.triggers.drop(name)
    fk.enforcement = EnforcementMode.NONE
