"""Row-level trigger framework.

The paper enforces partial referential integrity with two generated
triggers (§6.1): a ``BEFORE INSERT`` trigger on the child table and an
``AFTER DELETE`` trigger on the parent table.  This module provides the
generic machinery: trigger events, the trigger object, and a registry the
DML layer consults around every row mutation.

A trigger body is any callable ``body(db, event, table_name, old_row,
new_row)``.  BEFORE triggers veto their statement by raising (typically
:class:`~repro.errors.ReferentialIntegrityViolation`); AFTER triggers may
run further DML (e.g. the SET NULL referential action).
"""

from __future__ import annotations

import inspect

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from ..errors import CatalogError

Row = tuple[Any, ...]
TriggerBody = Callable[..., None]


class TriggerEvent(str, Enum):
    """When a trigger fires, relative to the row mutation."""

    BEFORE_INSERT = "before_insert"
    AFTER_INSERT = "after_insert"
    BEFORE_DELETE = "before_delete"
    AFTER_DELETE = "after_delete"
    BEFORE_UPDATE = "before_update"
    AFTER_UPDATE = "after_update"

    @property
    def is_before(self) -> bool:
        return self.value.startswith("before")


@dataclass
class Trigger:
    """One row-level trigger.

    ``sql_text`` optionally carries the equivalent MySQL DDL produced by
    :mod:`repro.triggers.sqlgen`, for inspection and documentation — it is
    never executed.

    A body is called as ``body(db, event, table, old_row, new_row)``;
    bodies that additionally declare a ``rid`` keyword parameter receive
    the affected row id (the hook form an engine-level integration uses,
    see :mod:`repro.core.engine_level`).
    """

    name: str
    table: str
    event: TriggerEvent
    body: TriggerBody
    sql_text: str | None = None
    enabled: bool = True
    _wants_rid: bool | None = field(default=None, repr=False, compare=False)

    def fire(
        self,
        db: Any,
        old_row: Row | None,
        new_row: Row | None,
        rid: int | None = None,
    ) -> None:
        """Invoke the trigger body with the standard argument set."""
        if not self.enabled:
            return
        db.tracker.count("trigger_invocations")
        if self._wants_rid is None:
            try:
                parameters = inspect.signature(self.body).parameters
                self._wants_rid = "rid" in parameters
            except (TypeError, ValueError):  # pragma: no cover - builtins
                self._wants_rid = False
        if self._wants_rid:
            self.body(db, self.event, self.table, old_row, new_row, rid=rid)
        else:
            self.body(db, self.event, self.table, old_row, new_row)


class TriggerRegistry:
    """All triggers of one database, indexed by (table, event)."""

    def __init__(self) -> None:
        self._by_name: dict[str, Trigger] = {}
        #: Each slot's triggers in creation order.  ``add`` and ``drop``
        #: replace a slot's tuple and never change one in place, so a
        #: firing iterates the slot as it stood when the firing began —
        #: a body that adds or drops a trigger on its own slot changes
        #: the next firing, not this one — without a copy per call.
        self._by_slot: dict[tuple[str, TriggerEvent], tuple[Trigger, ...]] = {}

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def add(self, trigger: Trigger) -> Trigger:
        if trigger.name in self._by_name:
            raise CatalogError(f"trigger {trigger.name!r} already exists")
        self._by_name[trigger.name] = trigger
        slot = (trigger.table, trigger.event)
        self._by_slot[slot] = (*self._by_slot.get(slot, ()), trigger)
        return trigger

    def drop(self, name: str) -> None:
        trigger = self._by_name.pop(name, None)
        if trigger is None:
            raise CatalogError(f"no trigger named {name!r}")
        slot = (trigger.table, trigger.event)
        remaining = tuple(t for t in self._by_slot[slot] if t is not trigger)
        if remaining:
            self._by_slot[slot] = remaining
        else:
            del self._by_slot[slot]

    def drop_for_table(self, table: str) -> None:
        """Remove every trigger attached to *table* (DROP TABLE path)."""
        doomed = [t.name for t in self._by_name.values() if t.table == table]
        for name in doomed:
            self.drop(name)

    def get(self, name: str) -> Trigger:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"no trigger named {name!r}") from None

    def for_event(self, table: str, event: TriggerEvent) -> list[Trigger]:
        """Triggers to fire for one (table, event), in creation order."""
        return list(self._by_slot.get((table, event), ()))

    def fire(
        self,
        db: Any,
        table: str,
        event: TriggerEvent,
        old_row: Row | None = None,
        new_row: Row | None = None,
        rid: int | None = None,
    ) -> None:
        """Fire every enabled trigger registered for (table, event)."""
        for trigger in self._by_slot.get((table, event), ()):
            trigger.fire(db, old_row, new_row, rid)

    def all(self) -> Iterator[Trigger]:
        return iter(self._by_name.values())
