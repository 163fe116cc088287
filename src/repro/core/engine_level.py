"""Engine-level enforcement of partial semantics (paper §9, future work).

The paper closes: *"future work may reveal potential performance gains
that could be realized with an engine level implementation.  For
instance, there may be custom index data structures that leverage
partial and adaptive indexing methods..."*  This module builds that
engine-level alternative and makes it measurable against the paper's
trigger + B-tree approach:

* :class:`StatePartitionedChildIndex` — the child-side custom structure.
  Every child tuple lives in exactly **one** null-state, so a single hash
  map from ``(state, total-column values)`` to the set of rids answers
  the enforcement probe "does a child in state S reference this parent?"
  in O(1), with O(1) maintenance per child mutation.
* :class:`SubsetCountingParentIndex` — the parent-side custom structure.
  Parents must answer partial-match probes for **every** subset of key
  columns (a parent can have children in up to ``2^n - 1`` states, §3),
  so the structure counts, per non-empty subset, how many parents carry
  each value combination: O(1) probes at the price of ``2^n - 1``
  counter updates per parent mutation — the state-space asymmetry that
  makes the trigger approach need its index combinations in the first
  place.

:class:`EngineLevelEnforcement` wires both into the trigger slots, so it
drops into the same DML pipeline (and the same undo-log/transaction
machinery) as the §6.1 triggers; only the search strategy differs.
The ``engine_level`` experiment (``python -m repro experiment
engine_level``) compares it against Bounded.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import combinations
from typing import TYPE_CHECKING, Any

from ..constraints.foreign_key import EnforcementMode, ForeignKey, MatchSemantics
from ..errors import ReferentialIntegrityViolation, SchemaError
from ..nulls import NULL
from ..query import dml
from ..query.enforcement import _apply_action
from ..triggers.framework import Trigger, TriggerEvent
from .states import State, iter_null_states, state_of

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database

#: One probe into either custom structure costs one logical unit.
_PROBE_COUNTER = "index_node_reads"


class StatePartitionedChildIndex:
    """Hash index over (null-state, total-component values) of child FKs."""

    def __init__(self, fk: ForeignKey, tracker) -> None:
        self._fk = fk
        self._tracker = tracker
        self._buckets: dict[tuple[State, tuple[Any, ...]], set[int]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _key(self, row: Sequence[Any]) -> tuple[State, tuple[Any, ...]]:
        fk_value = self._fk.child_values(row)
        state = state_of(fk_value)
        totals = tuple(v for v in fk_value if v is not NULL)
        return (state, totals)

    def insert(self, rid: int, row: Sequence[Any]) -> None:
        self._buckets.setdefault(self._key(row), set()).add(rid)
        self._size += 1
        self._tracker.count("index_maintenance_ops")

    def delete(self, rid: int, row: Sequence[Any]) -> None:
        key = self._key(row)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(rid)
            if not bucket:
                del self._buckets[key]
            self._size -= 1
        self._tracker.count("index_maintenance_ops")

    def update(self, rid: int, old: Sequence[Any], new: Sequence[Any]) -> None:
        old_key, new_key = self._key(old), self._key(new)
        if old_key == new_key:
            return
        self.delete(rid, old)
        self.insert(rid, new)

    def probe(self, state: State, totals: Sequence[Any]) -> bool:
        """O(1): any child in *state* carrying exactly these total values?"""
        self._tracker.count(_PROBE_COUNTER)
        return (state, tuple(totals)) in self._buckets

    def rids(self, state: State, totals: Sequence[Any]) -> set[int]:
        self._tracker.count(_PROBE_COUNTER)
        return set(self._buckets.get((state, tuple(totals)), ()))


class SubsetCountingParentIndex:
    """Per-subset value counters over the parent's key columns."""

    def __init__(self, fk: ForeignKey, tracker) -> None:
        self._fk = fk
        self._tracker = tracker
        n = fk.n_columns
        self._subsets: list[tuple[int, ...]] = [
            subset
            for size in range(1, n + 1)
            for subset in combinations(range(n), size)
        ]
        self._counts: Counter = Counter()

    def _entries(self, row: Sequence[Any]):
        key = self._fk.parent_values(row)
        for subset in self._subsets:
            yield (subset, tuple(key[i] for i in subset))

    def insert(self, row: Sequence[Any]) -> None:
        for entry in self._entries(row):
            self._counts[entry] += 1
        self._tracker.count("index_maintenance_ops", len(self._subsets))

    def delete(self, row: Sequence[Any]) -> None:
        for entry in self._entries(row):
            self._counts[entry] -= 1
            if self._counts[entry] <= 0:
                del self._counts[entry]
        self._tracker.count("index_maintenance_ops", len(self._subsets))

    def update(self, old: Sequence[Any], new: Sequence[Any]) -> None:
        if self._fk.parent_values(old) == self._fk.parent_values(new):
            return
        self.delete(old)
        self.insert(new)

    def probe(self, positions: Sequence[int], values: Sequence[Any]) -> bool:
        """O(1): any parent matching these key positions/values?"""
        self._tracker.count(_PROBE_COUNTER)
        return self._counts.get((tuple(positions), tuple(values)), 0) > 0


class EngineLevelEnforcement:
    """Partial-RI enforcement through the custom structures.

    Installed like the trigger set of :mod:`repro.triggers.partial_ri`
    but with all searches answered by the two O(1) structures.  The
    referential action still runs through the normal DML layer so
    transactions, undo and chained constraints behave identically.
    """

    def __init__(self, db: "Database", fk: ForeignKey) -> None:
        if fk.match is not MatchSemantics.PARTIAL:
            raise SchemaError(
                f"engine-level enforcement targets MATCH PARTIAL keys, "
                f"{fk.name!r} is MATCH {fk.match.value.upper()}"
            )
        if fk not in db.foreign_keys:
            db.add_foreign_key(fk)
        self.db = db
        self.fk = fk
        self.child_index = StatePartitionedChildIndex(fk, db.tracker)
        self.parent_index = SubsetCountingParentIndex(fk, db.tracker)
        self._build()
        self._install_triggers()
        db.physical_undo_observers.append(self._on_physical_undo)
        fk.enforcement = EnforcementMode.TRIGGER

    # ------------------------------------------------------------------

    def _build(self) -> None:
        for rid, row in self.db.table(self.fk.child_table).scan():
            self.child_index.insert(rid, row)
        for __, row in self.db.table(self.fk.parent_table).scan():
            self.parent_index.insert(row)
        # The referenced key is "commonly the primary key" (paper §1): a
        # real parent table carries its PK index regardless of the FK
        # enforcement strategy, and DELETE statements locate their victim
        # through it.  Create it if nothing equivalent exists yet.
        parent = self.db.table(self.fk.parent_table)
        key_columns = tuple(self.fk.key_columns)
        if not any(index.columns == key_columns for index in parent.indexes):
            from ..indexes.definition import IndexDefinition

            parent.create_index(IndexDefinition(
                f"{self.fk.name}_engine_pk", key_columns
            ))

    def trigger_names(self) -> tuple[str, ...]:
        base = f"{self.fk.name}_engine"
        return (
            f"{base}_child_ins", f"{base}_child_del", f"{base}_child_upd",
            f"{base}_parent_ins", f"{base}_parent_del", f"{base}_parent_upd",
        )

    def _install_triggers(self) -> None:
        names = self.trigger_names()
        fk, child, parent = self.fk, self.fk.child_table, self.fk.parent_table
        specs = [
            (names[0], child, TriggerEvent.BEFORE_INSERT, self._on_child_insert),
            (names[1], child, TriggerEvent.AFTER_DELETE, self._on_child_delete),
            (names[2], child, TriggerEvent.BEFORE_UPDATE, self._on_child_update_check),
            (names[3], parent, TriggerEvent.AFTER_INSERT, self._on_parent_insert),
            (names[4], parent, TriggerEvent.AFTER_DELETE, self._on_parent_delete),
            (names[5], parent, TriggerEvent.AFTER_UPDATE, self._on_parent_update),
        ]
        for name, table, event, body in specs:
            self.db.triggers.add(Trigger(name, table, event, body))
        # maintenance for child updates/inserts happens AFTER the write:
        self.db.triggers.add(Trigger(
            f"{fk.name}_engine_child_maintain_ins", child,
            TriggerEvent.AFTER_INSERT, self._on_child_inserted,
        ))
        self.db.triggers.add(Trigger(
            f"{fk.name}_engine_child_maintain_upd", child,
            TriggerEvent.AFTER_UPDATE, self._on_child_updated,
        ))

    def uninstall(self) -> None:
        for name in self.trigger_names() + (
            f"{self.fk.name}_engine_child_maintain_ins",
            f"{self.fk.name}_engine_child_maintain_upd",
        ):
            if name in self.db.triggers:
                self.db.triggers.drop(name)
        if self._on_physical_undo in self.db.physical_undo_observers:
            self.db.physical_undo_observers.remove(self._on_physical_undo)
        self.fk.enforcement = EnforcementMode.NONE

    def _on_physical_undo(self, entry: tuple) -> None:
        """Keep the custom structures in sync through rollback."""
        kind, table_name = entry[0], entry[1]
        if table_name == self.fk.child_table:
            if kind == "insert":           # the insert was undone
                __, __, rid, row = entry
                self.child_index.delete(rid, row)
            elif kind == "delete":         # the delete was undone
                __, __, rid, row = entry
                self.child_index.insert(rid, row)
            elif kind == "update":         # the update was undone
                __, __, rid, old, new = entry
                self.child_index.update(rid, new, old)
        elif table_name == self.fk.parent_table:
            if kind == "insert":
                self.parent_index.delete(entry[3])
            elif kind == "delete":
                self.parent_index.insert(entry[3])
            elif kind == "update":
                __, __, __rid, old, new = entry
                self.parent_index.update(new, old)

    # ------------------------------------------------------------------
    # Child side

    def _check_child(self, row: Sequence[Any]) -> None:
        fk_value = self.fk.child_values(row)
        state = state_of(fk_value)
        if len(state) == self.fk.n_columns:
            return  # fully null
        self.db.tracker.count("state_checks")
        positions = tuple(
            i for i in range(self.fk.n_columns) if i not in set(state)
        )
        totals = tuple(fk_value[i] for i in positions)
        if not self.parent_index.probe(positions, totals):
            raise ReferentialIntegrityViolation(
                f"{self.fk.name}: no reference is found for {fk_value!r}, "
                "enter a valid value"
            )

    def _on_child_insert(self, db, event, table, old, new) -> None:
        self._check_child(new)

    def _on_child_update_check(self, db, event, table, old, new) -> None:
        if self.fk.child_values(new) != self.fk.child_values(old):
            self._check_child(new)

    # The maintenance hooks declare ``rid`` and therefore receive the
    # affected row id from the DML layer — the engine-hook calling
    # convention (a SQL-level trigger would not get it; an engine-level
    # integration does, which is precisely the §9 distinction).

    def _on_child_inserted(self, db, event, table, old, new, rid=None) -> None:
        if rid is not None:
            self.child_index.insert(rid, new)

    def _on_child_delete(self, db, event, table, old, new, rid=None) -> None:
        if rid is not None:
            self.child_index.delete(rid, old)

    def _on_child_updated(self, db, event, table, old, new, rid=None) -> None:
        if rid is not None:
            self.child_index.update(rid, old, new)

    # ------------------------------------------------------------------
    # Parent side

    def _on_parent_insert(self, db, event, table, old, new) -> None:
        self.parent_index.insert(new)

    def _on_parent_delete(self, db, event, table, old, new) -> None:
        self.parent_index.delete(old)
        self._handle_parent_removed(old)

    def _on_parent_update(self, db, event, table, old, new) -> None:
        if self.fk.parent_values(old) == self.fk.parent_values(new):
            return
        self.parent_index.update(old, new)
        self._handle_parent_removed(old)

    def _handle_parent_removed(self, parent_row) -> None:
        fk = self.fk
        parent_key = fk.parent_values(parent_row)
        n = fk.n_columns
        # total children of the removed key
        if self.child_index.probe((), parent_key):
            self._apply_action_to(self.child_index.rids((), parent_key))
        for state in iter_null_states(n, include_total=False,
                                      include_all_null=False):
            self.db.tracker.count("state_checks")
            state_set = set(state)
            positions = tuple(i for i in range(n) if i not in state_set)
            totals = tuple(parent_key[i] for i in positions)
            if not self.child_index.probe(state, totals):
                continue
            if self.parent_index.probe(positions, totals):
                continue  # an alternative parent subsumes the state
            self._apply_action_to(self.child_index.rids(state, totals))

    def _apply_action_to(self, rids: set[int]) -> None:
        """Apply the ON DELETE action to exactly the identified children.

        The custom structure hands us the rid set directly — no search —
        so the action runs through the rid-level DML entry points (which
        keep triggers, undo logging and chained constraints intact).
        """
        fk = self.fk
        child = self.db.table(fk.child_table)
        action = fk.on_delete
        from ..constraints.actions import ReferentialAction

        for rid in sorted(rids):
            if action is ReferentialAction.CASCADE:
                dml.delete_rid(self.db, fk.child_table, rid)
                continue
            row = child.get_row(rid)
            new_row = list(row)
            for position in fk.fk_positions:
                if action is ReferentialAction.SET_DEFAULT:
                    column = child.schema.columns[position]
                    new_row[position] = column.default
                else:  # SET NULL (the paper's uniform choice)
                    new_row[position] = NULL
            dml.update_rid(self.db, fk.child_table, rid, new_row, row)
