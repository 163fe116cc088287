"""Unit tests for the trigger framework and the partial-RI trigger set."""

import pytest

from repro import (
    Column,
    Database,
    ForeignKey,
    MatchSemantics,
    ReferentialAction,
    ReferentialIntegrityViolation,
    RestrictViolation,
)
from repro.errors import CatalogError, SchemaError
from repro.nulls import NULL
from repro.query import dml
from repro.query.predicate import Eq, equalities
from repro.triggers import partial_ri
from repro.triggers.framework import Trigger, TriggerEvent, TriggerRegistry


class TestRegistry:
    def body(self, *args):
        pass

    def test_add_get_drop(self):
        r = TriggerRegistry()
        t = Trigger("t1", "tab", TriggerEvent.BEFORE_INSERT, self.body)
        r.add(t)
        assert "t1" in r and len(r) == 1
        assert r.get("t1") is t
        r.drop("t1")
        assert "t1" not in r

    def test_duplicate_name_rejected(self):
        r = TriggerRegistry()
        r.add(Trigger("t1", "tab", TriggerEvent.BEFORE_INSERT, self.body))
        with pytest.raises(CatalogError):
            r.add(Trigger("t1", "tab", TriggerEvent.AFTER_INSERT, self.body))

    def test_drop_missing(self):
        with pytest.raises(CatalogError):
            TriggerRegistry().drop("nope")
        with pytest.raises(CatalogError):
            TriggerRegistry().get("nope")

    def test_for_event_order(self):
        r = TriggerRegistry()
        t1 = Trigger("t1", "tab", TriggerEvent.BEFORE_INSERT, self.body)
        t2 = Trigger("t2", "tab", TriggerEvent.BEFORE_INSERT, self.body)
        r.add(t1)
        r.add(t2)
        assert r.for_event("tab", TriggerEvent.BEFORE_INSERT) == [t1, t2]
        assert r.for_event("tab", TriggerEvent.AFTER_INSERT) == []

    def test_a_body_changing_its_own_slot_does_not_change_the_firing(self):
        """A firing runs the triggers its slot held when it began: one a
        body adds runs from the next firing on, one a body drops still
        runs in this one."""
        db = Database()
        db.create_table("tab", [Column("a")])
        event = TriggerEvent.BEFORE_INSERT
        calls = []

        def first(*args):
            calls.append("first")
            if "late" not in db.triggers:
                db.triggers.add(Trigger("late", "tab", event, late))
            if "doomed" in db.triggers:
                db.triggers.drop("doomed")

        def doomed(*args):
            calls.append("doomed")

        def late(*args):
            calls.append("late")

        db.triggers.add(Trigger("first", "tab", event, first))
        db.triggers.add(Trigger("doomed", "tab", event, doomed))
        dml.insert(db, "tab", (1,))
        assert calls == ["first", "doomed"]
        calls.clear()
        dml.insert(db, "tab", (2,))
        assert calls == ["first", "late"]
        assert [t.name for t in db.triggers.for_event("tab", event)] == [
            "first",
            "late",
        ]

    def test_drop_for_table(self):
        r = TriggerRegistry()
        r.add(Trigger("t1", "a", TriggerEvent.BEFORE_INSERT, self.body))
        r.add(Trigger("t2", "b", TriggerEvent.BEFORE_INSERT, self.body))
        r.drop_for_table("a")
        assert "t1" not in r and "t2" in r

    def test_disabled_trigger_not_fired(self):
        db = Database()
        db.create_table("tab", [Column("a")])
        calls = []
        trigger = Trigger("t1", "tab", TriggerEvent.BEFORE_INSERT,
                          lambda *a: calls.append(1))
        db.triggers.add(trigger)
        trigger.enabled = False
        dml.insert(db, "tab", (1,))
        assert calls == []

    def test_fire_counts_invocations(self):
        db = Database()
        db.create_table("tab", [Column("a")])
        db.triggers.add(Trigger("t1", "tab", TriggerEvent.BEFORE_INSERT,
                                lambda *a: None))
        db.tracker.reset()
        dml.insert(db, "tab", (1,))
        assert db.tracker["trigger_invocations"] == 1

    def test_event_is_before(self):
        assert TriggerEvent.BEFORE_UPDATE.is_before
        assert not TriggerEvent.AFTER_DELETE.is_before


def partial_db(n=3, on_delete=ReferentialAction.SET_NULL):
    db = Database()
    keys = tuple(f"k{i}" for i in range(n))
    fks = tuple(f"f{i}" for i in range(n))
    db.create_table("p", [Column(k, nullable=False) for k in keys])
    db.create_table("c", [Column(f) for f in fks])
    fk = ForeignKey("fk", "c", fks, "p", keys,
                    match=MatchSemantics.PARTIAL, on_delete=on_delete,
                    on_update=on_delete)
    db.add_foreign_key(fk)
    return db, fk


class TestPartialRiInstall:
    def test_install_creates_triggers(self):
        db, fk = partial_db()
        triggers = partial_ri.install(db, fk)
        assert len(triggers) == 4
        for name in partial_ri.trigger_names(fk):
            assert name in db.triggers

    def test_install_rejects_simple_fk(self):
        db, fk = partial_db()
        fk.match = MatchSemantics.SIMPLE
        with pytest.raises(SchemaError):
            partial_ri.install(db, fk)

    def test_install_switches_enforcement_mode(self):
        from repro.constraints.foreign_key import EnforcementMode

        db, fk = partial_db()
        partial_ri.install(db, fk)
        assert fk.enforcement is EnforcementMode.TRIGGER

    def test_uninstall(self):
        db, fk = partial_db()
        partial_ri.install(db, fk)
        partial_ri.uninstall(db, fk)
        assert len(db.triggers) == 0

    def test_restrict_fk_gets_extra_triggers(self):
        db, fk = partial_db(on_delete=ReferentialAction.RESTRICT)
        triggers = partial_ri.install(db, fk)
        assert len(triggers) == 6

    def test_triggers_carry_sql_text(self):
        db, fk = partial_db()
        partial_ri.install(db, fk)
        trigger = db.triggers.get("fk_child_ins")
        assert trigger.sql_text is not None
        assert "BEFORE INSERT ON c" in trigger.sql_text


class TestPartialRiBehaviour:
    def setup_db(self, on_delete=ReferentialAction.SET_NULL):
        db, fk = partial_db(on_delete=on_delete)
        partial_ri.install(db, fk)
        dml.insert(db, "p", (1, 1, 1))
        dml.insert(db, "p", (1, 2, 1))
        return db, fk

    def test_insert_subsumed_accepted(self):
        db, __ = self.setup_db()
        dml.insert(db, "c", (1, NULL, 1))
        dml.insert(db, "c", (1, 2, 1))
        dml.insert(db, "c", (NULL, NULL, NULL))

    def test_insert_orphan_vetoed(self):
        db, __ = self.setup_db()
        with pytest.raises(ReferentialIntegrityViolation):
            dml.insert(db, "c", (2, NULL, NULL))

    def test_update_child_vetoed(self):
        db, __ = self.setup_db()
        dml.insert(db, "c", (1, NULL, 1))
        with pytest.raises(ReferentialIntegrityViolation):
            dml.update_where(db, "c", {"f0": 9}, Eq("f0", 1))

    def test_update_child_nonfk_column_not_rechecked(self):
        db, fk = partial_db(n=2)
        db.create_table("c2", [Column("f0"), Column("f1"), Column("x")])
        fk2 = ForeignKey("fk2", "c2", ("f0", "f1"), "p", ("k0", "k1"),
                         match=MatchSemantics.PARTIAL)
        db.add_foreign_key(fk2)
        partial_ri.install(db, fk2)
        dml.insert(db, "p", (1, 1))
        dml.insert(db, "c2", (1, NULL, 0))
        db.tracker.reset()
        dml.update_where(db, "c2", {"x": 5}, Eq("x", 0))
        assert db.tracker["state_checks"] == 0

    def test_delete_parent_with_alternative_leaves_child(self):
        db, __ = self.setup_db()
        dml.insert(db, "c", (1, NULL, 1))  # subsumed by both parents
        dml.delete_where(db, "p", equalities(("k0", "k1", "k2"), (1, 1, 1)))
        assert db.select("c") == [(1, NULL, 1)]

    def test_delete_last_parent_sets_null(self):
        db, __ = self.setup_db()
        dml.insert(db, "c", (1, NULL, 1))
        dml.delete_where(db, "p", equalities(("k0", "k1", "k2"), (1, 1, 1)))
        dml.delete_where(db, "p", equalities(("k0", "k1", "k2"), (1, 2, 1)))
        assert db.select("c") == [(NULL, NULL, NULL)]

    def test_delete_total_child_always_actioned(self):
        db, __ = self.setup_db()
        dml.insert(db, "c", (1, 1, 1))
        dml.delete_where(db, "p", equalities(("k0", "k1", "k2"), (1, 1, 1)))
        assert db.select("c") == [(NULL, NULL, NULL)]

    def test_delete_cascade(self):
        db, __ = self.setup_db(on_delete=ReferentialAction.CASCADE)
        dml.insert(db, "c", (1, 1, NULL))
        dml.insert(db, "c", (1, NULL, 1))  # has alternative parent (1,2,1)
        dml.delete_where(db, "p", equalities(("k0", "k1", "k2"), (1, 1, 1)))
        assert db.select("c") == [(1, NULL, 1)]

    def test_delete_restrict_vetoes(self):
        db, __ = self.setup_db(on_delete=ReferentialAction.RESTRICT)
        dml.insert(db, "c", (1, 1, 1))
        with pytest.raises(RestrictViolation):
            dml.delete_where(db, "p", equalities(("k0", "k1", "k2"), (1, 1, 1)))
        assert db.table("p").row_count == 2

    def test_delete_restrict_allows_when_alternative_exists(self):
        db, __ = self.setup_db(on_delete=ReferentialAction.RESTRICT)
        dml.insert(db, "c", (1, NULL, 1))
        n = dml.delete_where(db, "p", equalities(("k0", "k1", "k2"), (1, 1, 1)))
        assert n == 1

    def test_delete_restrict_vetoes_last_parent_of_partial_child(self):
        db, __ = self.setup_db(on_delete=ReferentialAction.RESTRICT)
        dml.insert(db, "c", (NULL, 1, NULL))  # only (1, 1, 1) subsumes it
        with pytest.raises(RestrictViolation):
            dml.delete_where(db, "p", equalities(("k0", "k1", "k2"), (1, 1, 1)))
        assert db.table("p").row_count == 2

    def test_update_restrict_counts_the_updated_rows_new_key(self):
        """A parent-key update acts as a delete plus an insert: the row's
        new key is an alternative parent, as it is for SET NULL."""
        db, __ = self.setup_db(on_delete=ReferentialAction.RESTRICT)
        dml.insert(db, "c", (NULL, 1, NULL))  # only (1, 1, 1) subsumes it
        key = equalities(("k0", "k1", "k2"), (1, 1, 1))
        with pytest.raises(RestrictViolation):
            dml.update_where(db, "p", {"k1": 9}, key)
        assert dml.update_where(db, "p", {"k0": 5}, key) == 1
        assert db.select("c") == [(NULL, 1, NULL)]

    def test_update_parent_key_behaves_like_delete(self):
        db, __ = self.setup_db()
        dml.insert(db, "c", (1, 1, 1))
        dml.update_where(db, "p", {"k1": 9}, equalities(("k0", "k1", "k2"), (1, 1, 1)))
        assert db.select("c") == [(NULL, NULL, NULL)]

    def test_update_parent_payload_no_enforcement(self):
        db = Database()
        db.create_table("p", [Column("k0", nullable=False),
                              Column("k1", nullable=False),
                              Column("k2", nullable=False),
                              Column("note")])
        db.create_table("c", [Column("f0"), Column("f1"), Column("f2")])
        fk = ForeignKey("fk", "c", ("f0", "f1", "f2"), "p", ("k0", "k1", "k2"),
                        match=MatchSemantics.PARTIAL)
        db.add_foreign_key(fk)
        partial_ri.install(db, fk)
        dml.insert(db, "p", (1, 1, 1, 0))
        dml.insert(db, "c", (1, NULL, NULL))
        dml.update_where(db, "p", {"note": 7}, Eq("k0", 1))
        assert db.select("c") == [(1, NULL, NULL)]
