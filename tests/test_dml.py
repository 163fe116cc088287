"""Unit tests for logical DML: inserts, deletes, updates with enforcement."""

import pytest

from repro import (
    CandidateKey,
    Column,
    Database,
    DataType,
    ForeignKey,
    MatchSemantics,
    PrimaryKey,
    ReferentialAction,
    ReferentialIntegrityViolation,
    RestrictViolation,
)
from repro.errors import KeyViolation, QueryError
from repro.nulls import NULL
from repro.query import dml
from repro.query.predicate import Eq, IsNull, equalities
from repro.triggers import partial_ri
from repro.triggers.framework import Trigger, TriggerEvent


def make_db(
    match=MatchSemantics.SIMPLE,
    on_delete=ReferentialAction.SET_NULL,
    on_update=ReferentialAction.SET_NULL,
) -> tuple[Database, ForeignKey]:
    db = Database()
    db.create_table("p", [
        Column("k1", nullable=False), Column("k2", nullable=False),
    ])
    db.create_table("c", [
        Column("f1"), Column("f2"), Column("payload", DataType.TEXT, default="d"),
    ])
    db.add_candidate_key(PrimaryKey("p", ("k1", "k2")))
    fk = ForeignKey("fk", "c", ("f1", "f2"), "p", ("k1", "k2"),
                    match=match, on_delete=on_delete, on_update=on_update)
    db.add_foreign_key(fk)
    for k1 in range(3):
        for k2 in range(3):
            dml.insert(db, "p", (k1, k2))
    return db, fk


class TestInsert:
    def test_plain_insert(self):
        db, __ = make_db()
        rid = dml.insert(db, "c", (1, 2, "x"))
        assert db.table("c").get_row(rid) == (1, 2, "x")

    def test_insert_mapping(self):
        db, __ = make_db()
        rid = dml.insert(db, "c", {"f1": 1, "f2": 2})
        assert db.table("c").get_row(rid) == (1, 2, "d")

    def test_simple_fk_allows_partial(self):
        db, __ = make_db()
        dml.insert(db, "c", (99, NULL, "x"))  # simple: null -> satisfied

    def test_simple_fk_rejects_total_orphan(self):
        db, __ = make_db()
        with pytest.raises(ReferentialIntegrityViolation):
            dml.insert(db, "c", (99, 0, "x"))

    def test_partial_fk_rejects_partial_orphan(self):
        db, __ = make_db(match=MatchSemantics.PARTIAL)
        with pytest.raises(ReferentialIntegrityViolation):
            dml.insert(db, "c", (99, NULL, "x"))

    def test_partial_fk_accepts_subsumed(self):
        db, __ = make_db(match=MatchSemantics.PARTIAL)
        dml.insert(db, "c", (2, NULL, "x"))

    def test_full_fk_rejects_partially_null(self):
        db, __ = make_db(match=MatchSemantics.FULL)
        with pytest.raises(ReferentialIntegrityViolation):
            dml.insert(db, "c", (2, NULL, "x"))
        dml.insert(db, "c", (NULL, NULL, "x"))  # fully null ok
        dml.insert(db, "c", (2, 2, "x"))        # total match ok

    def test_primary_key_enforced(self):
        db, __ = make_db()
        with pytest.raises(KeyViolation):
            dml.insert(db, "p", (0, 0))

    def test_failed_insert_leaves_no_row(self):
        db, __ = make_db()
        before = db.table("c").row_count
        with pytest.raises(ReferentialIntegrityViolation):
            dml.insert(db, "c", (99, 0, "x"))
        assert db.table("c").row_count == before


class TestDelete:
    def test_delete_where_count(self):
        db, __ = make_db()
        dml.insert(db, "c", (0, 0, "x"))
        dml.insert(db, "c", (0, 1, "x"))
        assert dml.delete_where(db, "c", Eq("f1", 0)) == 2
        assert db.table("c").row_count == 0

    def test_delete_parent_set_null(self):
        db, __ = make_db()
        dml.insert(db, "c", (0, 0, "x"))
        dml.delete_where(db, "p", equalities(("k1", "k2"), (0, 0)))
        assert db.select("c") == [(NULL, NULL, "x")]

    def test_delete_parent_cascade(self):
        db, __ = make_db(on_delete=ReferentialAction.CASCADE)
        dml.insert(db, "c", (0, 0, "x"))
        dml.insert(db, "c", (0, 1, "y"))
        dml.delete_where(db, "p", equalities(("k1", "k2"), (0, 0)))
        assert db.select("c") == [(0, 1, "y")]

    def test_delete_parent_restrict(self):
        db, __ = make_db(on_delete=ReferentialAction.RESTRICT)
        dml.insert(db, "c", (0, 0, "x"))
        with pytest.raises(RestrictViolation):
            dml.delete_where(db, "p", equalities(("k1", "k2"), (0, 0)))
        # parent must still be there after the veto
        assert db.exists("p", equalities(("k1", "k2"), (0, 0)))

    def test_delete_parent_restrict_without_children_ok(self):
        db, __ = make_db(on_delete=ReferentialAction.RESTRICT)
        assert dml.delete_where(db, "p", equalities(("k1", "k2"), (0, 0))) == 1

    def test_delete_parent_set_default(self):
        db = Database()
        db.create_table("p", [Column("k", nullable=False)])
        db.create_table("c", [Column("f", default=1)])
        fk = ForeignKey("fk", "c", ("f",), "p", ("k",),
                        on_delete=ReferentialAction.SET_DEFAULT)
        db.add_foreign_key(fk)
        dml.insert(db, "p", (1,))
        dml.insert(db, "p", (2,))
        dml.insert(db, "c", (2,))
        dml.delete_where(db, "p", Eq("k", 2))
        assert db.select("c") == [(1,)]

    def test_delete_rid_returns_row(self):
        db, __ = make_db()
        rid = dml.insert(db, "c", (0, 0, "x"))
        assert dml.delete_rid(db, "c", rid) == (0, 0, "x")


class TestUpdate:
    def test_update_where(self):
        db, __ = make_db()
        dml.insert(db, "c", (0, 0, "x"))
        n = dml.update_where(db, "c", {"payload": "y"}, Eq("f1", 0))
        assert n == 1
        assert db.select("c") == [(0, 0, "y")]

    def test_update_noop_rows_not_counted(self):
        db, __ = make_db()
        dml.insert(db, "c", (0, 0, "x"))
        assert dml.update_where(db, "c", {"payload": "x"}, Eq("f1", 0)) == 0

    def test_update_requires_assignments(self):
        db, __ = make_db()
        with pytest.raises(QueryError):
            dml.update_where(db, "c", {}, None)

    def test_update_child_fk_checked(self):
        db, __ = make_db()
        dml.insert(db, "c", (0, 0, "x"))
        with pytest.raises(ReferentialIntegrityViolation):
            dml.update_where(db, "c", {"f1": 99, "f2": 99}, Eq("f1", 0))

    def test_update_child_to_null_ok_under_simple(self):
        db, __ = make_db()
        dml.insert(db, "c", (0, 0, "x"))
        dml.update_where(db, "c", {"f1": NULL}, Eq("f1", 0))
        assert db.select("c") == [(NULL, 0, "x")]

    def test_update_parent_key_applies_action(self):
        db, __ = make_db()
        dml.insert(db, "c", (0, 0, "x"))
        dml.update_where(db, "p", {"k1": 7}, equalities(("k1", "k2"), (0, 0)))
        assert db.select("c") == [(NULL, NULL, "x")]

    def test_update_parent_nonkey_change_no_action(self):
        db = Database()
        db.create_table("p", [Column("k", nullable=False), Column("x")])
        db.create_table("c", [Column("f")])
        fk = ForeignKey("fk", "c", ("f",), "p", ("k",))
        db.add_foreign_key(fk)
        dml.insert(db, "p", (1, 0))
        dml.insert(db, "c", (1,))
        dml.update_where(db, "p", {"x": 5}, Eq("k", 1))
        assert db.select("c") == [(1,)]

    def test_update_pk_uniqueness_enforced(self):
        db, __ = make_db()
        with pytest.raises(KeyViolation):
            dml.update_where(db, "p", {"k1": 1, "k2": 1},
                             equalities(("k1", "k2"), (0, 0)))

    @pytest.mark.parametrize("match, triggers", [
        (MatchSemantics.PARTIAL, False),
        (MatchSemantics.SIMPLE, False),
        (MatchSemantics.PARTIAL, True),
    ], ids=["native-partial", "native-simple", "trigger-partial"])
    def test_update_parent_key_on_update_restrict_vetoes(self, match, triggers):
        """ON UPDATE RESTRICT vetoes even where ON DELETE would not."""
        db, fk = make_db(match=match, on_update=ReferentialAction.RESTRICT)
        if triggers:
            partial_ri.install(db, fk)
        dml.insert(db, "c", (1, 2, "x"))
        with pytest.raises(RestrictViolation):
            dml.update_where(db, "p", {"k2": 3}, equalities(("k1", "k2"), (1, 2)))
        assert db.exists("p", equalities(("k1", "k2"), (1, 2)))
        assert db.select("c") == [(1, 2, "x")]

    def test_update_pk_self_match_allowed(self):
        db, __ = make_db()
        n = dml.update_where(db, "p", {"k1": 9}, equalities(("k1", "k2"), (0, 0)))
        assert n == 1


class TestTriggerOrdering:
    def test_before_insert_fires_before_constraints(self):
        db, __ = make_db()
        calls = []
        db.triggers.add(Trigger(
            "log", "c", TriggerEvent.BEFORE_INSERT,
            lambda *a: calls.append("before"),
        ))
        with pytest.raises(ReferentialIntegrityViolation):
            dml.insert(db, "c", (99, 0, "x"))
        assert calls == ["before"]  # trigger ran even though insert failed

    def test_after_delete_sees_old_row(self):
        db, __ = make_db()
        seen = []
        db.triggers.add(Trigger(
            "log", "p", TriggerEvent.AFTER_DELETE,
            lambda db_, ev, tab, old, new: seen.append(old),
        ))
        dml.delete_where(db, "p", equalities(("k1", "k2"), (2, 2)))
        assert seen == [(2, 2)]
