"""Savepoints: nested transaction scopes with partial rollback."""

import pytest

from repro import Column, Database
from repro.errors import TransactionError
from repro.indexes.definition import IndexDefinition
from repro.query import dml
from repro.query.predicate import Eq
from repro.query.transaction import Savepoint
from repro.storage.wal import WriteAheadLog, simulate_crash


def make_db(wal: bool = False) -> Database:
    db = Database()
    t = db.create_table("t", [Column("a"), Column("b")])
    t.create_index(IndexDefinition("by_a", ("a",)))
    for i in range(3):
        t.insert_row((i, i * 10))
    if wal:
        db.attach_wal(WriteAheadLog())
    return db


def values(db: Database) -> list:
    return sorted(r[0] for r in db.table("t").rows())


class TestSavepointBasics:
    def test_rollback_to_undoes_later_work_only(self):
        db = make_db()
        with db.begin():
            dml.insert(db, "t", (10, 0))
            sp = db.active_transaction.savepoint()
            dml.insert(db, "t", (11, 0))
            dml.delete_where(db, "t", Eq("a", 0))
            sp.rollback()
            assert values(db) == [0, 1, 2, 10]
        assert values(db) == [0, 1, 2, 10]

    def test_savepoint_survives_its_own_rollback(self):
        db = make_db()
        with db.begin():
            sp = db.active_transaction.savepoint()
            dml.insert(db, "t", (10, 0))
            sp.rollback()
            dml.insert(db, "t", (11, 0))
            sp.rollback()  # SQL ROLLBACK TO: reusable until released
            assert values(db) == [0, 1, 2]

    def test_release_keeps_changes(self):
        db = make_db()
        with db.begin():
            sp = db.active_transaction.savepoint()
            dml.insert(db, "t", (10, 0))
            sp.release()
            assert not sp.is_active
            with pytest.raises(TransactionError):
                sp.rollback()
        assert values(db) == [0, 1, 2, 10]

    def test_nested_savepoints_unwind_in_order(self):
        db = make_db()
        with db.begin():
            s1 = db.active_transaction.savepoint()
            dml.insert(db, "t", (10, 0))
            s2 = db.active_transaction.savepoint()
            dml.insert(db, "t", (11, 0))
            s2.rollback()
            assert values(db) == [0, 1, 2, 10]
            s1.rollback()
            assert values(db) == [0, 1, 2]

    def test_rollback_to_outer_invalidates_inner(self):
        db = make_db()
        with db.begin():
            s1 = db.active_transaction.savepoint()
            s2 = db.active_transaction.savepoint()
            s1.rollback()
            assert s1.is_active
            assert not s2.is_active
            with pytest.raises(TransactionError):
                s2.rollback()

    def test_auto_names_are_distinct(self):
        db = make_db()
        with db.begin() as txn:
            assert txn.savepoint().name != txn.savepoint().name

    def test_foreign_savepoint_rejected(self):
        db1, db2 = make_db(), make_db()
        with db1.begin() as t1, db2.begin() as t2:
            sp = t1.savepoint()
            with pytest.raises(TransactionError):
                t2.rollback_to(sp)

    def test_savepoint_requires_open_transaction(self):
        db = make_db()
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.savepoint()

    def test_context_manager_rolls_back_on_error(self):
        db = make_db()
        with db.begin():
            dml.insert(db, "t", (10, 0))
            with pytest.raises(RuntimeError):
                with db.active_transaction.savepoint():
                    dml.insert(db, "t", (11, 0))
                    raise RuntimeError("per-row failure")
            assert values(db) == [0, 1, 2, 10]
        assert values(db) == [0, 1, 2, 10]

    def test_full_rollback_after_partial_rollback(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            with db.begin():
                dml.insert(db, "t", (10, 0))
                sp = db.active_transaction.savepoint()
                dml.insert(db, "t", (11, 0))
                sp.rollback()
                dml.insert(db, "t", (12, 0))
                raise RuntimeError
        assert values(db) == [0, 1, 2]


class TestBeginNested:
    def test_outside_transaction_returns_transaction(self):
        db = make_db()
        with db.begin_nested():
            dml.insert(db, "t", (10, 0))
        assert values(db) == [0, 1, 2, 10]

    def test_inside_transaction_returns_scope(self):
        db = make_db()
        with db.begin():
            scope = db.begin_nested()
            assert isinstance(scope, Savepoint)
            with scope:
                dml.insert(db, "t", (10, 0))
            assert not scope.is_active
        assert values(db) == [0, 1, 2, 10]

    def test_scope_error_unwinds_scope_only(self):
        db = make_db()
        with db.begin():
            dml.insert(db, "t", (10, 0))
            with pytest.raises(RuntimeError):
                with db.begin_nested():
                    dml.insert(db, "t", (11, 0))
                    raise RuntimeError
            assert values(db) == [0, 1, 2, 10]

    def test_scope_explicit_rollback_and_double_close(self):
        db = make_db()
        with db.begin():
            scope = db.begin_nested()
            dml.insert(db, "t", (10, 0))
            scope.rollback()
            scope.release()
            assert values(db) == [0, 1, 2]
            assert not scope.is_active
            with pytest.raises(TransactionError, match="no longer active"):
                scope.release()


class TestSavepointsAndWal:
    def test_partial_rollback_emits_compensation(self):
        """A committed transaction with a rolled-back savepoint must
        replay to exactly the state it left behind."""
        db = make_db(wal=True)
        with db.begin():
            dml.insert(db, "t", (10, 0))
            sp = db.active_transaction.savepoint()
            dml.insert(db, "t", (11, 0))
            dml.update_where(db, "t", {"b": 77}, Eq("a", 0))
            sp.rollback()
        expected = sorted(db.table("t").rows())
        simulate_crash(db)
        assert sorted(db.table("t").rows()) == expected
        assert values(db) == [0, 1, 2, 10]
        assert db.verify_integrity().ok

    def test_compensated_delete_restores_row_on_replay(self):
        db = make_db(wal=True)
        with db.begin():
            sp = db.active_transaction.savepoint()
            dml.delete_where(db, "t", Eq("a", 1))
            sp.rollback()
            dml.insert(db, "t", (10, 0))
        simulate_crash(db)
        assert values(db) == [0, 1, 2, 10]
        assert db.verify_integrity().ok
