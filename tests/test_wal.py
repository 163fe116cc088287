"""Unit tests for the write-ahead log and crash recovery."""

import pytest

from repro import Column, Database
from repro.errors import WalError
from repro.indexes.definition import IndexDefinition
from repro.query import dml
from repro.query.predicate import Eq
from repro.storage.wal import WriteAheadLog, recover, simulate_crash


def make_db(capacity: int = 256) -> Database:
    db = Database()
    t = db.create_table("t", [Column("a"), Column("b")])
    t.create_index(IndexDefinition("by_a", ("a",)))
    for i in range(3):
        t.insert_row((i, i * 10))
    db.attach_wal(WriteAheadLog(capacity))
    return db


def rows(db: Database) -> list:
    return sorted(db.table("t").rows())


class TestLogging:
    def test_autocommit_mutations_are_durable(self):
        db = make_db()
        dml.insert(db, "t", (7, 70))
        kinds = [r.kind for r in db.wal.durable_records]
        assert kinds == ["insert", "commit"]

    def test_transaction_buffers_until_commit(self):
        db = make_db()
        with db.begin():
            dml.insert(db, "t", (7, 70))
            assert len(db.wal) == 0
            assert db.wal.buffered_count == 1
        assert [r.kind for r in db.wal.durable_records] == ["insert", "commit"]

    def test_rollback_drops_buffered_records(self):
        db = make_db()
        txn = db.begin()
        dml.insert(db, "t", (7, 70))
        txn.rollback()
        assert len(db.wal) == 0
        assert db.wal.buffered_count == 0

    def test_buffer_overflow_flushes_early(self):
        db = make_db(capacity=2)
        with db.begin():
            for i in range(5):
                dml.insert(db, "t", (100 + i, 0))
            # capacity 2: records spilled to the durable log pre-commit
            assert len(db.wal) >= 4

    def test_ddl_is_logged(self):
        db = make_db()
        db.create_table("u", [Column("x")])
        db.create_index("u", IndexDefinition("u_by_x", ("x",)))
        db.drop_index("u", "u_by_x")
        kinds = [r.kind for r in db.wal.durable_records if r.kind != "commit"]
        assert kinds == ["create_table", "create_index", "drop_index"]

    def test_unknown_kinds_rejected(self):
        wal = WriteAheadLog()
        with pytest.raises(WalError):
            wal.log_mutation(1, ("truncate", "t", 0))
        with pytest.raises(WalError):
            wal.log_ddl(Database(), "rename_table", "t")

    def test_capacity_validated(self):
        with pytest.raises(WalError):
            WriteAheadLog(0)


def deferring_session(db: Database):
    """A session whose commits leave their record in the log buffer, as
    the server's connections do: the owner flushes."""
    session = db.enable_sessions().session()
    session.flush_on_commit = False
    return session


class TestGroupCommit:
    def test_deferred_commits_share_one_flush(self):
        db = make_db()
        session = deferring_session(db)
        flushes_before = db.wal.flush_count
        for i in range(10):
            session.insert("t", (100 + i, 0))
        assert db.wal.flush_count == flushes_before
        db.wal.flush()
        assert db.wal.flush_count == flushes_before + 1
        commits = [r for r in db.wal.durable_records if r.kind == "commit"]
        assert len(commits) == 10

    def test_crash_inside_group_loses_the_group(self):
        db = make_db()
        before = rows(db)
        deferring_session(db).insert("t", (7, 70))
        # committed, but nobody flushed: not yet durable
        simulate_crash(db)
        assert rows(db) == before


class TestRecovery:
    def test_recover_requires_wal_and_checkpoint(self):
        db = Database()
        with pytest.raises(WalError):
            recover(db)
        with pytest.raises(WalError):
            recover(db, WriteAheadLog())

    def test_committed_work_survives(self):
        db = make_db()
        with db.begin():
            dml.insert(db, "t", (7, 70))
            dml.update_where(db, "t", {"b": 99}, Eq("a", 0))
            dml.delete_where(db, "t", Eq("a", 1))
        expected = rows(db)
        report = simulate_crash(db)
        assert rows(db) == expected
        assert report.records_replayed == 3
        assert db.verify_integrity().ok

    def test_uncommitted_work_vanishes(self):
        db = make_db(capacity=1)  # force every record durable immediately
        before = rows(db)
        txn = db.begin()
        dml.insert(db, "t", (7, 70))
        dml.delete_where(db, "t", Eq("a", 0))
        report = simulate_crash(db)
        assert rows(db) == before
        assert report.skipped_txns == [txn.wal_txn_id]
        assert db.verify_integrity().ok

    def test_indexes_rebuilt_from_recovered_heap(self):
        db = make_db()
        with db.begin():
            dml.insert(db, "t", (7, 70))
        report = simulate_crash(db)
        assert report.indexes_rebuilt == 1
        index = db.table("t").indexes.get("by_a")
        assert len(index) == 4

    def test_post_checkpoint_ddl_replayed(self):
        db = make_db()
        db.create_table("u", [Column("x")])
        db.create_index("u", IndexDefinition("u_by_x", ("x",)))
        dml.insert(db, "u", (5,))
        simulate_crash(db)
        assert db.table("u").rows() == [(5,)]
        assert "u_by_x" in db.table("u").indexes
        assert db.verify_integrity().ok

    def test_dropped_table_stays_dropped(self):
        db = make_db()
        db.create_table("u", [Column("x")])
        db.drop_table("u")
        simulate_crash(db)
        assert "u" not in db

    def test_table_born_after_crash_point_dies(self):
        db = make_db()
        session = deferring_session(db)
        session.execute(lambda: db.create_table("doomed", [Column("x")]))
        db.wal.discard_volatile()
        recover(db)
        assert "doomed" not in db

    def test_checkpoint_truncates_log(self):
        db = make_db()
        dml.insert(db, "t", (7, 70))
        assert len(db.wal) > 0
        db.wal.checkpoint(db)
        assert len(db.wal) == 0
        simulate_crash(db)
        assert (7, 70) in rows(db)

    def test_checkpoint_rejected_inside_transaction(self):
        db = make_db()
        with db.begin():
            with pytest.raises(WalError):
                db.wal.checkpoint(db)

    def test_catalog_objects_survive_recovery(self):
        """Triggers, FKs and table identity are not WAL state; recovery
        must leave them working."""
        from repro import EnforcedForeignKey, ForeignKey, IndexStructure, MatchSemantics
        from repro.errors import ReferentialIntegrityViolation
        from repro.nulls import NULL

        db = Database()
        db.create_table("p", [Column("k1", nullable=False),
                              Column("k2", nullable=False)])
        db.create_table("c", [Column("f1"), Column("f2")])
        fk = ForeignKey("fk", "c", ("f1", "f2"), "p", ("k1", "k2"),
                        match=MatchSemantics.PARTIAL)
        EnforcedForeignKey.create(db, fk, structure=IndexStructure.BOUNDED)
        db.attach_wal(WriteAheadLog())
        table_before = db.table("c")
        dml.insert(db, "p", (1, 2))
        dml.insert(db, "c", (1, NULL))
        simulate_crash(db)
        assert db.table("c") is table_before
        with pytest.raises(ReferentialIntegrityViolation):
            dml.insert(db, "c", (9, NULL))
        assert db.verify_integrity().ok

    def test_recovery_is_idempotent(self):
        db = make_db()
        with db.begin():
            dml.insert(db, "t", (7, 70))
        expected = rows(db)
        simulate_crash(db)
        simulate_crash(db)
        assert rows(db) == expected
        assert db.verify_integrity().ok


class TestUnlatchedAppenders:
    """The two-phase participant logs prepare/decide records after its
    statement released the latch, so it appends and flushes beside
    latched writers; the log itself must hand its buffer over atomically
    and give every record its own LSN."""

    def test_concurrent_flushes_lose_no_record_and_share_no_lsn(self):
        import sys
        import threading

        from repro.concurrency.locks import StatementLatch

        wal = WriteAheadLog(capacity=4)
        latch = StatementLatch()
        writers, participants, per_thread = 3, 3, 1500

        def latched_writer(base: int) -> None:
            for i in range(per_thread):
                with latch:
                    wal.log_autocommit(("insert", "t", base + i, (base + i, 0)))

        def participant() -> None:
            for i in range(per_thread):
                wal.log_two_phase("prepare", (f"g{i}", 0, [], None))

        threads = [
            threading.Thread(target=latched_writer, args=(w * per_thread,))
            for w in range(writers)
        ]
        threads += [
            threading.Thread(target=participant) for __ in range(participants)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        wal.flush()

        # every call above appends its record and a commit marker
        appended = 2 * (writers + participants) * per_thread
        lsns = [record.lsn for record in wal.durable_records]
        assert wal.lsn == appended
        assert sorted(lsns) == list(range(appended))
