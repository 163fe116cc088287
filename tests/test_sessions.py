"""Multi-session engine tests (repro.concurrency.session).

Covers the isolated per-session transaction slots, the explicit
TransactionStateError on nested BEGIN (an ISSUE satellite), auto-commit
lock scoping, cross-session write-write blocking, and the witness-lock
handshake between a child FK check and a concurrent parent delete.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    Column,
    Database,
    DataType,
    Eq,
    PrimaryKey,
)
from repro.concurrency.locks import LockMode, key_resource
from repro.errors import (
    KeyViolation,
    LockTimeoutError,
    SessionError,
    TransactionError,
    TransactionStateError,
)

from .conftest import run_threads


def make_pk_db() -> Database:
    db = Database("pkdb")
    db.create_table("t", [
        Column("a", DataType.INTEGER, nullable=False),
        Column("b", DataType.TEXT),
    ])
    db.add_candidate_key(PrimaryKey("t", ("a",)))
    return db


# ----------------------------------------------------------------------
# TransactionStateError (satellite: explicit error naming the open txn)


def test_nested_begin_names_the_open_transaction():
    db = Database("t")
    txn = db.begin()
    with pytest.raises(TransactionStateError) as info:
        db.begin()
    assert txn.name in str(info.value)  # e.g. "transaction #1"
    assert "already active on this database" in str(info.value)
    txn.rollback()
    db.begin().rollback()  # usable again once the first one closed


def test_nested_begin_on_a_session_names_the_session():
    db = make_pk_db()
    session = db.enable_sessions().session()
    session.begin()
    with session.use():
        with pytest.raises(TransactionStateError) as info:
            db.begin()
    message = str(info.value)
    assert "already active on session" in message
    assert str(session.session_id) in message
    session.rollback()


def test_transaction_state_error_is_a_transaction_error():
    # callers that caught TransactionError before the split still work
    assert issubclass(TransactionStateError, TransactionError)


# ----------------------------------------------------------------------
# Session isolation


def test_sessions_have_independent_transaction_slots():
    db = make_pk_db()
    manager = db.enable_sessions()
    s1, s2 = manager.session(), manager.session()
    t1 = s1.begin()
    t2 = s2.begin()  # would raise under the old single-slot engine
    assert t1.txn_id != t2.txn_id
    s1.insert("t", (1, "one"))
    s2.insert("t", (2, "two"))
    s1.commit()
    s2.commit()
    assert sorted(db.select("t")) == [(1, "one"), (2, "two")]
    manager.locks.assert_idle()


def test_default_slot_coexists_with_sessions():
    db = make_pk_db()
    session = db.enable_sessions().session()
    session.begin()
    # the legacy single-session API still works alongside managed sessions
    with db.begin():
        db.insert("t", (1, "legacy"))
    session.insert("t", (2, "managed"))
    session.commit()
    assert len(db.select("t")) == 2


def test_enable_sessions_is_idempotent_without_arguments():
    db = Database("t")
    manager = db.enable_sessions(lock_timeout=1.0)
    assert db.enable_sessions() is manager
    from repro.errors import CatalogError

    with pytest.raises(CatalogError):
        db.enable_sessions(lock_timeout=2.0)


def test_closed_session_rejects_statements():
    db = make_pk_db()
    session = db.enable_sessions().session()
    session.close()
    with pytest.raises(SessionError):
        session.insert("t", (1, "x"))
    with pytest.raises(SessionError):
        session.begin()


def test_session_close_rolls_back_open_transaction():
    db = make_pk_db()
    manager = db.enable_sessions()
    session = manager.session()
    session.begin()
    session.insert("t", (1, "doomed"))
    session.close()
    assert db.select("t") == []
    manager.locks.assert_idle()
    assert manager.open_sessions == []


def test_session_context_manager_closes():
    db = make_pk_db()
    manager = db.enable_sessions()
    with manager.session() as session:
        session.insert("t", (1, "kept"))  # auto-commit, survives close
        session.begin()
        session.insert("t", (2, "doomed"))
    assert db.select("t") == [(1, "kept")]


def test_commit_without_transaction_raises():
    db = make_pk_db()
    session = db.enable_sessions().session()
    with pytest.raises(TransactionError):
        session.commit()
    with pytest.raises(TransactionError):
        session.rollback()


# ----------------------------------------------------------------------
# Lock scoping: auto-commit vs explicit transactions


def test_autocommit_releases_locks_at_statement_boundary():
    db = make_pk_db()
    manager = db.enable_sessions()
    session = manager.session()
    session.insert("t", (1, "x"))
    manager.locks.assert_idle()  # implicit txn committed, locks gone
    assert manager.locks.stats.acquired > 0  # ...but locking did happen


def test_explicit_transaction_holds_locks_until_commit():
    db = make_pk_db()
    manager = db.enable_sessions()
    session = manager.session()
    txn = session.begin()
    session.insert("t", (1, "x"))
    held = manager.locks.held_by(txn.txn_id)
    assert key_resource("t", ("a",), (1,)) in held
    session.commit()
    manager.locks.assert_idle()


def test_rollback_releases_locks_and_undoes_rows():
    db = make_pk_db()
    manager = db.enable_sessions()
    session = manager.session()
    session.begin()
    session.insert("t", (1, "x"))
    session.rollback()
    assert db.select("t") == []
    manager.locks.assert_idle()


def test_select_takes_intention_shared_table_lock():
    db = make_pk_db()
    manager = db.enable_sessions()
    session = manager.session()
    txn = session.begin()
    session.select("t")
    assert ("table", "t") in manager.locks.held_by(txn.txn_id)
    session.rollback()


def test_failed_autocommit_statement_rolls_back_and_unlocks():
    db = make_pk_db()
    manager = db.enable_sessions()
    session = manager.session()
    session.insert("t", (1, "x"))
    with pytest.raises(KeyViolation):
        session.insert("t", (1, "dup"))
    manager.locks.assert_idle()
    assert db.select("t") == [(1, "x")]


# ----------------------------------------------------------------------
# Cross-session blocking


def test_duplicate_key_insert_blocks_until_writer_rolls_back():
    """A second writer of the same key must wait for the first writer's
    fate: if it rolled back, the key is free and the insert succeeds."""
    db = make_pk_db()
    manager = db.enable_sessions(lock_timeout=10.0)
    s1, s2 = manager.session(), manager.session()
    s1.begin()
    s1.insert("t", (1, "first"))
    done = threading.Event()

    def second_writer():
        s2.insert("t", (1, "second"))  # blocks on the X key lock
        done.set()

    thread = threading.Thread(target=second_writer, daemon=True)
    thread.start()
    time.sleep(0.15)
    assert not done.is_set(), "second insert should be blocked"
    s1.rollback()
    assert done.wait(10.0)
    thread.join(10.0)
    assert db.select("t") == [(1, "second")]
    manager.locks.assert_idle()


def test_duplicate_key_insert_fails_after_writer_commits():
    db = make_pk_db()
    manager = db.enable_sessions(lock_timeout=10.0)
    s1, s2 = manager.session(), manager.session()
    s1.begin()
    s1.insert("t", (1, "first"))
    outcome: list[str] = []

    def second_writer():
        try:
            s2.insert("t", (1, "second"))
            outcome.append("inserted")
        except KeyViolation:
            outcome.append("key violation")

    thread = threading.Thread(target=second_writer, daemon=True)
    thread.start()
    time.sleep(0.15)
    s1.commit()
    thread.join(10.0)
    assert not thread.is_alive()
    assert outcome == ["key violation"]
    assert db.select("t") == [(1, "first")]
    manager.locks.assert_idle()


def test_session_created_mid_transaction_meets_the_locks_already_held():
    """A lone session locks for real, so a session that connects while
    its transaction is open finds the grants in the lock table."""
    db = make_pk_db()
    manager = db.enable_sessions(lock_timeout=0.2)
    s1 = manager.session()
    txn = s1.begin()
    s1.insert("t", (1, "first"))
    s2 = manager.session()
    assert manager.locks.holders(key_resource("t", ("a",), (1,))) == {
        txn.txn_id: LockMode.X
    }
    s2.insert("t", (2, "other"))  # IX on t beside s1's IX: granted at once
    assert manager.locks.stats.waits == 0
    with pytest.raises(LockTimeoutError):
        s2.insert("t", (1, "second"))  # X on s1's key: waits, times out
    assert manager.locks.stats.waits == 1
    s1.commit()
    assert sorted(db.select("t")) == [(1, "first"), (2, "other")]
    manager.locks.assert_idle()


# ----------------------------------------------------------------------
# The phantom-parent handshake (deterministic interleaving)


def test_witness_lock_blocks_parent_delete_until_child_commits(tourism):
    """The core race of the ISSUE: a MATCH PARTIAL child check adopts a
    witness parent; a concurrent delete of exactly that parent must wait
    until the child's transaction commits — and then finds an alternative
    parent, so integrity holds."""
    from repro import EnforcedForeignKey, IndexStructure, NULL

    db, fk = tourism
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    manager = db.enable_sessions(lock_timeout=10.0)
    writer, deleter = manager.session(), manager.session()

    writer.begin()
    # ('RF', NULL): the check probes tour_id='RF' and adopts the first
    # witness — ('RF','BB') — taking S on its full referenced key.
    writer.insert("booking", (1012, "RF", NULL, "Oct 9"))
    witness = key_resource("tour", ("tour_id", "site_code"), ("RF", "BB"))
    assert witness in manager.locks.held_by(writer.transaction.txn_id)

    deleted = threading.Event()

    def delete_witness():
        deleter.delete_where(
            "tour", Eq("tour_id", "RF") & Eq("site_code", "BB")
        )
        deleted.set()

    thread = threading.Thread(target=delete_witness, daemon=True)
    thread.start()
    time.sleep(0.15)
    assert not deleted.is_set(), "delete of the witness parent must block"
    writer.commit()
    assert deleted.wait(10.0)
    thread.join(10.0)
    # The witness is gone but ('RF','OR') still supports ('RF', NULL).
    report = db.verify_integrity()
    assert report.ok, report.render()
    manager.locks.assert_idle()


def test_child_check_fails_cleanly_when_every_parent_is_gone(tourism):
    from repro import EnforcedForeignKey, IndexStructure, NULL
    from repro.errors import ReferentialIntegrityViolation

    db, fk = tourism
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    manager = db.enable_sessions(lock_timeout=10.0)
    session = manager.session()
    session.delete_where("tour", Eq("tour_id", "GCG"))
    with pytest.raises(ReferentialIntegrityViolation):
        session.insert("booking", (1013, "GCG", NULL, "Oct 10"))
    manager.locks.assert_idle()
    assert db.verify_integrity().ok


# ----------------------------------------------------------------------
# Deadlock through the engine (not just the raw lock manager)


def test_engine_level_deadlock_aborts_one_session():
    db = make_pk_db()
    db.create_table("u", [Column("a", DataType.INTEGER, nullable=False)])
    db.add_candidate_key(PrimaryKey("u", ("a",)))
    manager = db.enable_sessions(lock_timeout=30.0)
    s1, s2 = manager.session(), manager.session()
    s1.begin()
    s2.begin()
    s1.insert("t", (1, "x"))   # s1: X on t(1)
    s2.insert("u", (2,))       # s2: X on u(2)
    from repro.errors import DeadlockError

    results: dict[str, str] = {}
    started = threading.Barrier(2)

    def cross(name, session, table, row):
        started.wait(5.0)
        try:
            session.insert(table, row)
            results[name] = "ok"
            session.commit()
        except DeadlockError:
            results[name] = "deadlock"
            session.rollback()

    run_threads(
        [
            lambda: cross("s1", s1, "u", (2,)),
            lambda: cross("s2", s2, "t", (1, "y")),
        ],
        timeout=20.0,
    )
    assert sorted(results.values()) == ["deadlock", "ok"], results
    assert manager.locks.stats.deadlocks >= 1
    manager.locks.assert_idle()
