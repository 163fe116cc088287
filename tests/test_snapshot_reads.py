"""Snapshot-isolation reads end to end (sessions, engine, server).

The acceptance properties of the MVCC tentpole:

* snapshot reads observe a stable committed point and acquire **zero**
  lock-manager locks — writers are never waited on;
* the witness pin re-checks under its S-lock, at statement time, so a
  parent delete that commits while the FK child-side check waits for
  the lock cannot leave a phantom-parented child (the writer-vs-deleter
  regression): an exact key is vetoed, a partial one finds its other
  witness, and witnesses that keep vanishing raise a retryable
  :class:`~repro.errors.SerializationError`;
* the server exposes both: ``snapshot: true`` selects and retryable
  serialization failures over the wire.
"""

from __future__ import annotations

import socket

import pytest

from repro import (
    Column,
    Database,
    DataType,
    EnforcedForeignKey,
    Eq,
    ForeignKey,
    IndexStructure,
    MatchSemantics,
    NULL,
    PrimaryKey,
)
from repro.concurrency.locks import LockManager, LockMode
from repro.errors import ReferentialIntegrityViolation, SessionError
from repro.server import ReproClient, ReproServer, ServerError, wire
from repro.testing.chaos import build_chaos_database


def _pv_db() -> Database:
    db = Database("snapshots")
    db.create_table("P", [
        Column("id", DataType.INTEGER, nullable=False),
        Column("v", DataType.TEXT),
    ])
    db.add_candidate_key(PrimaryKey("P", ("id",)))
    for i in range(3):
        db.table("P").insert_row((i, f"p{i}"))
    db.enable_mvcc()
    return db


def _two_sessions(db: Database, timeout: float = 5.0):
    manager = db.enable_sessions(lock_timeout=timeout)
    return manager, manager.session(), manager.session()


# ----------------------------------------------------------------------
# Session-level snapshot reads.


def test_snapshot_scope_pins_a_stable_committed_point():
    db = _pv_db()
    manager, s1, s2 = _two_sessions(db)
    try:
        with s1.snapshot():
            assert len(s1.select("P")) == 3
            s2.insert("P", (10, "new"))
            s2.delete_where("P", Eq("id", 0))
            s2.update_where("P", {"v": "patched"}, Eq("id", 1))
            rows = sorted(s1.select("P"))
            assert rows == [(0, "p0"), (1, "p1"), (2, "p2")]
        # Scope closed: the same selects now read the latest commits.
        assert sorted(s1.select("P")) == [
            (1, "patched"), (2, "p2"), (10, "new"),
        ]
    finally:
        s1.close()
        s2.close()


def test_snapshot_reads_acquire_zero_locks():
    db = _pv_db()
    manager, s1, s2 = _two_sessions(db)
    try:
        before = manager.locks.stats.snapshot()
        assert s1.snapshot_select("P", Eq("id", 2)) == [(2, "p2")]
        with s1.snapshot():
            for i in range(3):
                s1.select("P", Eq("id", i))
        after = manager.locks.stats.snapshot()
        assert after["acquired"] == before["acquired"]
        assert after["waits"] == before["waits"]
        # Contrast: the 2PL read path moves the counters (>= the table IS).
        s1.select("P", Eq("id", 2))
        assert manager.locks.stats.snapshot()["acquired"] > after["acquired"]
    finally:
        s1.close()
        s2.close()


def test_snapshot_reader_never_waits_on_an_open_writer():
    db = _pv_db()
    # A tight lock timeout turns "reader blocked on writer" into a fast
    # failure instead of a hung test.
    manager, s1, s2 = _two_sessions(db, timeout=0.5)
    try:
        s2.begin()
        s2.update_where("P", {"v": "dirty"}, Eq("id", 0))  # holds X
        assert s1.snapshot_select("P", Eq("id", 0)) == [(0, "p0")]
        s2.commit()
        assert s1.snapshot_select("P", Eq("id", 0)) == [(0, "dirty")]
    finally:
        s1.close()
        s2.close()


def test_snapshot_needs_mvcc_and_rejects_nesting(monkeypatch):
    # enable_sessions() alone brings the version store: snapshot reads
    # need no enable_mvcc() first.
    db = _fk_db()
    assert db.versions is None
    manager, sa, sb = _two_sessions(db)
    try:
        assert db.versions is manager.versions
        sa.begin()
        sa.insert("C", (5, 2, NULL))
        assert sb.snapshot_select("C") == []  # sa's child is uncommitted
        sa.commit()
        assert sb.snapshot_select("C") == [(5, 2, NULL)]
    finally:
        sa.close()
        sb.close()
    db = _pv_db()
    manager, s1, s2 = _two_sessions(db)
    try:
        with s1.snapshot():
            with pytest.raises(SessionError):
                s1.begin_snapshot()
        s1.end_snapshot()  # idempotent when nothing is open
    finally:
        s1.close()
        s2.close()


def test_session_close_releases_its_snapshot():
    db = _pv_db()
    manager, s1, s2 = _two_sessions(db)
    s1.begin_snapshot()
    assert db.versions.active_snapshots == 1
    s1.close()
    s2.close()
    assert db.versions.active_snapshots == 0


# ----------------------------------------------------------------------
# The phantom-parent race (writer vs deleter).


def _fk_db() -> Database:
    db = Database("phantom")
    db.create_table("P", [
        Column("k1", DataType.INTEGER, nullable=False),
        Column("k2", DataType.INTEGER, nullable=False),
    ])
    db.add_candidate_key(PrimaryKey("P", ("k1", "k2")))
    db.create_table("C", [
        Column("id", DataType.INTEGER, nullable=False),
        Column("k1", DataType.INTEGER),
        Column("k2", DataType.INTEGER),
    ])
    for i in range(4):
        db.table("P").insert_row((i, i * 10))
    db.table("P").insert_row((2, 21))  # a second witness for (2, NULL)
    fk = ForeignKey("fk_c_p", "C", ("k1", "k2"), "P", ("k1", "k2"),
                    match=MatchSemantics.PARTIAL)
    fk.validate_against(db)
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    return db  # no enable_mvcc(): the version store comes with sessions


def _witness_vanishes_in_the_pin(monkeypatch, sb) -> dict:
    """Make ``sb``'s delete of P(2, 20) commit inside the first witness
    S request: the probe has chosen the witness, the lock is not yet
    granted.  The caller asserts that the window was exercised."""
    original = LockManager.acquire
    state = {"armed": True}

    def racing_acquire(self, txn_id, resource, mode, timeout=None):
        if state["armed"] and mode is LockMode.S and resource[0] == "key":
            state["armed"] = False
            sb.delete_where("P", Eq("k1", 2) & Eq("k2", 20))
        return original(self, txn_id, resource, mode, timeout)

    monkeypatch.setattr(LockManager, "acquire", racing_acquire)
    return state


def test_witness_pin_vetoes_an_exact_key_that_vanished_under_it(monkeypatch):
    """Session B's parent delete commits while A's exact-key pin waits
    for its S-lock.  The pin checks the key under the lock, so A's
    *insert* is vetoed: no phantom-parented child is ever written."""
    db = _fk_db()
    manager, sa, sb = _two_sessions(db)
    try:
        state = _witness_vanishes_in_the_pin(monkeypatch, sb)
        sa.begin()
        with pytest.raises(ReferentialIntegrityViolation) as info:
            sa.insert("C", (1, 2, 20))
        assert not state["armed"], "the race window was never exercised"
        assert "(2, 20)" in str(info.value)
        assert sa.select("C") == []
        # The transaction stays usable: a child of a live parent commits.
        sa.insert("C", (1, 3, 30))
        sa.commit()
        assert sa.select("C", Eq("id", 1)) == [(1, 3, 30)]
        assert db.verify_integrity().ok
    finally:
        sa.close()
        sb.close()


def test_witness_pin_refinds_a_partial_witness_that_vanished(monkeypatch):
    """The same race for a partial child (x, 2, NULL): its first witness
    P(2, 20) is deleted under the pin, the re-check misses, and the pin
    finds P(2, 21) instead — the insert and its commit succeed."""
    db = _fk_db()
    manager, sa, sb = _two_sessions(db)
    try:
        state = _witness_vanishes_in_the_pin(monkeypatch, sb)
        sa.begin()
        sa.insert("C", (4, 2, NULL))
        assert not state["armed"], "the race window was never exercised"
        sa.commit()
        assert sa.select("C") == [(4, 2, NULL)]
        assert db.select("P", Eq("k1", 2)) == [(2, 21)]
        assert db.verify_integrity().ok
    finally:
        sa.close()
        sb.close()


def test_witness_recheck_passes_when_the_parent_survives():
    db = _fk_db()
    manager, sa, sb = _two_sessions(db)
    try:
        sa.begin()
        sa.insert("C", (7, 1, 10))  # the pin re-checks P(1, 10) alive
        sa.commit()
        assert sa.select("C", Eq("id", 7)) == [(7, 1, 10)]
    finally:
        sa.close()
        sb.close()


# ----------------------------------------------------------------------
# Over the wire.


def _fk_server(**kwargs) -> ReproServer:
    db = Database("served")
    server = ReproServer(db, **kwargs)
    from repro.sql import SqlSession

    SqlSession(db).execute("""
        CREATE TABLE tour (tour_id TEXT NOT NULL, site_code TEXT NOT NULL,
            site_name TEXT, PRIMARY KEY (tour_id, site_code));
        CREATE TABLE booking (visitor_id INTEGER NOT NULL, tour_id TEXT,
            site_code TEXT, day TEXT,
            FOREIGN KEY (tour_id, site_code)
                REFERENCES tour (tour_id, site_code)
                MATCH PARTIAL WITH STRUCTURE bounded);
        INSERT INTO tour VALUES ('GCG','OR','x'), ('BRT','OR','x'),
            ('BRT','MV','x');
    """)
    return server


def test_server_snapshot_select_skips_uncommitted_writes():
    with _fk_server() as server:
        assert server.db.versions is not None  # MVCC is always on
        with ReproClient(*server.address) as c1, \
                ReproClient(*server.address) as c2:
            c1.begin()
            c1.insert("booking", [1001, "BRT", "OR", "d1"])
            # c2's snapshot read neither sees the open transaction nor
            # waits on its locks.
            assert c2.select("booking", snapshot=True) == []
            c1.commit()
            assert c2.select("booking", snapshot=True) == [
                [1001, "BRT", "OR", "d1"]
            ]
            stats = c1.stats()
            assert stats["locks"]["active_snapshots"] == 0
            assert "row_versions" in stats["locks"]


def test_serialization_failure_is_retryable_over_the_wire(monkeypatch):
    from repro.concurrency import hooks

    real = hooks.revalidate_witnesses
    state = {"vanishing": True}

    def witness_always_vanished(*args):
        return False if state["vanishing"] else real(*args)

    monkeypatch.setattr(hooks, "revalidate_witnesses", witness_always_vanished)
    with _fk_server() as server:
        with ReproClient(*server.address) as c1, \
                ReproClient(*server.address) as c2:
            c1.begin()
            with pytest.raises(ServerError) as info:
                c1.insert("booking", [1001, "BRT", None, "d1"])
            assert info.value.error_type == "SerializationError"
            assert info.value.retryable
            # The server rolled the transaction back and the session
            # stays usable — the documented client policy is "retry".
            assert c1.select("booking") == []
            state["vanishing"] = False
            c1.begin()
            c1.insert("booking", [1001, "BRT", None, "d1"])
            c1.commit()
            assert c2.select("booking", snapshot=True) == [
                [1001, "BRT", None, "d1"]
            ]


def test_memory_server_collects_versions_without_a_wal():
    """No data_dir means no checkpoint ever runs; versions must still be
    collected on the commit cadence, and a snapshot select must not pay
    for the ones still around."""
    inserts, cadence = 5_000, 250
    with _fk_server(checkpoint_every=cadence) as server:
        versions = server.db.versions
        booking = server.db.table("booking")

        def select_cost(client: ReproClient) -> dict[str, int]:
            before = server.db.tracker.snapshot()
            rows = client.select(
                "booking", equals={"tour_id": "GCG"}, snapshot=True
            )
            assert rows == [[-1, "GCG", "OR", "d"]]
            cost = server.db.tracker.snapshot().diff(before)
            # (node reads follow the tree's height, which does grow)
            return {
                name: cost[name]
                for name in
                ("index_entries_scanned", "rows_fetched", "rows_examined")
            }

        with ReproClient(*server.address) as client:
            client.insert("booking", [-1, "GCG", "OR", "d"])
            high_water = 0
            for start in range(0, inserts, 500):
                pipeline = client.pipeline()
                for visitor in range(start, start + 500):
                    pipeline.send(
                        "insert", table="booking",
                        values=[visitor, "BRT", "OR", "d"],
                    )
                assert all(reply["ok"] for reply in pipeline.drain())
                high_water = max(high_water, versions.version_count())
                if start == 0:
                    early = select_cost(client)
            assert len(booking) == inserts + 1
            # at most one cadence of versions waits for the next collection
            assert high_water <= cadence
            assert versions.version_count() <= cadence
            assert sum(len(lsns) for lsns, __ in versions._commits.values()) <= cadence
            assert server.stats.snapshot()["checkpoints"] == 0
            # ten times the rows later: the same one-entry probe, nothing else
            assert select_cost(client) == early


def test_durable_server_collects_versions_between_checkpoints(tmp_path):
    """Version collection keeps its cadence of ``checkpoint_every``
    ledgered requests on a durable server, whose checkpoints count
    commits: twenty runs of 64 pipelined stamped inserts are twenty
    commits — no checkpoint at ``checkpoint_every=64`` — yet the version
    store never holds more than one cadence plus one run of rows."""
    depth, cadence = 64, 64
    server = ReproServer(
        build_chaos_database(), data_dir=str(tmp_path), checkpoint_every=cadence
    )
    with server:
        versions = server.db.versions
        sock = socket.create_connection(server.address)
        sock.settimeout(10.0)
        try:
            for run in range(20):
                base = run * depth
                wire.send_frames(sock, [
                    {"op": "insert", "table": "C", "values": [base + i, 3, 30],
                     "client": "gc", "req": base + i + 1}
                    for i in range(depth)
                ])
                replies = [wire.recv_frame(sock) for __ in range(depth)]
                assert all(reply["ok"] for reply in replies)
                assert versions.version_count() <= cadence + depth
        finally:
            sock.close()
        assert len(server.db.table("C")) == 20 * depth
        assert server.stats.snapshot()["checkpoints"] == 0
