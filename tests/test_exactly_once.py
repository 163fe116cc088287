"""Exactly-once retry tests: the result ledger and its server protocol.

Unit tests cover :class:`repro.server.ledger.ResultLedger` (monotonic
request ids, LRU bounds, snapshot/restore); the wire tests re-send the
*same stamped message* and assert the server answers from memory of the
commit — same result, ``replayed`` marker, no double application — on a
live server, and again on a freshly restarted process recovering the
ledger from the durable WAL.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database
from repro.server import (
    LedgerError,
    ReproClient,
    ReproServer,
    ResultLedger,
    ServerError,
)
from repro.server.ledger import LedgerEntry
from repro.sql.interpreter import SqlSession
from repro.storage.wal import WalRecord


# ----------------------------------------------------------------------
# Ledger unit tests


class TestResultLedger:
    def test_miss_then_record_then_replay(self):
        ledger = ResultLedger()
        assert ledger.replay("c1", 1) is None
        ledger.record("c1", 1, {"ok": True, "rid": 7})
        assert ledger.replay("c1", 1) == {
            "ok": True, "rid": 7, "replayed": True,
        }

    def test_newer_request_id_is_a_miss(self):
        ledger = ResultLedger()
        ledger.record("c1", 1, {"ok": True})
        assert ledger.replay("c1", 2) is None

    def test_stale_request_id_is_refused(self):
        ledger = ResultLedger()
        ledger.record("c1", 5, {"ok": True})
        with pytest.raises(LedgerError):
            ledger.replay("c1", 4)

    def test_unfilled_result_replays_as_result_lost(self):
        ledger = ResultLedger()
        ledger.record("c1", 1, None)
        replayed = ledger.replay("c1", 1)
        assert replayed is not None
        assert replayed["ok"] and replayed["replayed"] and replayed["result_lost"]

    def test_lru_eviction_is_bounded(self):
        ledger = ResultLedger(capacity=2)
        for i, client in enumerate(("a", "b", "c")):
            ledger.record(client, 1, {"ok": True, "i": i})
        assert len(ledger) == 2
        assert ledger.evictions == 1
        assert ledger.replay("a", 1) is None  # evicted: treated as new

    def test_stale_restore_never_clobbers_newer_result(self):
        ledger = ResultLedger()
        ledger.record("c1", 9, {"ok": True, "rid": 9})
        ledger.record("c1", 3, {"ok": True, "rid": 3})  # late restore
        assert ledger.replay("c1", 9) == {
            "ok": True, "rid": 9, "replayed": True,
        }

    def test_snapshot_restore_round_trip(self):
        ledger = ResultLedger()
        ledger.record("c1", 2, {"ok": True, "rid": 11})
        restored = ResultLedger()
        assert restored.restore(ledger.snapshot()) == 1
        assert restored.replay("c1", 2) == {
            "ok": True, "rid": 11, "replayed": True,
        }

    def test_restore_applies_commit_notes_after_snapshot(self):
        entry = LedgerEntry("c1", 5)
        entry.result = {"ok": True, "rid": 55}
        run = (LedgerEntry("c1", 6), LedgerEntry("c2", 1))
        run[0].result = {"ok": True, "rid": 66}
        run[1].result = {"ok": True, "rid": 67}
        records = (
            WalRecord(0, 1, "insert", "t", (0, (1,))),
            WalRecord(1, 1, "commit", None, (entry,)),
            WalRecord(2, 2, "commit", None, ()),  # unstamped commit
            WalRecord(3, 3, "commit", None, (run,)),  # one commit, a run
        )
        ledger = ResultLedger()
        assert ledger.restore({"c1": {3: {"ok": True, "rid": 33}}}, records) == 4
        # The log-order note (req 5) supersedes the snapshot (req 3).
        assert ledger.replay("c1", 5) == {
            "ok": True, "rid": 55, "replayed": True,
        }
        assert ledger.replay("c1", 6)["rid"] == 66
        assert ledger.replay("c2", 1)["rid"] == 67

    def test_capacity_validated(self):
        with pytest.raises(LedgerError):
            ResultLedger(capacity=0)


# ----------------------------------------------------------------------
# Wire protocol: replay on a live server


def simple_db() -> Database:
    db = Database("served")
    SqlSession(db).execute(
        "CREATE TABLE t (a INTEGER NOT NULL, b INTEGER);"
    )
    return db


def stamped(client: ReproClient, req: int, **payload):
    """Send one explicitly stamped request (bypasses auto-stamping)."""
    return client.request(client=client.client_id, req=req, **payload)


def test_duplicate_insert_replays_the_original_ack():
    with ReproServer(simple_db()) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            first = stamped(client, 1, op="insert", table="t", values=[1, 10])
            second = stamped(client, 1, op="insert", table="t", values=[1, 10])
            assert second["rid"] == first["rid"]
            assert second["replayed"] is True
            assert "replayed" not in first
            # Executed once: one row, one replay counted.
            assert len(client.select("t")) == 1
            assert server.stats.snapshot()["idempotent_replays"] == 1


def test_duplicate_commit_replays_without_a_transaction():
    with ReproServer(simple_db()) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            client.begin()
            client.insert("t", [1, 10])
            ack = stamped(client, 100, op="commit")
            assert ack["ok"] and "replayed" not in ack
            # The torn-reply retry arrives on a session with no open
            # transaction; the ledger must answer, not TransactionError.
            again = stamped(client, 100, op="commit")
            assert again["ok"] and again["replayed"] is True
            assert len(client.select("t")) == 1


def test_stale_request_id_is_refused_not_reexecuted():
    with ReproServer(simple_db()) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            stamped(client, 7, op="insert", table="t", values=[1, 10])
            with pytest.raises(ServerError) as info:
                stamped(client, 6, op="insert", table="t", values=[2, 20])
            assert info.value.error_type == "LedgerError"
            assert len(client.select("t")) == 1


def test_unstamped_requests_are_not_ledgered():
    with ReproServer(simple_db()) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            # A client id without a request id is not an idempotency key.
            client.request("insert", table="t", values=[1, 10],
                           client="c1", req=None)
            client.request("insert", table="t", values=[1, 10],
                           client="c1", req=None)
            assert len(client.select("t")) == 2
            assert server.stats.snapshot()["idempotent_replays"] == 0


def test_error_responses_are_not_ledgered():
    with ReproServer(simple_db()) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            with pytest.raises(ServerError):
                stamped(client, 1, op="insert", table="t", values=[None, 1])
            # Same stamp retried after fixing the payload: executes (the
            # failed attempt proved nothing committed), no replay marker.
            response = stamped(client, 1, op="insert", table="t",
                               values=[5, 50])
            assert "replayed" not in response
            assert [r[0] for r in client.select("t")] == [5]


def test_statements_inside_explicit_txn_ledger_only_the_commit():
    with ReproServer(simple_db()) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            client.begin()
            stamped(client, 1, op="insert", table="t", values=[1, 10])
            stamped(client, 2, op="commit")
            assert len(server.ledger) == 1  # only the commit entry
            assert stamped(client, 2, op="commit")["replayed"] is True


def test_stats_exposes_ledger_occupancy():
    with ReproServer(simple_db()) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            stamped(client, 1, op="insert", table="t", values=[1, 10])
            stats = client.stats()
            assert stats["ledger"]["entries"] == 1
            assert stats["ledger"]["evictions"] == 0


# ----------------------------------------------------------------------
# Replay across a process restart (ledger rides the durable WAL)


def test_replay_survives_server_restart(tmp_path):
    with ReproServer(simple_db(), data_dir=str(tmp_path)) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            first = stamped(client, 1, op="insert", table="t", values=[1, 10])

    with ReproServer(simple_db(), data_dir=str(tmp_path)) as server2:
        assert server2.recovery_report is not None
        with ReproClient(*server2.address, client_id="c1") as client:
            again = stamped(client, 1, op="insert", table="t", values=[1, 10])
            assert again["replayed"] is True
            assert again["rid"] == first["rid"]
            assert len(client.select("t")) == 1


def test_replay_survives_checkpoint_compaction_and_restart(tmp_path):
    with ReproServer(
        simple_db(), data_dir=str(tmp_path), checkpoint_every=3
    ) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            for req in range(1, 6):
                stamped(client, req, op="insert", table="t",
                        values=[req, req * 10])
        assert server.stats.snapshot()["checkpoints"] >= 1

    with ReproServer(simple_db(), data_dir=str(tmp_path)) as server2:
        with ReproClient(*server2.address, client_id="c1") as client:
            # Request 5's entry lives in the checkpoint extras (or the
            # post-checkpoint log) — compaction must not have lost it.
            again = stamped(client, 5, op="insert", table="t", values=[5, 50])
            assert again["replayed"] is True
            assert len(client.select("t")) == 5


def test_checkpoint_cannot_fall_between_a_commit_and_its_ledger_entry(tmp_path):
    """A commit enters the ledger before its statement latch is
    released.  Recorded after it, a checkpoint from a second connection
    could snapshot a ledger without the stamp and truncate the commit
    record that carried it; after a crash the redelivery would then
    execute a second time.  The test stalls connection A's
    ``ledger.record`` while connection B makes the commit that is due a
    checkpoint (the second of ``checkpoint_every=2``; A's own commit
    must not take another one that would repair the ledger before the
    restart): B's checkpoint may only run once A's entry is in."""
    with ReproServer(
        simple_db(), data_dir=str(tmp_path), checkpoint_every=2
    ) as server:
        record = server.ledger.record
        stalled = threading.Event()
        overtaken = threading.Event()

        def stalling_record(client_id, request_id, result):
            if client_id == "a":
                stalled.set()
                # Unfixed, B commits and checkpoints during this wait;
                # fixed, B waits for the latch and the wait times out.
                overtaken.wait(1.0)
            record(client_id, request_id, result)

        server.ledger.record = stalling_record
        first: dict = {}

        def connection_a():
            with ReproClient(*server.address, client_id="a") as client:
                first.update(
                    stamped(client, 1, op="insert", table="t", values=[1, 10])
                )

        a = threading.Thread(target=connection_a)
        with ReproClient(*server.address, client_id="b") as client:
            stamped(client, 1, op="insert", table="t", values=[2, 20])
            a.start()
            assert stalled.wait(5.0)
            stamped(client, 2, op="insert", table="t", values=[3, 30])
        overtaken.set()
        a.join(5.0)
        assert not a.is_alive() and first["ok"]
        assert server.stats.snapshot()["checkpoints"] == 1

    with ReproServer(simple_db(), data_dir=str(tmp_path)) as restarted:
        with ReproClient(*restarted.address, client_id="a") as client:
            again = stamped(client, 1, op="insert", table="t", values=[1, 10])
            assert again["replayed"] is True
            assert again["rid"] == first["rid"]
            assert sorted(client.select("t")) == [[1, 10], [2, 20], [3, 30]]


def test_sql_text_commit_is_ledgered_mid_transaction():
    with ReproServer(simple_db()) as server:
        with ReproClient(*server.address, client_id="c1") as client:
            client.execute("BEGIN;")
            stamped(client, 2, op="execute",
                    sql="INSERT INTO t VALUES (1, 10);")
            assert len(server.ledger) == 0  # mid-txn statement: unledgered
            ack = stamped(client, 3, op="execute", sql="COMMIT;")
            assert ack["ok"] and "replayed" not in ack
            assert len(server.ledger) == 1  # the COMMIT batch earned one
            again = stamped(client, 3, op="execute", sql="COMMIT;")
            assert again["replayed"] is True and again["result_lost"] is True
            assert len(client.select("t")) == 1


def test_txn_effect_token_heuristic():
    from repro.server.client import _txn_effect

    assert _txn_effect("BEGIN;") == "begin"
    assert _txn_effect("commit") == "end"
    assert _txn_effect("ROLLBACK;") == "end"
    assert _txn_effect("BEGIN; INSERT INTO t VALUES (1, 1); COMMIT;") == "end"
    assert _txn_effect("COMMIT; BEGIN;") == "begin"
    assert _txn_effect("INSERT INTO t VALUES (1, 1);") is None
    # Tokens inside string literals do not count.
    assert _txn_effect("INSERT INTO s VALUES ('commit');") is None
