"""Fault-proxy tests: seeded wire faults and the torn-frame retry path.

The satellite acceptance lives here: a reply torn mid-frame by the
proxy makes the client reconnect and redeliver the *same stamped
request*, and the server's ledger replays the original acknowledgement
— one row, one result, ``idempotent_replays`` counted — instead of
applying the mutation twice.
"""

from __future__ import annotations

import time

import pytest

from repro import Database
from repro.server import ReproClient, ReproServer, TransactionTorn
from repro.sql.interpreter import SqlSession
from repro.testing.proxy import (
    ChaosPolicy,
    Delay,
    DropConnection,
    FaultProxy,
    Garble,
    PassThrough,
    TruncateChunk,
    Verdict,
)


def simple_db() -> Database:
    db = Database("served")
    SqlSession(db).execute("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER);")
    return db


# ----------------------------------------------------------------------
# Policy windowing (no sockets)


class TestFaultPolicy:
    def test_skip_times_window(self):
        policy = DropConnection("s2c", skip=2, times=1)
        verdicts = [policy.decide("s2c", b"x").action for __ in range(4)]
        assert verdicts == ["pass", "pass", "drop", "pass"]
        assert policy.hits == 4 and policy.fired == 1

    def test_direction_filter_does_not_consume_the_window(self):
        policy = DropConnection("s2c", times=1)
        assert policy.decide("c2s", b"x").action == "pass"
        assert policy.hits == 0  # wrong direction: not a matching arrival
        assert policy.decide("s2c", b"x").action == "drop"

    def test_truncate_keep_never_exceeds_chunk(self):
        policy = TruncateChunk("s2c", keep=100)
        verdict = policy.decide("s2c", b"abc")
        assert verdict == Verdict("truncate", keep=3)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            DropConnection("upstream")

    def test_chaos_policy_is_deterministic_per_seed(self):
        a = ChaosPolicy(7, drop_rate=0.3, truncate_rate=0.3, delay_rate=0.3)
        b = ChaosPolicy(7, drop_rate=0.3, truncate_rate=0.3, delay_rate=0.3)
        chunks = [bytes([i]) * 8 for i in range(32)]
        assert [a.decide("c2s", c) for c in chunks] == [
            b.decide("c2s", c) for c in chunks
        ]


# ----------------------------------------------------------------------
# Relay behaviour


def test_passthrough_relays_and_counts():
    with ReproServer(simple_db()) as server:
        with FaultProxy(server.address) as proxy:
            with ReproClient(*proxy.address) as client:
                rid = client.insert("t", [1, 10])
                assert client.select("t") == [[1, 10]]
                assert rid >= 0
            assert proxy.connections == 1
            assert proxy.bytes_forwarded > 0
            assert proxy.faults == {}


def test_policy_swap_between_requests():
    with ReproServer(simple_db()) as server:
        with FaultProxy(server.address, PassThrough()) as proxy:
            with ReproClient(*proxy.address, reconnect_delay=0.01) as client:
                client.insert("t", [1, 10])
                proxy.policy = Delay("s2c", delay_s=0.2, times=1)
                started = time.monotonic()
                assert len(client.select("t")) == 1
                assert time.monotonic() - started >= 0.15
                assert proxy.faults.get("delay") == 1


def test_kill_connections_tears_live_clients():
    with ReproServer(simple_db()) as server:
        with FaultProxy(server.address) as proxy:
            with ReproClient(*proxy.address, reconnect_delay=0.01) as client:
                client.insert("t", [1, 10])
                assert proxy.kill_connections() == 1
                # The next exchange tears, reconnects through the proxy,
                # and lands (a fresh stamp: the tear hit no in-flight op).
                assert len(client.select("t")) == 1
                assert client.reconnects >= 1


# ----------------------------------------------------------------------
# The satellite acceptance: torn frame -> reconnect -> idempotent replay


@pytest.mark.parametrize(
    "tear",
    [
        TruncateChunk("s2c", keep=5, times=1),
        DropConnection("s2c", times=1),
        Garble("s2c", times=1),
        TruncateChunk("c2s", keep=3, times=1),
    ],
    ids=["torn-reply", "dropped-reply", "garbled-reply", "torn-request"],
)
def test_torn_exchange_is_exactly_once(tear):
    with ReproServer(simple_db()) as server:
        with FaultProxy(server.address, PassThrough()) as proxy:
            with ReproClient(
                *proxy.address, client_id="c1", reconnect_delay=0.01
            ) as client:
                client.insert("t", [0, 0])  # warm, faultless exchange
                proxy.policy = tear
                rid = client.insert("t", [1, 10])
                assert tear.fired == 1
                # Exactly once: the row landed a single time, and if the
                # first attempt committed before the tear, the second
                # delivery was answered from the ledger.
                rows = client.select("t", equals={"a": 1})
                assert rows == [[1, 10]]
                assert client.reconnects >= 1
                assert rid >= 0
        replays = server.stats.snapshot()["idempotent_replays"]
        assert len(server.db.table("t").rows()) == 2
        if str(tear.direction) == "s2c" and not isinstance(
            tear, DropConnection
        ):
            # The request reached the server before the reply tore, so
            # the redelivery must have been a ledger replay.
            assert replays == 1


def test_torn_commit_replay_through_proxy():
    with ReproServer(simple_db()) as server:
        with FaultProxy(server.address, PassThrough()) as proxy:
            with ReproClient(
                *proxy.address, client_id="c1", reconnect_delay=0.01
            ) as client:
                client.begin()
                client.insert("t", [1, 10])
                # Tear the commit acknowledgement: the commit itself is
                # durable server-side; redelivery replays the ack.
                proxy.policy = TruncateChunk("s2c", keep=2, times=1)
                ack = client.commit()
                assert ack["ok"]
                assert ack.get("replayed") is True
                assert client.select("t") == [[1, 10]]
        assert server.stats.snapshot()["idempotent_replays"] == 1


def test_torn_sql_text_commit_ack_replays_exactly_once():
    """execute("COMMIT") gets the same torn-ack disambiguation as the
    structured commit op: the batch is ledgered, so redelivery replays
    instead of double-running or reporting a landed commit rolled back."""
    with ReproServer(simple_db()) as server:
        with FaultProxy(server.address, PassThrough()) as proxy:
            with ReproClient(
                *proxy.address, client_id="c1", reconnect_delay=0.01
            ) as client:
                client.execute("BEGIN;")
                client.execute("INSERT INTO t VALUES (1, 10);")
                proxy.policy = TruncateChunk("s2c", keep=2, times=1)
                # The commit lands server-side; only the ack is torn.
                # The replay is the ledger's result_lost marker, so the
                # per-statement results are gone — but not the commit.
                assert client.execute("COMMIT;") == []
                assert client.reconnects >= 1
                assert client.select("t") == [[1, 10]]
        assert server.stats.snapshot()["idempotent_replays"] == 1


def _await_no_sessions(server, timeout_s: float = 5.0) -> None:
    """Wait until the server has let go of every connection's session.

    A client that abandoned its connection has closed the socket, but
    the server rolls the open transaction back only when its connection
    thread reads the EOF; until then a plain select dirty-reads the
    doomed rows like any other session's uncommitted tip."""
    deadline = time.monotonic() + timeout_s
    while server.sessions.open_sessions:
        assert time.monotonic() < deadline, "server kept a dead session"
        time.sleep(0.005)


def test_torn_mid_txn_sql_statement_raises_transaction_torn():
    """A torn non-ending statement of a SQL-text transaction must not be
    redelivered: a replay on a fresh session would commit it on its own,
    outside the (rolled-back) transaction it belonged to."""
    with ReproServer(simple_db()) as server:
        with FaultProxy(server.address, PassThrough()) as proxy:
            with ReproClient(
                *proxy.address, client_id="c1", reconnect_delay=0.01
            ) as client:
                client.execute("BEGIN;")
                proxy.policy = DropConnection("s2c", times=1)
                with pytest.raises(TransactionTorn):
                    client.execute("INSERT INTO t VALUES (1, 10);")
                _await_no_sessions(server)
                assert client.select("t") == []
                assert client.verify()["clean"]


def test_garbled_reply_mid_txn_abandons_the_connection():
    """A garbled reply tears the exchange but leaves the socket alive.
    The client must close it before raising ``TransactionTorn``: kept,
    its next autocommit statement runs inside the abandoned server-side
    transaction, and what that statement did is rolled back when the
    connection finally dies — an acknowledged delete whose row comes
    back (the chaos harness's RESURRECTED verdict)."""
    with ReproServer(simple_db()) as server:
        with FaultProxy(server.address, PassThrough()) as proxy:
            with ReproClient(
                *proxy.address, client_id="c1", reconnect_delay=0.01
            ) as client:
                client.insert("t", [5, 50])
                client.begin()
                proxy.policy = Garble("s2c", times=1)
                with pytest.raises(TransactionTorn):
                    client.insert("t", [1, 10])
                assert client.delete("t", {"a": 5}) == 1
                assert client.reconnects == 1
        # Both connections are gone, and with them the transaction.
        _await_no_sessions(server)
        with ReproClient(*server.address) as client:
            assert client.select("t") == []
