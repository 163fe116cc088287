"""Pipelined serving tests: in-order completion within one session,
batch ops over the wire, error replies that do not stop the stream,
exactly-once redelivery when a pipelined stream is torn mid-flight, and
pipelining that is never slower than waiting (Nagle off), on both roles.
"""

from __future__ import annotations

import socket
import statistics
import time

import pytest

from repro.errors import ReproError
from repro.server import ReproClient, ServerError

from .conftest import run_threads
from .test_server import serving_role, stress_server, tourism_server


def test_pipeline_in_order_replies_within_one_session():
    """Replies come back in request order, and each pipelined read sees
    exactly the writes pipelined before it — the session is serial even
    though the client never waits."""
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            pipe = client.pipeline()
            ids = []
            for i in range(10):
                ids.append(pipe.send(
                    "insert", table="booking",
                    values=[i, "BRT", "OR", "d"],
                ))
                ids.append(pipe.send("select", table="booking"))
            responses = pipe.drain()
            assert [r["id"] for r in responses] == ids == list(range(1, 21))
            assert all(r["ok"] for r in responses), responses
            for i in range(10):
                assert len(responses[2 * i + 1]["rows"]) == i + 1


def test_pipeline_error_reply_does_not_stop_the_stream():
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            pipe = client.pipeline()
            pipe.send("insert", table="booking", values=[1, "BRT", "OR", "d"])
            pipe.send("insert", table="booking", values=[2, "NOPE", "XX", "d"])
            pipe.send("insert", table="booking", values=[3, "RF", "BB", "d"])
            responses = pipe.drain()
            assert [r["ok"] for r in responses] == [True, False, True]
            assert responses[1]["error_type"] == "ReferentialIntegrityViolation"
            assert {row[0] for row in client.select("booking")} == {1, 3}


def test_pipeline_rejects_transaction_control():
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            pipe = client.pipeline()
            with pytest.raises(ReproError):
                pipe.send("begin")
            client.begin()
            with pytest.raises(ReproError):
                client.pipeline()
            client.rollback()


def test_pipeline_drains_only_once():
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            pipe = client.pipeline()
            pipe.send("ping")
            assert pipe.drain()[0]["pong"]
            with pytest.raises(ReproError):
                pipe.drain()
            with pytest.raises(ReproError):
                pipe.send("ping")


def test_batch_insert_over_the_wire_is_atomic():
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            rids = client.batch_insert(
                "booking", [[i, "BRT", None, "d"] for i in range(50)]
            )
            assert len(rids) == len(set(rids)) == 50
            assert len(client.select("booking")) == 50
            # One bad row vetoes the whole batch — nothing sticks.
            with pytest.raises(ServerError) as info:
                client.batch_insert("booking", [
                    [100, "GCG", "OR", "d"],
                    [101, "ZZ", "QQ", "d"],
                ])
            assert info.value.error_type == "ReferentialIntegrityViolation"
            assert len(client.select("booking")) == 50


def test_pipeline_exactly_once_through_mid_stream_tear():
    """The ISSUE's acceptance tear: a pipelined stream of stamped batches
    is cut mid-flight (first reply torn mid-frame, connection dropped);
    drain() redelivers every unacknowledged batch under its original
    stamp and the server's ledger replays the ones that already
    committed — 30 logical rows, applied exactly once."""
    from repro.testing.proxy import FaultProxy, TruncateChunk

    with tourism_server() as server:
        with FaultProxy(server.address, TruncateChunk("s2c", keep=3)) as proxy:
            client = ReproClient(*proxy.address)
            try:
                pipe = client.pipeline()
                for b in range(6):
                    rows = [
                        [b * 10 + i, "BRT", "OR", f"d{b}"] for i in range(5)
                    ]
                    pipe.send("batch", table="booking", rows=rows)
                responses = pipe.drain()
            finally:
                client.close()
            assert proxy.faults.get("truncate") == 1
            assert [r["id"] for r in responses] == list(range(1, 7))
            assert all(r["ok"] for r in responses), responses
            assert all(len(r["rids"]) == 5 for r in responses)
        with ReproClient(*server.address) as probe:
            rows = probe.select("booking")
            assert len(rows) == 30
            assert len({row[0] for row in rows}) == 30  # no double-applies
            assert probe.verify()["clean"]
        # At least the batch whose reply was torn had already committed,
        # so its redelivery must have been a ledger replay.
        assert server.stats.snapshot()["idempotent_replays"] >= 1


def test_pipelined_wire_stress_many_sessions():
    """CI concurrency satellite: several clients pipelining vectorized
    batches concurrently; every reply lands in order per session and the
    database verifies clean."""
    server, n_parents = stress_server()
    n_clients, n_batches, rows_each = 6, 8, 25
    with server:
        def worker(w: int) -> None:
            with ReproClient(*server.address) as client:
                pipe = client.pipeline()
                for b in range(n_batches):
                    base = (w * n_batches + b) * rows_each
                    rows = [
                        [base + i, (base + i) % n_parents,
                         ((base + i) % n_parents) * 10]
                        for i in range(rows_each)
                    ]
                    pipe.send("batch", table="C", rows=rows)
                responses = pipe.drain()
                assert [r["id"] for r in responses] == list(
                    range(1, n_batches + 1)
                )
                assert all(r["ok"] for r in responses), responses

        run_threads([lambda w=w: worker(w) for w in range(n_clients)],
                    timeout=120.0)
        with ReproClient(*server.address) as checker:
            assert checker.verify()["clean"]
            expected = n_clients * n_batches * rows_each
            assert len(checker.select("C")) == expected
    report = server.db.verify_integrity()
    assert report.ok, report.render()


# ----------------------------------------------------------------------
# Nagle: small pipelined replies must not wait for a delayed ACK


@pytest.mark.parametrize("role", ["server", "coordinator"])
def test_accepted_connections_disable_nagle(role):
    with serving_role(role) as (front, __):
        with ReproClient(*front.address) as client:
            assert client.ping() > 0
            (accepted,) = front._conns.values()
            assert accepted.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ) == 1


def test_pipelining_through_the_coordinator_is_not_slower_than_waiting():
    """A depth-32 round of co-located inserts against the same 32
    stop-and-wait.  With Nagle on, the second pipelined reply sits out a
    ~40 ms delayed ACK — several whole stop-and-wait rounds — so the
    margin below cannot hide one.  The two kinds of round alternate, so
    a burst of load from elsewhere on the machine falls on both."""
    depth, rounds = 32, 9
    with serving_role("coordinator", shards=2) as (front, __):
        with ReproClient(*front.address) as client:
            ids = iter(range(1, 10_000))

            def values() -> list[int]:
                return [next(ids), 3, 30]

            def waiting() -> float:
                start = time.perf_counter()
                for __ in range(depth):
                    client.insert("C", values())
                return time.perf_counter() - start

            def pipelined() -> float:
                start = time.perf_counter()
                pipe = client.pipeline()
                for __ in range(depth):
                    pipe.send("insert", table="C", values=values())
                assert all(r["ok"] for r in pipe.drain())
                return time.perf_counter() - start

            waiting()  # opens the shard links
            waits, pipes = [], []
            for __ in range(rounds):
                waits.append(waiting())
                pipes.append(pipelined())
            waited, piped = statistics.median(waits), statistics.median(pipes)
            assert piped <= 1.5 * waited, (piped, waited)
