"""Flush pipelining in the serving core (DESIGN.md §5d, §5g).

A connection runs every request one ``recv`` brought in, makes them
durable with one log flush and answers them with one send.  Commits made
on a connection release their locks before the fsync, so the rule these
tests pin is the gate: *no reply of any kind leaves the server while the
log holds a record appended before that reply was built* — and, below
it, that a stop-and-wait client, a torn burst, a shutdown and a frame
larger than one ``recv`` behave as they did when a burst was always one
request.

Bursts are made deterministic by writing several frames with one
``sendall`` on a raw socket; the disk is made slow by holding
``SegmentStore.append`` on an event.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from contextlib import contextmanager

from repro.server import ReproClient, ReproServer, wire
from repro.testing.chaos import build_chaos_database, build_chaos_shard_database
from repro.testing.proxy import FaultProxy, TruncateChunk

from .test_server import _await_requests, _insert, _key_lock_held, _raw, _until


def durable_server(tmp_path, build=build_chaos_database) -> ReproServer:
    """A server over the chaos schema (``P`` seeded, ``C`` empty, MATCH
    PARTIAL foreign key) whose log lives under *tmp_path*; built the
    same way again it recovers what the first one made durable."""
    return ReproServer(build(), data_dir=str(tmp_path), lock_timeout=8.0)


def _stamped(id_: int, **extra) -> dict:
    return _insert(id_, client="burst", req=id_, **extra)


class _Sink:
    """Collects what the wire helpers would write."""

    def __init__(self) -> None:
        self.data = b""

    def sendall(self, data: bytes) -> None:
        self.data += data


def _encoded(*messages: dict) -> bytes:
    sink = _Sink()
    wire.send_frames(sink, messages)  # type: ignore[arg-type]
    return sink.data


def _readable(sock: socket.socket, within: float = 0.3) -> bool:
    return bool(select.select([sock], [], [], within)[0])


@contextmanager
def held_appends(server: ReproServer):
    """Hold every ``SegmentStore.append`` until ``release`` is set;
    ``entered`` tells that a flush has reached the disk and waits."""
    store = server.db.wal.store
    append = store.append
    entered, release = threading.Event(), threading.Event()

    def held(payloads):
        entered.set()
        assert release.wait(10.0), "the test never released the disk"
        append(payloads)

    store.append = held
    try:
        yield entered, release
    finally:
        release.set()
        store.append = append


def _ids(server: ReproServer) -> list[int]:
    return sorted(row[0] for row in server.db.table("C").rows())


# ----------------------------------------------------------------------
# (a) one burst, one flush, one send — and nothing before the flush


def test_a_burst_shares_one_flush_and_no_reply_precedes_it(tmp_path):
    with durable_server(tmp_path) as server:
        store = server.db.wal.store
        sock = _raw(server)
        try:
            with held_appends(server) as (entered, release):
                syncs = store.sync_count
                wire.send_frames(sock, [_insert(i, id=i) for i in range(1, 9)])
                assert entered.wait(5.0)
                # All eight ran and committed; none is on disk, so none
                # may have been answered.
                assert server.stats.snapshot()["requests"] == 8
                assert _ids(server) == list(range(1, 9))
                assert not _readable(sock)
                assert store.sync_count == syncs
                release.set()
                replies = [wire.recv_frame(sock) for __ in range(8)]
            assert [r["id"] for r in replies] == list(range(1, 9))
            assert all(r["ok"] for r in replies), replies
            assert store.sync_count == syncs + 1
        finally:
            sock.close()
    with durable_server(tmp_path) as restarted:
        assert _ids(restarted) == list(range(1, 9))


# ----------------------------------------------------------------------
# (b) a reader on another connection that saw an undurable commit


def test_a_read_of_an_unflushed_commit_is_answered_only_after_the_flush(tmp_path):
    with durable_server(tmp_path) as server:
        writer = _raw(server)
        seen: list[list] = []

        def reader() -> None:
            with ReproClient(*server.address) as client:
                seen.extend(client.select("C", snapshot=True))

        thread = threading.Thread(target=reader, daemon=True)
        try:
            with held_appends(server) as (entered, release):
                wire.send_frame(writer, _insert(1))
                assert entered.wait(5.0)
                # The writer's commit is visible (locks and MVCC stamp
                # were released ahead of the fsync) and the reader reads
                # it — but its reply waits behind the same flush.
                thread.start()
                _await_requests(server, 2)
                thread.join(0.3)
                assert thread.is_alive() and not seen
                assert not _readable(writer, 0.0)
                release.set()
                thread.join(5.0)
            assert not thread.is_alive()
            assert seen == [[1, 3, 30]]
            assert wire.recv_frame(writer)["ok"]
        finally:
            writer.close()


def test_a_record_carried_out_by_another_sessions_flush_still_gates_the_ack(
    tmp_path,
):
    """Session A's commit record leaves the buffer in session B's flush,
    which is still inside its fsync when A settles.  A finds the buffer
    empty — and must wait all the same: an empty buffer is not a durable
    log.  (A ``settle`` that skipped the flush on ``buffered_count == 0``
    answered A here.)"""
    with durable_server(tmp_path) as server:
        settle = server.settle
        a_at_settle, a_may_settle = threading.Event(), threading.Event()

        def gated_settle(state) -> None:
            if not a_at_settle.is_set():  # the first burst to settle is A's
                a_at_settle.set()
                assert a_may_settle.wait(10.0)
            settle(state)

        server.settle = gated_settle
        a = _raw(server)
        b_rid: list[int] = []

        def session_b() -> None:
            with ReproClient(*server.address) as client:
                b_rid.append(client.insert("C", [2, 3, 30]))

        b = threading.Thread(target=session_b, daemon=True)
        try:
            wire.send_frame(a, _insert(1))
            assert a_at_settle.wait(5.0)  # A committed, has not flushed
            with held_appends(server) as (entered, release):
                b.start()
                assert entered.wait(5.0)  # B's flush holds A's record too
                assert server.db.wal.buffered_count == 0
                a_may_settle.set()
                assert not _readable(a)
                release.set()
                assert wire.recv_frame(a)["ok"]
                b.join(5.0)
            assert not b.is_alive() and b_rid
        finally:
            a_may_settle.set()
            a.close()


# ----------------------------------------------------------------------
# (c) a crash between a burst's commits and its flush


def test_a_crash_before_the_flush_answered_nothing_and_redelivery_is_exactly_once(
    tmp_path,
):
    with durable_server(tmp_path) as server:
        crashed, parked = threading.Event(), threading.Event()

        def power_cut(state) -> None:
            # What a crash destroys, at the one point where committed
            # work is not yet on disk; the thread never gets further
            # while the client is looking.
            server.db.wal.discard_volatile()
            crashed.set()
            parked.wait(10.0)

        server.settle = power_cut
        sock = _raw(server)
        try:
            wire.send_frames(sock, [_stamped(i, id=i) for i in range(1, 5)])
            assert crashed.wait(5.0)
            assert server.stats.snapshot()["requests"] == 4
            assert not _readable(sock)  # no reply was sent
        finally:
            sock.close()
            parked.set()
    with durable_server(tmp_path) as restarted:
        assert _ids(restarted) == []  # nothing was acknowledged, nothing is owed
        with ReproClient(*restarted.address, client_id="burst") as client:
            for i in range(1, 5):
                reply = client.request(**_stamped(i))
                assert reply["ok"] and "replayed" not in reply
            for i in range(1, 5):
                assert client.request(**_stamped(i))["replayed"]
            assert sorted(r[0] for r in client.select("C")) == [1, 2, 3, 4]
            assert client.verify()["clean"]


def test_a_burst_torn_mid_frame_is_redelivered_exactly_once(tmp_path):
    """The same through the proxy: the second chunk is cut inside its
    third frame.  The two frames before the cut run, their replies are
    lost with the connection, and redelivery of all eight stamps replays
    what committed and runs what never arrived."""
    first = _encoded(*[_stamped(i, id=i) for i in range(1, 5)])
    second = [_encoded(_stamped(i, id=i)) for i in range(5, 9)]
    keep = len(second[0]) + len(second[1]) + 3
    with durable_server(tmp_path) as server:
        tear = TruncateChunk("c2s", keep=keep, skip=1)
        with FaultProxy(server.address, tear) as proxy:
            sock = socket.create_connection(proxy.address)
            sock.settimeout(10.0)
            try:
                sock.sendall(first)
                replies = [wire.recv_frame(sock) for __ in range(4)]
                assert [r["id"] for r in replies] == [1, 2, 3, 4]
                sock.sendall(b"".join(second))
                _until(lambda: not server._conns, "the torn connection to end")
            finally:
                sock.close()
            assert proxy.faults.get("truncate") == 1
        assert _ids(server) == [1, 2, 3, 4, 5, 6]
        with ReproClient(*server.address, client_id="burst") as client:
            replayed = [
                bool(client.request(**_stamped(i)).get("replayed"))
                for i in range(1, 9)
            ]
            assert replayed == [True] * 6 + [False] * 2
            assert client.verify()["clean"]
    with durable_server(tmp_path) as restarted:
        assert _ids(restarted) == list(range(1, 9))


# ----------------------------------------------------------------------
# (d) an integrity veto in the middle of a burst


def test_a_veto_mid_burst_is_answered_in_position_and_its_neighbours_commit(
    tmp_path,
):
    with durable_server(tmp_path) as server:
        store = server.db.wal.store
        sock = _raw(server)
        try:
            syncs = store.sync_count
            orphan = {"op": "insert", "table": "C", "values": [2, 99, 990], "id": 2}
            wire.send_frames(sock, [_insert(1, id=1), orphan, _insert(3, id=3)])
            replies = [wire.recv_frame(sock) for __ in range(3)]
        finally:
            sock.close()
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert [r["ok"] for r in replies] == [True, False, True]
        assert replies[1]["error_type"] == "ReferentialIntegrityViolation"
        assert store.sync_count == syncs + 1
    with durable_server(tmp_path) as restarted:
        assert _ids(restarted) == [1, 3]


# ----------------------------------------------------------------------
# (e) shutdown in the middle of a burst


def _keyed_chaos_database():
    """The shard flavour of the schema: ``C.id`` is a primary key, so an
    insert can be made to wait on its key lock."""
    return build_chaos_shard_database(0, 1)


def test_shutdown_mid_burst_answers_what_ran_and_runs_nothing_behind_it(tmp_path):
    """The two inserts are one run, one statement: it waits for the key
    lock on 2 as a whole and finishes as a whole.  The delete behind it
    would have removed row 1 had it run."""
    server = durable_server(tmp_path, _keyed_chaos_database).start()
    sock = _raw(server)
    behind = {"op": "delete", "table": "C", "equals": {"id": 1}, "id": 3}
    try:
        with _key_lock_held(server, 2):
            wire.send_frames(sock, [_insert(1, id=1), _insert(2, id=2), behind])
            _await_requests(server, 2)  # the run waits for the key lock
            stopper = threading.Thread(target=server.shutdown, daemon=True)
            stopper.start()
            time.sleep(0.3)  # shutdown is now draining around the wait
            assert stopper.is_alive()
            assert not _readable(sock, 0.0)
        replies = [wire.recv_frame(sock) for __ in range(3)]
        stopper.join(10.0)
        assert not stopper.is_alive()
    finally:
        sock.close()
        server.shutdown()
    assert [r and (r["id"], r["ok"]) for r in replies] == [
        (1, True), (2, True), None,
    ]
    with durable_server(tmp_path, _keyed_chaos_database) as restarted:
        assert _ids(restarted) == [1, 2]  # both acks were durable


def test_a_failed_send_drops_the_bursts_replies_not_its_commits(tmp_path):
    from repro.testing import faults

    burst = _encoded(_stamped(1, id=1), _stamped(2, id=2))
    with durable_server(tmp_path) as server:
        faults.install("wire.send", faults.TransientInjector(times=1))
        sock = _raw(server)
        try:
            sock.sendall(burst)
            assert wire.recv_frame(sock) is None  # cut, neither reply sent
        finally:
            sock.close()
        # The same stamps on a fresh connection: the ledger replays both
        # acknowledgements, behind a settle of that connection's own.
        with ReproClient(*server.address, client_id="burst") as client:
            assert client.request(**_stamped(1))["replayed"]
            assert client.request(**_stamped(2))["replayed"]
        assert _ids(server) == [1, 2]


def test_shutdown_flushes_what_no_settle_flushed(tmp_path):
    """A connection cut off at the shutdown deadline never reaches its
    ``settle``; what it committed is flushed before the log is closed."""
    server = durable_server(tmp_path).start()
    session, __ = server.open_connection(0)  # a connection's session, no loop
    session.insert("C", (1, 3, 30))
    assert server.db.wal.buffered_count > 0
    server.shutdown()
    assert server.db.wal.buffered_count == 0
    with durable_server(tmp_path) as restarted:
        assert _ids(restarted) == [1]


# ----------------------------------------------------------------------
# (f) stop-and-wait: a burst of one is the old loop


def test_a_stop_and_wait_client_pays_one_sync_per_commit(tmp_path):
    with durable_server(tmp_path) as server:
        wal = server.db.wal
        with ReproClient(*server.address) as client:
            client.ping()
            syncs, flushes = wal.store.sync_count, wal.flush_count
            requests = server.stats.snapshot()["requests"]
            for i in range(1, 6):
                client.insert("C", [i, 3, 30])
                # Acknowledged means durable, every time.
                assert wal.buffered_count == 0
                assert wal.store.sync_count == syncs + i
            assert client.select("C", snapshot=True) == [
                [i, 3, 30] for i in range(1, 6)
            ]
            assert wal.store.sync_count == syncs + 5  # a read syncs nothing
            assert wal.flush_count == flushes + 5
            assert server.stats.snapshot()["requests"] == requests + 6


def test_in_process_sessions_still_flush_at_commit(tmp_path):
    """Only a connection's session defers its flush; a session someone
    drives in-process has no ``settle`` behind it."""
    with durable_server(tmp_path) as server:
        store = server.db.wal.store
        syncs = store.sync_count
        with server.sessions.session() as session:
            session.insert("C", (1, 3, 30))
            assert store.sync_count == syncs + 1
            assert server.db.wal.buffered_count == 0


# ----------------------------------------------------------------------
# (g) frames larger than one recv, and frames that are not frames


def test_a_batch_frame_larger_than_one_recv_is_reassembled(tmp_path, monkeypatch):
    monkeypatch.setattr(wire, "RECV_BYTES", 1024)
    rows = [[i, i % 16, (i % 16) * 10] for i in range(1000)]
    assert len(_encoded({"op": "batch", "table": "C", "rows": rows})) > 8 * 1024
    with durable_server(tmp_path) as server:
        with ReproClient(*server.address) as client:
            pipe = client.pipeline()
            pipe.send("ping")
            pipe.send("batch", table="C", rows=rows)
            pipe.send("ping")
            replies = pipe.drain()
            assert [r["id"] for r in replies] == [1, 2, 3]
            assert replies[1]["rowcount"] == 1000
            assert len(client.select("C")) == 1000
            assert client.reconnects == 0


def test_a_garbled_length_prefix_ends_only_its_connection_after_earlier_replies(
    tmp_path,
):
    with durable_server(tmp_path) as server:
        sock = _raw(server)
        try:
            sock.sendall(
                _encoded(_insert(1, id=1), {"op": "ping", "id": 2})
                + b"\xff\xff\xff\xff" + b"not a frame"
            )
            replies = [wire.recv_frame(sock) for __ in range(3)]
        finally:
            sock.close()
        assert [r and r["id"] for r in replies] == [1, 2, None]
        assert server.stats.snapshot()["read_faults"] == 1
        with ReproClient(*server.address) as client:
            assert client.select("C") == [[1, 3, 30]]


def test_eof_mid_frame_ends_only_its_connection_after_earlier_replies(tmp_path):
    with durable_server(tmp_path) as server:
        sock = _raw(server)
        try:
            sock.sendall(_encoded(_insert(1, id=1)) + _encoded(_insert(2))[:9])
            sock.shutdown(socket.SHUT_WR)
            replies = [wire.recv_frame(sock) for __ in range(2)]
        finally:
            sock.close()
        assert [r and r["id"] for r in replies] == [1, None]
        assert server.stats.snapshot()["read_faults"] == 1
        with ReproClient(*server.address) as client:
            assert client.select("C") == [[1, 3, 30]]


# ----------------------------------------------------------------------
# The client reads through the same reader


def test_a_drained_pipeline_reads_replies_in_bulk_and_reconnect_drops_the_reader():
    class Counting:
        """The benchmark's CountingSocket shape: recv, sendall,
        settimeout and close, nothing else."""

        def __init__(self, raw: socket.socket) -> None:
            self.raw, self.recvs = raw, 0

        def recv(self, size: int) -> bytes:
            self.recvs += 1
            return self.raw.recv(size)

        def sendall(self, data: bytes) -> None:
            self.raw.sendall(data)

        def settimeout(self, value) -> None:
            self.raw.settimeout(value)

        def close(self) -> None:
            self.raw.close()

    with ReproServer(build_chaos_database()) as server:
        with ReproClient(*server.address) as client:
            # Swapped after connect, as the load generator does: the
            # reader must resolve the client's socket on every read.
            counting = client._sock = Counting(client._sock)
            pipe = client.pipeline()
            for i in range(64):
                pipe.send("insert", table="C", values=[i, 3, 30])
            replies = pipe.drain()
            assert [r["id"] for r in replies] == list(range(1, 65))
            assert counting.recvs < 64
            reader = client._reader
            client._reconnect()
            assert client._reader is not reader
            assert client.ping() > 0
