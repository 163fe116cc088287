"""Wire server tests (repro.server): protocol, per-connection sessions,
admission control, graceful shutdown — and the ISSUE's acceptance
criteria: an 8+-thread mixed insert/delete stress run over the wire with
MATCH PARTIAL under the Bounded structure that ends with a clean
integrity report, and an induced lock cycle that is resolved by aborting
one transaction rather than hanging.
"""

from __future__ import annotations

import random
import select
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro import (
    NULL,
    Column,
    Database,
    DataType,
    EnforcedForeignKey,
    ForeignKey,
    IndexStructure,
    MatchSemantics,
    PrimaryKey,
)
from repro.server import Overloaded, ReproClient, ReproServer, ServerError
from repro.server import wire
from repro.sharding import ShardCoordinator, build_chaos_catalog
from repro.testing.chaos import build_chaos_shard_database

from .conftest import run_threads


# ----------------------------------------------------------------------
# Wire protocol


def test_frame_round_trip_over_socketpair():
    a, b = socket.socketpair()
    try:
        message = {"op": "ping", "values": [1, None, "x", True, 2.5]}
        wire.send_frame(a, message)
        assert wire.recv_frame(b) == message
    finally:
        a.close()
        b.close()


def test_clean_eof_returns_none_and_torn_frame_raises():
    a, b = socket.socketpair()
    try:
        a.close()
        assert wire.recv_frame(b) is None  # EOF at a frame boundary
    finally:
        b.close()
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00\x00\x10partial")  # announces 16, sends 7
        a.close()
        with pytest.raises(wire.WireError):
            wire.recv_frame(b)
    finally:
        b.close()


def test_oversized_frame_announcement_is_refused():
    a, b = socket.socketpair()
    try:
        a.sendall((wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(wire.WireError):
            wire.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_null_crosses_the_wire_as_none():
    from repro.nulls import NULL

    assert wire.encode_row([1, NULL, "x"]) == [1, None, "x"]
    assert wire.decode_values([1, None, "x"]) == [1, NULL, "x"]


# ----------------------------------------------------------------------
# Server fixtures


def tourism_server(**kwargs) -> ReproServer:
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
                MATCH PARTIAL ON DELETE SET NULL WITH STRUCTURE bounded);
        INSERT INTO tour VALUES ('GCG','OR','x'), ('BRT','OR','x'),
            ('BRT','MV','x'), ('RF','BB','x'), ('RF','OR','x');
    """)
    return server


def test_ping_and_per_connection_sessions():
    with tourism_server() as server:
        with ReproClient(*server.address) as c1, ReproClient(*server.address) as c2:
            assert c1.ping() != c2.ping()  # distinct server-side sessions


def test_structured_dml_and_null_round_trip():
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            client.insert("booking", [1001, "BRT", None, "Nov 21"])
            rows = client.select("booking", equals={"visitor_id": 1001})
            assert rows == [[1001, "BRT", None, "Nov 21"]]
            # IS NULL predicate from the JSON null
            assert client.select("booking", equals={"site_code": None}) == rows
            assert client.update(
                "booking", {"day": "Nov 22"}, equals={"visitor_id": 1001}
            ) == 1
            assert client.delete("booking", equals={"visitor_id": 1001}) == 1
            assert client.select("booking") == []


def test_sql_execute_and_integrity_veto_over_the_wire():
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            results = client.execute(
                "INSERT INTO booking VALUES (1008, NULL, 'BB', 'Sep 5')"
            )
            assert results[0]["rowcount"] == 1
            with pytest.raises(ServerError) as info:
                client.insert("booking", [1006, "BRF", None, "Sep 19"])
            assert info.value.error_type == "ReferentialIntegrityViolation"
            assert not info.value.retryable
            verdict = client.verify()
            assert verdict["clean"], verdict["report"]


def test_unknown_op_is_an_error_not_a_disconnect():
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            with pytest.raises(ServerError):
                client.request("frobnicate")
            assert client.ping() > 0  # connection survived


def test_explicit_transaction_rollback_over_the_wire():
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            client.begin()
            client.insert("booking", [1001, "BRT", "OR", "Nov 21"])
            assert len(client.select("booking")) == 1
            client.rollback()
            assert client.select("booking") == []


def test_disconnect_mid_transaction_rolls_back():
    with tourism_server() as server:
        client = ReproClient(*server.address)
        client.begin()
        client.insert("booking", [1001, "BRT", "OR", "Nov 21"])
        client.close()  # vanish without commit
        deadline = time.monotonic() + 5.0
        with ReproClient(*server.address) as probe:
            while time.monotonic() < deadline:
                if probe.select("booking") == []:
                    break
                time.sleep(0.05)
            assert probe.select("booking") == []
        server.db.session_manager.locks.assert_idle()


def test_shutdown_rolls_back_open_sessions():
    server = tourism_server().start()
    client = ReproClient(*server.address)
    client.begin()
    client.insert("booking", [1001, "BRT", "OR", "Nov 21"])
    rolled_back = server.shutdown()
    client.close()
    assert rolled_back >= 1
    assert server.db.select("booking") == []
    assert server.stats.snapshot()["rolled_back_on_shutdown"] >= 1


def test_admission_control_rejects_excess_load_as_retryable():
    """One slot, one slow statement: a concurrent statement must bounce
    with a retryable Overloaded error instead of queueing forever."""
    with tourism_server(
        max_inflight=1, admission_timeout=0.1, lock_timeout=5.0
    ) as server:
        holder = ReproClient(*server.address)
        blocked = ReproClient(*server.address)
        bounced = ReproClient(*server.address)
        try:
            holder.begin()
            holder.insert("tour", ["NEW", "K1", "held"])

            errors: list[ServerError] = []

            def conflicting_insert():
                # same primary key -> waits on the X key lock while
                # occupying the single admission slot
                try:
                    blocked.insert("tour", ["NEW", "K1", "other"])
                except ServerError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=conflicting_insert, daemon=True)
            thread.start()
            time.sleep(0.3)  # let it occupy the slot

            with pytest.raises(ServerError) as info:
                bounced.insert("tour", ["ZZ", "Z1", "bounced"])
            assert info.value.error_type == "Overloaded"
            assert info.value.retryable
            assert server.stats.snapshot()["rejected"] >= 1

            holder.commit()
            thread.join(10.0)
            assert not thread.is_alive()
            # the blocked insert resumed and hit the duplicate key
            assert len(errors) == 1
            assert errors[0].error_type == "KeyViolation"
        finally:
            holder.close()
            blocked.close()
            bounced.close()


def test_retrying_helper_rides_out_overload():
    with tourism_server(max_inflight=1, admission_timeout=0.05) as server:
        with ReproClient(*server.address) as client:
            stop = threading.Event()

            def hog():
                with ReproClient(*server.address) as other:
                    while not stop.is_set():
                        other.select("tour")

            thread = threading.Thread(target=hog, daemon=True)
            thread.start()
            try:
                # direct calls may bounce; the retry wrapper must land
                rows = client.retrying(
                    lambda: client.select("tour"), attempts=30
                )
                assert len(rows) == 5
            finally:
                stop.set()
                thread.join(5.0)


# ----------------------------------------------------------------------
# Acceptance criteria


def stress_server() -> tuple[ReproServer, int]:
    """MATCH PARTIAL + Bounded over a synthetic parent/child pair."""
    n_parents = 30
    db = Database("stress")
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
    for i in range(n_parents):
        db.table("P").insert_row((i, i * 10))
    fk = ForeignKey(
        "fk_c_p", "C", ("k1", "k2"), "P", ("k1", "k2"),
        match=MatchSemantics.PARTIAL,
    )
    fk.validate_against(db)
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    return ReproServer(db, max_inflight=16, lock_timeout=10.0), n_parents


def test_stress_eight_clients_mixed_inserts_and_deletes():
    """ISSUE acceptance: >= 8 concurrent wire clients, mixed child
    inserts (NULL-marked FKs) and parent deletes, MATCH PARTIAL,
    Bounded — zero integrity violations afterwards."""
    server, n_parents = stress_server()
    n_clients, ops_each = 8, 20
    with server:
        def worker(worker_id: int):
            rng = random.Random(worker_id)
            with ReproClient(*server.address) as client:
                for op in range(ops_each):
                    def one_op():
                        i = rng.randrange(n_parents)
                        if rng.random() < 0.3:
                            client.delete(
                                "P", equals={"k1": i, "k2": i * 10}
                            )
                        else:
                            values = [i, i * 10]
                            if rng.random() < 0.5:
                                values[rng.randrange(2)] = None
                            client.insert(
                                "C",
                                [worker_id * 1000 + op] + values,
                            )
                    try:
                        client.retrying(one_op, attempts=8)
                    except ServerError as exc:
                        # parent vanished mid-run: a legitimate veto
                        if exc.error_type != "ReferentialIntegrityViolation":
                            raise

        run_threads([lambda w=w: worker(w) for w in range(n_clients)],
                    timeout=180.0)

        with ReproClient(*server.address) as checker:
            verdict = checker.verify()
            assert verdict["clean"], verdict["report"]
            stats = checker.stats()
            assert stats["server"]["requests"] > n_clients * ops_each

    # belt and braces: verify directly on the engine after shutdown
    report = server.db.verify_integrity()
    assert report.ok, report.render()


def test_induced_lock_cycle_aborts_one_client_not_the_server():
    """ISSUE acceptance: an induced lock cycle is detected and resolved
    by aborting one transaction (retryable deadlock error) rather than
    hanging both connections."""
    server, __ = stress_server()
    with server:
        c1 = ReproClient(*server.address)
        c2 = ReproClient(*server.address)
        try:
            c1.begin()
            c2.begin()
            c1.insert("P", [100, 1000])  # c1: X on P key (100, 1000)
            c2.insert("P", [101, 1010])  # c2: X on P key (101, 1010)

            outcomes: dict[str, str] = {}

            def cross(name, client, k1):
                # inserting the key the *other* transaction just created
                # blocks on its X lock (the duplicate check must wait for
                # that transaction's fate) — done from both sides, a cycle
                try:
                    client.insert("P", [k1, k1 * 10])
                    outcomes[name] = "ok"
                except ServerError as exc:
                    outcomes[name] = exc.error_type
                    assert exc.retryable

            run_threads(
                [
                    lambda: cross("c1", c1, 101),
                    lambda: cross("c2", c2, 100),
                ],
                timeout=60.0,
            )
            assert sorted(outcomes.values()) == ["DeadlockError", "ok"], outcomes

            # the victim's transaction was rolled back server-side;
            # both connections remain usable
            survivor = "c1" if outcomes["c1"] == "ok" else "c2"
            victim_client = c2 if survivor == "c1" else c1
            survivor_client = c1 if survivor == "c1" else c2
            survivor_client.commit()
            assert victim_client.ping() > 0
            victim_client.begin()
            victim_client.rollback()
            locks = server.db.session_manager.locks
            assert locks.stats.deadlocks >= 1
        finally:
            c1.close()
            c2.close()
    server.db.session_manager.locks.assert_idle()


# ----------------------------------------------------------------------
# Fault-tolerance satellites: slow readers and retry_after hints


def test_slow_reader_is_disconnected_not_pinned():
    """A client that stops reading must cost one bounded send timeout,
    not a worker thread parked in sendall forever."""
    from repro.sql import SqlSession

    db = Database("served")
    SqlSession(db).execute(
        "CREATE TABLE blob (a INTEGER NOT NULL, pad TEXT);"
    )
    pad = "x" * 1024
    for i in range(8000):
        db.insert("blob", (i, pad))

    with ReproServer(db, send_timeout=0.3) as server:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # A tiny receive window forces the ~8 MB reply to block in
            # the server's sendall until its timeout trips.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(server.address)
            wire.send_frame(sock, {"op": "select", "table": "blob"})
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if server.stats.snapshot()["send_timeouts"]:
                    break
                time.sleep(0.05)
            assert server.stats.snapshot()["send_timeouts"] == 1
        finally:
            sock.close()
    # The stalled connection was dropped; the server stayed serviceable.


def test_overload_rejection_carries_queue_scaled_retry_after():
    with tourism_server(
        max_inflight=1, admission_timeout=0.05, lock_timeout=5.0
    ) as server:
        holder = ReproClient(*server.address)
        bounced = ReproClient(*server.address)
        try:
            holder.begin()
            holder.insert("tour", ["NEW", "K9", "held"])

            blockers = [ReproClient(*server.address) for __ in range(3)]

            def blocked_insert(c: ReproClient) -> None:
                try:
                    # Same primary key: waits on the X lock, pinning the
                    # single admission slot (or bounces — also fine).
                    c.insert("tour", ["NEW", "K9", "dup"])
                except ServerError:
                    pass

            threads = [
                threading.Thread(
                    target=blocked_insert, args=(c,), daemon=True
                )
                for c in blockers
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.4)  # let them stack up on the one slot

            with pytest.raises(ServerError) as info:
                bounced.select("tour")
            assert info.value.error_type == "Overloaded"
            # The hint exists, is positive, and scales with queue depth
            # (floor: one waiter ahead -> at least two ticks).
            assert info.value.retry_after is not None
            assert info.value.retry_after >= 0.05
            assert info.value.retry_after <= 2.0

            holder.rollback()
            for thread in threads:
                thread.join(10.0)
            for c in blockers:
                c.close()
        finally:
            holder.close()
            bounced.close()


def test_retrying_honours_the_servers_retry_after_hint():
    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            sleeps: list[float] = []
            calls = {"n": 0}

            def flaky():
                calls["n"] += 1
                if calls["n"] < 3:
                    raise ServerError(
                        "backpressure", "Overloaded", True, retry_after=0.123
                    )
                return "landed"

            result = client.retrying(
                flaky, attempts=5, base_delay=1e-4, max_delay=1e-3,
                sleep=sleeps.append,
            )
            assert result == "landed"
            # The hint floors the (deliberately tiny) jittered schedule:
            # the server said "not before 123ms", so no sleep is shorter.
            assert sleeps == [0.123, 0.123]


def test_retrying_never_retries_delivery_unknown():
    from repro.server import DeliveryUnknown

    with tourism_server() as server:
        with ReproClient(*server.address) as client:
            calls = {"n": 0}

            def undecided():
                calls["n"] += 1
                raise DeliveryUnknown("outcome unknown")

            with pytest.raises(DeliveryUnknown):
                client.retrying(undecided, attempts=5)
            assert calls["n"] == 1


def _until(predicate, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Intake bound: a pipelining client is paced by TCP, not buffered


def test_intake_is_bounded_by_the_socket_buffers():
    """A client that writes frames and never reads must not grow server
    memory: the serial connection thread takes one frame at a time, so
    whatever it has not dispatched yet sits in the two kernel socket
    buffers — and nowhere else."""
    frame = wire._LENGTH.pack(4096) + (
        b'{"op":"ping","pad":"' + b"x" * (4096 - 22) + b'"}'
    )
    total = 16 * 1024 * 1024
    with tourism_server() as server:
        baseline = server.sessions.stats()["open_sessions"]
        writer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # A fixed send buffer (no autotuning) keeps the bound small
            # next to what is written.
            writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 65536)
            writer.connect(server.address)
            writer.setblocking(False)
            stream = memoryview(frame * 64)
            deadline = time.monotonic() + 60.0
            sent = 0
            while sent < total:
                assert time.monotonic() < deadline, "writer never finished"
                try:
                    sent += writer.send(stream[sent % len(frame):])
                except BlockingIOError:
                    select.select([], [writer], [], 1.0)
            dispatched = server.stats.snapshot()["requests"]
            (accepted,) = server._conns.values()
            held = (
                writer.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                + accepted.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
            )
            # The kernel accounts buffers in whole segments and lets a
            # sender overshoot by one, so the two sizes are met to within
            # a few percent either way: allow twice their sum (a server
            # that queues its intake holds all 16 MiB here).
            assert sent - dispatched * len(frame) <= 2 * held
            assert 2 * held < total // 8
            with ReproClient(*server.address) as other:
                assert other.ping() > 0
        finally:
            writer.close()
        _until(
            lambda: server.sessions.stats()["open_sessions"] == baseline,
            "the writer's session to be released",
        )


# ----------------------------------------------------------------------
# One lifecycle suite, run against both roles of the serving core


@contextmanager
def serving_role(role: str, shards: int = 1):
    """``(front, shard_servers)``: *front* is the endpoint under test —
    a ReproServer over the chaos schema, or a ShardCoordinator over
    *shards* such servers."""
    servers = [
        ReproServer(build_chaos_shard_database(i, shards), lock_timeout=8.0)
        .start()
        for i in range(shards)
    ]
    front = servers[0]
    if role == "coordinator":
        front = ShardCoordinator(
            build_chaos_catalog(shards), [s.address for s in servers]
        ).start()
    try:
        yield front, servers
    finally:
        front.shutdown()
        for server in servers:
            server.shutdown()


@pytest.fixture(params=["server", "coordinator"])
def role(request):
    with serving_role(request.param) as (front, servers):
        yield front, servers[0]


def _raw(front) -> socket.socket:
    sock = socket.create_connection(front.address)
    sock.settimeout(10.0)
    return sock


def _insert(id_: int, **extra) -> dict:
    # Fully referencing: co-located one-phase through a coordinator.
    return {"op": "insert", "table": "C", "values": [id_, 3, 30], **extra}


@contextmanager
def _key_lock_held(shard, id_: int):
    """Hold X on ``C.id = id_`` from a session outside any connection,
    so an insert of that id blocks in a lock wait until we let go."""
    holder = shard.sessions.session()
    holder.begin()
    holder.insert("C", (id_, NULL, NULL))
    try:
        yield
    finally:
        if holder.is_open:
            holder.close()


def _await_requests(front, n: int) -> None:
    _until(lambda: front.stats.snapshot()["requests"] >= n,
           f"request {n} to be dispatched")


def test_idle_connections_do_not_delay_shutdown(role):
    front, __ = role
    clients = [ReproClient(*front.address) for __ in range(3)]
    try:
        assert all(c.ping() > 0 for c in clients)
        start = time.monotonic()
        front.shutdown()
        assert time.monotonic() - start < 1.0
    finally:
        for c in clients:
            c.close()


def test_inflight_request_is_answered_and_the_queued_one_is_not_run(role):
    """The queued request is a delete (a second insert could join the
    first one's run); had it run, row 1 would be gone."""
    front, shard = role
    sock = _raw(front)
    try:
        with _key_lock_held(shard, 1):
            wire.send_frame(sock, _insert(1, id=1))
            wire.send_frame(
                sock, {"op": "delete", "table": "C", "equals": {"id": 1}, "id": 2}
            )
            _await_requests(front, 1)
            stopper = threading.Thread(target=front.shutdown, daemon=True)
            stopper.start()
            time.sleep(0.3)  # shutdown is now draining around the wait
            assert stopper.is_alive()
        reply = wire.recv_frame(sock)
        assert reply is not None and reply["ok"] and reply["id"] == 1
        assert wire.recv_frame(sock) is None  # clean close, no second reply
        stopper.join(10.0)
        assert not stopper.is_alive()
    finally:
        sock.close()
    assert [row[0] for row in shard.db.select("C")] == [1]


def test_shutdown_deadline_holds_with_a_handler_blocked_on_a_lock(role):
    front, shard = role
    sock = _raw(front)
    try:
        with _key_lock_held(shard, 1):
            wire.send_frame(sock, _insert(1))
            _await_requests(front, 1)
            time.sleep(0.2)  # let it reach the lock wait
            start = time.monotonic()
            front.shutdown(timeout=0.5)
            assert time.monotonic() - start < 1.5
    finally:
        sock.close()


def test_trickling_reader_is_cut_after_send_timeout_and_counted(role):
    """The send timeout bounds the whole reply: a reader that takes a
    byte now and then is cut like one that takes none.  (Both roles
    quote an unknown op back in the error, which makes a reply of any
    size without a table to fill.)"""
    front, __ = role
    front.send_timeout = 0.3
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(front.address)
        wire.send_frame(sock, {"op": "x" * (8 * 1024 * 1024)})
        deadline = time.monotonic() + 15.0
        while not front.stats.snapshot()["send_timeouts"]:
            assert time.monotonic() < deadline, "stalled reader never cut"
            sock.recv(1)
            time.sleep(0.05)
        assert front.stats.snapshot()["send_timeouts"] == 1
    finally:
        sock.close()
    with ReproClient(*front.address) as client:
        assert client.ping() > 0


def test_accept_fault_sheds_one_connection_and_serves_the_next(role):
    from repro.testing import faults

    front, __ = role
    faults.install("wire.accept", faults.TransientInjector(times=1))
    shed = _raw(front)
    try:
        try:
            wire.send_frame(shed, {"op": "ping"})
            assert wire.recv_frame(shed) is None
        except OSError:
            pass  # reset instead of a clean close: shed all the same
    finally:
        shed.close()
    with ReproClient(*front.address) as client:
        assert client.ping() > 0
    stats = front.stats.snapshot()
    assert stats["accept_faults"] == 1
    assert stats["connections_total"] == 1


def test_frame_torn_mid_pipeline_ends_the_connection_in_order(role):
    front, __ = role
    sock = _raw(front)
    try:
        for i in (1, 2, 3):
            wire.send_frame(sock, {"op": "ping", "id": i})
        sock.sendall(b"\x00\x00\x00\x64" + b'{"op":"pi')  # announces 100
        sock.shutdown(socket.SHUT_WR)
        replies = [wire.recv_frame(sock) for __ in range(4)]
    finally:
        sock.close()
    assert [r and r["id"] for r in replies] == [1, 2, 3, None]
    assert front.stats.snapshot()["read_faults"] == 1


def test_id_echo_does_not_leak_into_a_ledger_cached_reply(role):
    front, __ = role
    sock = _raw(front)
    try:
        stamp = {"client": "echo-test", "req": 1}
        wire.send_frame(sock, _insert(1, id=7, **stamp))
        first = wire.recv_frame(sock)
        assert first["ok"] and first["id"] == 7
        wire.send_frame(sock, _insert(1, **stamp))  # redelivery, no id
        replay = wire.recv_frame(sock)
        assert replay["ok"] and "id" not in replay
        assert replay["rid"] == first["rid"]
        wire.send_frame(sock, _insert(1, id=9, **stamp))
        assert wire.recv_frame(sock)["id"] == 9
    finally:
        sock.close()


def test_same_stamp_on_two_connections_runs_once(role):
    """A redelivery that arrives while the first copy is still executing
    waits for it and replays its outcome; it never runs beside it."""
    front, shard = role
    first, second = _raw(front), _raw(front)
    try:
        request = _insert(1, client="twice", req=1)
        latch = shard.sessions.latch
        latch.acquire()  # any stall: a checkpoint, an fsync, a lock wait
        try:
            wire.send_frame(first, request)
            _await_requests(front, 1)
            wire.send_frame(second, request)
            _await_requests(front, 2)
            time.sleep(0.1)
        finally:
            latch.release()
        replies = [wire.recv_frame(first), wire.recv_frame(second)]
    finally:
        first.close()
        second.close()
    assert [r["ok"] for r in replies] == [True, True]
    assert "replayed" not in replies[0] and replies[1]["replayed"]
    assert [row[0] for row in shard.db.select("C")] == [1]
