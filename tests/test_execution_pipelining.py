"""Execution pipelining in the serving core (DESIGN.md §5d, §5j).

Consecutive autocommit ``insert``/``batch`` requests on one table that
one ``recv`` brought in execute as one run: one vectorized statement,
one implicit transaction, one commit record whose note carries every
stamp's ledger entry.  What these tests pin is that nothing else moves:
each request is answered in order as if it had run alone, a veto or a
fault inside the run leaves the replies and the table exactly as the
stop-and-wait sequence would, and the exactly-once guarantees hold per
stamp — across SIGKILL, a lost flush and a second connection carrying
the same run.
"""

from __future__ import annotations

import random
import select
import socket
import sys
import threading
import time

import pytest

from repro.server import ReproClient, ReproServer, wire
from repro.server.ledger import LedgerEntry
from repro.storage.wal import WriteAheadLog
from repro.testing import faults
from repro.testing.chaos import ServerSupervisor, build_chaos_database

from .test_flush_pipelining import _ids, _stamped, durable_server
from .test_server import _await_requests, _raw
from .test_sharding import _free_port


def _burst(sock: socket.socket, requests: list[dict]) -> list[dict]:
    """Write *requests* with one ``sendall`` and read their replies."""
    wire.send_frames(sock, requests)
    return [wire.recv_frame(sock) for __ in requests]


def test_a_settled_runs_stamps_all_replay_after_sigkill(tmp_path):
    port = _free_port()
    supervisor = ServerSupervisor(tmp_path, port, checkpoint_every=64)
    try:
        supervisor.start()
        sock = socket.create_connection(("127.0.0.1", port))
        sock.settimeout(10.0)
        try:
            first = _burst(sock, [_stamped(i, id=i) for i in range(1, 9)])
        finally:
            sock.close()
        assert [r["id"] for r in first] == list(range(1, 9))
        assert all(r["ok"] for r in first), first
        supervisor.kill9()
        # The eight acknowledged stamps rode one commit record.
        notes = [
            record.payload[0] for record in WriteAheadLog.open(tmp_path).durable_records
            if record.kind == "commit" and record.payload
        ]
        assert [[e.request_id for e in note] for note in notes] == [list(range(1, 9))]
        assert all(isinstance(e, LedgerEntry) for e in notes[0])
        supervisor.start()
        with ReproClient("127.0.0.1", port, client_id="burst") as client:
            again = [client.request(**_stamped(i)) for i in range(1, 9)]
            assert all(r["replayed"] for r in again)
            assert [r["rid"] for r in again] == [r["rid"] for r in first]
            assert sorted(row[0] for row in client.select("C")) == list(range(1, 9))
            assert client.verify()["clean"]
    finally:
        supervisor.stop()


def test_a_run_whose_flush_was_discarded_reexecutes_exactly_once(tmp_path):
    with durable_server(tmp_path) as server:
        lost: list[int] = []
        crashed, parked = threading.Event(), threading.Event()

        def power_cut(state) -> None:
            # What a crash destroys, where the run's commit is not yet
            # on disk; the thread gets no further while we look.
            lost.append(server.db.wal.discard_volatile())
            crashed.set()
            parked.wait(10.0)

        server.settle = power_cut
        sock = _raw(server)
        try:
            wire.send_frames(sock, [_stamped(i, id=i) for i in range(1, 5)])
            assert crashed.wait(5.0)
            assert not select.select([sock], [], [], 0.3)[0]  # no reply
        finally:
            sock.close()
            parked.set()
        # Four row records and ONE commit: the run was one transaction.
        assert lost == [5]
    with durable_server(tmp_path) as restarted:
        assert _ids(restarted) == []
        sock = _raw(restarted)
        try:
            redelivered = _burst(sock, [_stamped(i, id=i) for i in range(1, 5)])
            replayed = _burst(sock, [_stamped(i, id=i) for i in range(1, 5)])
        finally:
            sock.close()
        assert all(r["ok"] and "replayed" not in r for r in redelivered)
        assert all(r["replayed"] for r in replayed)
        assert [r["rid"] for r in replayed] == [r["rid"] for r in redelivered]
        assert _ids(restarted) == [1, 2, 3, 4]


def _veto_mix() -> list[dict]:
    """Stamped and unstamped inserts and a batch around a vetoed row."""
    return [
        _stamped(1, id=1),
        {"op": "insert", "table": "C", "values": [2, None, 40], "id": 2},
        _stamped(3, id=3, values=[3, 99, 990]),  # no parent has k1 = 99
        {"op": "batch", "table": "C", "rows": [[4, 5, None], [5, None, None]],
         "client": "burst", "req": 4, "id": 4},
        _stamped(5, id=5, values=[6, 7, 70]),
    ]


def test_a_vetoed_row_mid_run_answers_and_leaves_what_stop_and_wait_does(tmp_path):
    with durable_server(tmp_path / "run") as piped, \
            durable_server(tmp_path / "waited") as waited:
        store = piped.db.wal.store
        syncs = store.sync_count
        sock = _raw(piped)
        try:
            run_replies = _burst(sock, _veto_mix())
        finally:
            sock.close()
        assert store.sync_count == syncs + 1
        sock = _raw(waited)
        try:
            wait_replies = [_burst(sock, [request])[0] for request in _veto_mix()]
        finally:
            sock.close()
        assert [r["ok"] for r in run_replies] == [True, True, False, True, True]
        assert run_replies[2]["error_type"] == "ReferentialIntegrityViolation"
        assert run_replies == wait_replies
        assert dict(piped.db.table("C").scan()) == dict(waited.db.table("C").scan())
        assert piped.ledger.snapshot() == waited.ledger.snapshot()


def test_the_same_run_stamped_on_two_connections_executes_once(tmp_path):
    """The second connection's run overlaps the first's by two stamps:
    it waits for the first at those stamps' gates, replays them, and
    runs its own two."""
    with durable_server(tmp_path) as server:
        first, second = _raw(server), _raw(server)
        try:
            latch = server.sessions.latch
            latch.acquire()  # the first run stalls inside its statement
            try:
                wire.send_frames(first, [_stamped(i, id=i) for i in (1, 2, 3, 4)])
                _await_requests(server, 4)
                wire.send_frames(second, [_stamped(i, id=i) for i in (3, 4, 5, 6)])
                _await_requests(server, 8)
                time.sleep(0.1)
            finally:
                latch.release()
            a = [wire.recv_frame(first) for __ in range(4)]
            b = [wire.recv_frame(second) for __ in range(4)]
        finally:
            first.close()
            second.close()
        assert all(r["ok"] for r in a + b), a + b
        assert not any(r.get("replayed") for r in a)
        assert [bool(r.get("replayed")) for r in b] == [True, True, False, False]
        assert [r["rid"] for r in b[:2]] == [r["rid"] for r in a[2:]]
        assert _ids(server) == [1, 2, 3, 4, 5, 6]


def test_one_pipeline_redelivered_on_many_connections_executes_each_stamp_once():
    """Eight connections stream the same stamps 1..K in bursts of random
    size, so runs overlap in every way; with a short switch interval the
    gates are raced hard.  Every stamp must execute exactly once, and
    every connection must get that execution's rid for it."""
    stamps, workers = 120, 8
    with ReproServer(build_chaos_database()) as server:
        rids: list[dict[int, int]] = [{} for __ in range(workers)]
        failures: list[Exception] = []

        def stream(slot: int) -> None:
            rng = random.Random(slot)
            sock = _raw(server)
            try:
                next_id = 1
                while next_id <= stamps:
                    size = rng.randint(1, 9)
                    chunk = range(next_id, min(next_id + size, stamps + 1))
                    for reply in _burst(sock, [_stamped(i, id=i) for i in chunk]):
                        assert reply["ok"], reply
                        rids[slot][reply["id"]] = reply["rid"]
                    next_id = chunk[-1] + 1
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
            finally:
                sock.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=stream, args=(slot,), daemon=True)
                       for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert _ids(server) == list(range(1, stamps + 1))
        assert all(seen == rids[0] for seen in rids)
        stats = server.stats.snapshot()
        assert stats["idempotent_replays"] == (workers - 1) * stamps


def test_a_stamp_repeated_inside_one_burst_executes_once():
    with ReproServer(build_chaos_database()) as server:
        sock = _raw(server)
        try:
            replies = _burst(sock, [_stamped(1, id=1), _stamped(1, id=2),
                                    _stamped(2, id=3)])
        finally:
            sock.close()
        assert [bool(r.get("replayed")) for r in replies] == [False, True, False]
        assert replies[1]["rid"] == replies[0]["rid"]
        assert _ids(server) == [1, 2]


@pytest.mark.parametrize("k", [0, 2, 4])
def test_a_request_fault_on_frame_k_of_a_run_fails_that_request_alone(tmp_path, k):
    """The fault point is crossed once per request, in order, as on the
    stop-and-wait path: the request it fires on fails and the others
    still share one statement and one flush."""
    with durable_server(tmp_path) as server:
        store = server.db.wal.store
        syncs = store.sync_count
        faults.install("server.request", faults.FailInjector(skip=k))
        sock = _raw(server)
        try:
            replies = _burst(sock, [_stamped(i, id=i) for i in range(1, 6)])
        finally:
            sock.close()
        assert [r["id"] for r in replies] == [1, 2, 3, 4, 5]
        assert [r["ok"] for r in replies] == [i != k for i in range(5)]
        assert replies[k]["error_type"] == "FaultError"
        assert _ids(server) == [i for i in range(1, 6) if i != k + 1]
        assert store.sync_count == syncs + 1
        assert server.stats.snapshot()["errors"] == 1


def test_the_checkpoint_cadence_counts_commits_not_stamps(tmp_path):
    """``checkpoint_every`` counts commits: a run of 64 stamped inserts
    is one commit and a 1,000-row ``batch`` one more, so neither comes
    near a checkpoint at ``checkpoint_every=64``; 64 single stamped
    inserts are 64 commits and take exactly one."""
    server = ReproServer(
        build_chaos_database(), data_dir=str(tmp_path), checkpoint_every=64
    )
    with server:
        def checkpoints() -> int:
            return server.stats.snapshot()["checkpoints"]

        sock = _raw(server)
        try:
            replies = _burst(sock, [_stamped(i, id=i) for i in range(1, 65)])
            assert all(r["ok"] for r in replies)
            assert checkpoints() == 0
            batch = {"op": "batch", "table": "C", "client": "burst", "req": 65,
                     "rows": [[i, 3, 30] for i in range(1000, 2000)]}
            assert _burst(sock, [batch])[0]["ok"]
            assert checkpoints() == 0
            # Two commits so far: the 62nd single insert is the 64th.
            for req in range(66, 66 + 62):
                assert checkpoints() == 0
                assert _burst(sock, [_stamped(req)])[0]["ok"]
            assert checkpoints() == 1
            for req in range(128, 128 + 64):
                assert _burst(sock, [_stamped(req)])[0]["ok"]
            assert checkpoints() == 2
        finally:
            sock.close()
        assert len(server.db.table("C")) == 64 + 1000 + 62 + 64
