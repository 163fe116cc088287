"""Durable WAL tests: segment framing, torn tails, restart recovery.

The physical layer (:mod:`repro.storage.segments`) is exercised on raw
bytes — CRC detection, torn-tail truncation, checkpoint compaction —
and the logical layer through the process-restart entry point
:func:`repro.storage.wal.open_durable`: every restart here builds a
*fresh* catalog and recovers heap contents from disk alone, which is
exactly what a ``kill -9`` forces on the server.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro import Column, Database
from repro.errors import WalError
from repro.storage.segments import SegmentStore, TornTail
from repro.storage.wal import WriteAheadLog, open_durable


def bootstrap() -> Database:
    """The catalog a process creates before attaching the durable log."""
    db = Database("durable")
    db.create_table("t", [Column("a"), Column("b")])
    return db


def rows(db: Database) -> list:
    return sorted(db.table("t").rows())


def deferring_session(db: Database):
    """A session whose commits wait for the owner's flush, as the
    server's connections do."""
    session = db.enable_sessions().session()
    session.flush_on_commit = False
    return session


# ----------------------------------------------------------------------
# Physical layer: SegmentStore


class TestSegmentStore:
    def test_append_load_round_trip(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.append([b"alpha", b"beta"])
        store.append([b"gamma"])
        payloads, torn = SegmentStore(tmp_path).load()
        assert payloads == [b"alpha", b"beta", b"gamma"]
        assert torn is None

    def test_one_fsync_per_append_batch(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.append([b"a", b"b", b"c", b"d"])
        assert store.sync_count == 1
        store.append([])  # empty batch costs nothing
        assert store.sync_count == 1

    def test_segment_rollover(self, tmp_path):
        store = SegmentStore(tmp_path, segment_bytes=32)
        for i in range(6):
            store.append([b"x" * 16])
        assert len(store.segment_paths()) > 1
        payloads, torn = SegmentStore(tmp_path).load()
        assert payloads == [b"x" * 16] * 6 and torn is None

    def test_short_header_tail_is_truncated(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.append([b"intact"])
        path = store.segment_paths()[-1]
        clean_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")  # torn mid-header
        payloads, torn = SegmentStore(tmp_path).load()
        assert payloads == [b"intact"]
        assert isinstance(torn, TornTail) and "short header" in torn.reason
        # The tear was physically truncated: the next load is clean.
        assert path.stat().st_size == clean_size
        assert SegmentStore(tmp_path).load() == ([b"intact"], None)

    def test_short_payload_tail_is_truncated(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.append([b"intact"])
        path = store.segment_paths()[-1]
        with open(path, "ab") as fh:
            fh.write(len(b"wide payload").to_bytes(4, "big"))
            fh.write((0).to_bytes(4, "big"))
            fh.write(b"wid")  # announces 12 payload bytes, writes 3
        payloads, torn = SegmentStore(tmp_path).load()
        assert payloads == [b"intact"]
        assert torn is not None and "short payload" in torn.reason

    def test_crc_mismatch_stops_replay(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.append([b"first", b"second"])
        path = store.segment_paths()[-1]
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit inside the last payload
        path.write_bytes(bytes(data))
        payloads, torn = SegmentStore(tmp_path).load()
        assert payloads == [b"first"]
        assert torn is not None and "CRC" in torn.reason

    def test_tear_drops_later_segments(self, tmp_path):
        store = SegmentStore(tmp_path, segment_bytes=8)
        store.append([b"one"])
        store.append([b"two"])  # rolls into a second segment
        first = store.segment_paths()[0]
        data = bytearray(first.read_bytes())
        data[-1] ^= 0xFF
        first.write_bytes(bytes(data))
        payloads, torn = SegmentStore(tmp_path).load()
        # Records after a tear are unreachable by WAL discipline.
        assert payloads == [] and torn is not None
        assert len(SegmentStore(tmp_path).segment_paths()) == 1

    def test_checkpoint_compacts_segments(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.append([b"old"])
        store.write_checkpoint(b"snapshot")
        assert store.segment_paths() == []
        assert SegmentStore(tmp_path).load_checkpoint() == b"snapshot"
        store.append([b"new"])
        assert SegmentStore(tmp_path).load() == ([b"new"], None)

    def test_has_state(self, tmp_path):
        store = SegmentStore(tmp_path)
        assert not store.has_state()
        store.append([b"x"])
        assert SegmentStore(tmp_path).has_state()

    def test_oversized_record_refused(self, tmp_path):
        from repro.storage.segments import MAX_RECORD_BYTES

        store = SegmentStore(tmp_path)
        with pytest.raises(WalError):
            store.append([b"\x00" * (MAX_RECORD_BYTES + 1)])

    def test_implausible_length_is_a_tear_not_an_allocation(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.append([b"fine"])
        path = store.segment_paths()[-1]
        with open(path, "ab") as fh:
            fh.write((2**31).to_bytes(4, "big") + b"\x00" * 8)
        payloads, torn = SegmentStore(tmp_path).load()
        assert payloads == [b"fine"]
        assert torn is not None and "implausible" in torn.reason

    def test_alien_files_rejected(self, tmp_path):
        (tmp_path / "wal-junk.seg").write_bytes(b"")
        with pytest.raises(WalError):
            SegmentStore(tmp_path)


# ----------------------------------------------------------------------
# Logical layer: open_durable restart discipline


class TestDurableRestart:
    def test_fresh_directory_attaches_without_recovery(self, tmp_path):
        db = bootstrap()
        wal, report = open_durable(db, tmp_path)
        assert report is None
        assert wal.is_durable and db.wal is wal

    def test_committed_rows_survive_restart(self, tmp_path):
        db = bootstrap()
        open_durable(db, tmp_path)
        db.insert("t", (1, 10))
        with db.begin():
            db.insert("t", (2, 20))
            db.insert("t", (3, 30))

        db2 = bootstrap()
        wal2, report = open_durable(db2, tmp_path)
        assert report is not None and report.records_replayed >= 3
        assert rows(db2) == [(1, 10), (2, 20), (3, 30)]
        assert wal2.torn_tail is None

    def test_unflushed_buffer_dies_with_the_process(self, tmp_path):
        db = bootstrap()
        open_durable(db, tmp_path)
        db.insert("t", (1, 10))
        deferring_session(db).insert("t", (2, 20))
        # Committed but not flushed: the commit has not reached disk.  A
        # kill -9 here loses (2, 20) but must keep (1, 10).
        db2 = bootstrap()
        __, report = open_durable(db2, tmp_path)
        assert report is not None
        assert rows(db2) == [(1, 10)]

    def test_torn_commit_record_is_atomic(self, tmp_path):
        db = bootstrap()
        open_durable(db, tmp_path)
        db.insert("t", (1, 10))
        db.insert("t", (2, 20))
        # Tear the last frame on disk: the second insert's commit.
        store = SegmentStore(tmp_path)
        path = store.segment_paths()[-1]
        data = path.read_bytes()
        path.write_bytes(data[:-1])

        db2 = bootstrap()
        wal2, report = open_durable(db2, tmp_path)
        assert wal2.torn_tail is not None
        assert rows(db2) == [(1, 10)]  # prefix intact, tear discarded
        # The truncated tail accepts new appends cleanly.
        db2.insert("t", (3, 30))
        db3 = bootstrap()
        wal3, __ = open_durable(db3, tmp_path)
        assert rows(db3) == [(1, 10), (3, 30)]
        assert wal3.torn_tail is None

    def test_checkpoint_extras_survive_restart(self, tmp_path):
        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        db.insert("t", (1, 10))
        wal.checkpoint(db, extras={"ledger": {"c1": {7: {"ok": True}}}})
        db.insert("t", (2, 20))

        db2 = bootstrap()
        wal2, report = open_durable(db2, tmp_path)
        assert wal2.checkpoint_extras == {"ledger": {"c1": {7: {"ok": True}}}}
        assert rows(db2) == [(1, 10), (2, 20)]
        assert report is not None

    def test_checkpoint_compacts_but_loses_nothing(self, tmp_path):
        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        for i in range(8):
            db.insert("t", (i, i * 10))
        segments_before = sum(
            p.stat().st_size for p in SegmentStore(tmp_path).segment_paths()
        )
        wal.checkpoint(db)
        segments_after = sum(
            p.stat().st_size for p in SegmentStore(tmp_path).segment_paths()
        )
        assert segments_after < segments_before
        db2 = bootstrap()
        open_durable(db2, tmp_path)
        assert rows(db2) == [(i, i * 10) for i in range(8)]

    def test_commit_note_round_trips_through_disk(self, tmp_path):
        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        txn_id = wal.begin()
        wal.log_mutation(txn_id, ("insert", "t", 99, (9, 90)))
        wal.commit(txn_id, note={"client": "c1", "req": 3})

        wal2 = WriteAheadLog.open(tmp_path)
        notes = [
            r.payload[0]
            for r in wal2.durable_records
            if r.kind == "commit" and r.payload
        ]
        assert {"client": "c1", "req": 3} in notes

    def test_deferred_commits_batch_physical_syncs(self, tmp_path):
        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        assert wal.store is not None
        base = wal.store.sync_count
        session = deferring_session(db)
        for i in range(20):
            session.insert("t", (i, 0))
        wal.flush()
        assert wal.store.sync_count == base + 1

    def test_lsn_and_txn_counters_resume_past_disk(self, tmp_path):
        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        db.insert("t", (1, 10))
        high_lsn, high_txn = wal.lsn, wal._next_txn

        db2 = bootstrap()
        wal2, __ = open_durable(db2, tmp_path)
        assert wal2.lsn >= high_lsn
        assert wal2._next_txn >= high_txn

    def test_double_attach_refused(self, tmp_path):
        db = bootstrap()
        open_durable(db, tmp_path)
        with pytest.raises(WalError):
            open_durable(db, tmp_path)

    def test_stale_segments_after_checkpoint_crash_are_skipped(self, tmp_path):
        # A crash between checkpoint replace and segment deletion leaves
        # pre-checkpoint segments behind; the loader filters them by LSN.
        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        db.insert("t", (1, 10))
        store = SegmentStore(tmp_path)
        stale = [p.read_bytes() for p in store.segment_paths()]
        wal.checkpoint(db)
        # Resurrect the deleted pre-checkpoint segment.
        (tmp_path / "wal-00000001.seg").write_bytes(stale[0])
        db2 = bootstrap()
        __, report = open_durable(db2, tmp_path)
        assert rows(db2) == [(1, 10)]
        assert report is not None and report.records_replayed == 0

    def test_a_flush_racing_a_checkpoint_survives_the_compaction(self, tmp_path):
        """A two-phase record is logged without the statement latch, so
        it may flush while a checkpoint runs.  Its frame must not land
        in a segment the compaction deletes: the flush waits for the
        checkpoint and goes to a fresh segment."""
        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        db.insert("t", (1, 10))
        assert wal.store is not None
        racer = threading.Thread(
            target=wal.log_two_phase, args=("decide", ("g1", "commit"))
        )
        compact = wal.store.write_checkpoint

        def racing_compaction(blob: bytes) -> None:
            racer.start()
            racer.join(0.2)  # blocked on the checkpoint, or already flushed
            compact(blob)

        wal.store.write_checkpoint = racing_compaction  # type: ignore[method-assign]
        wal.checkpoint(db)
        racer.join(5.0)
        kinds = [r.kind for r in WriteAheadLog.open(tmp_path).durable_records]
        assert kinds == ["decide", "commit"]

    def test_checkpoint_blob_is_a_pickle_of_tables(self, tmp_path):
        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        db.insert("t", (1, 10))
        wal.checkpoint(db)
        blob = SegmentStore(tmp_path).load_checkpoint()
        assert blob is not None
        checkpoint = pickle.loads(blob)
        assert "t" in checkpoint.tables


# ----------------------------------------------------------------------
# One frame per flush, and no durable record held in memory


def flush_records(wal: WriteAheadLog, sizes: list[int]) -> list[list]:
    """One committed transaction of ``size`` records per flush; returns
    the records each flush carried, in LSN order."""
    flushes = []
    for size in sizes:
        txn_id = wal.begin()
        for i in range(size - 1):
            wal.log_mutation(txn_id, ("insert", "t", i, (i, size)))
        wal.commit(txn_id, sync=False)
        flushes.append(list(wal._buffer))
        wal.flush()
    return flushes


def frame_ends(path) -> list[int]:
    """The byte offset where each frame of a segment file ends."""
    data = path.read_bytes()
    ends, offset = [], 0
    while offset < len(data):
        offset += 8 + int.from_bytes(data[offset:offset + 4], "big")
        ends.append(offset)
    return ends


class TestFlushFrames:
    SIZES = [1, 3, 300, 2, 257]

    def store_backed(self, tmp_path) -> WriteAheadLog:
        # A buffer wider than the largest flush: no overflow splits one.
        return WriteAheadLog(capacity=1000, store=SegmentStore(tmp_path))

    def test_open_round_trips_flushes_of_mixed_sizes(self, tmp_path):
        wal = self.store_backed(tmp_path)
        flushes = flush_records(wal, self.SIZES)
        assert wal.store is not None and wal.store.sync_count == len(self.SIZES)
        payloads, torn = SegmentStore(tmp_path).load()
        assert len(payloads) == len(self.SIZES) and torn is None
        reopened = WriteAheadLog.open(tmp_path)
        assert list(reopened.durable_records) == [r for f in flushes for r in f]
        assert reopened.lsn == wal.lsn

    @pytest.mark.parametrize("damage", ["tear", "crc"])
    def test_damage_inside_a_frame_drops_that_flush_and_all_after(
        self, tmp_path, damage
    ):
        flushes = flush_records(self.store_backed(tmp_path), [4, 300, 5])
        path = SegmentStore(tmp_path).segment_paths()[-1]
        first_end, second_end, __ = frame_ends(path)
        middle = (first_end + second_end) // 2  # inside the 300-record frame
        data = bytearray(path.read_bytes())
        if damage == "tear":
            path.write_bytes(bytes(data[:middle]))
        else:
            data[middle] ^= 0xFF
            path.write_bytes(bytes(data))

        reopened = WriteAheadLog.open(tmp_path)
        assert reopened.torn_tail is not None
        assert list(reopened.durable_records) == flushes[0]
        assert path.stat().st_size == first_end
        # The truncated tail takes new flushes and reads back cleanly.
        later = flush_records(reopened, [2, 200])
        again = WriteAheadLog.open(tmp_path)
        assert again.torn_tail is None
        assert list(again.durable_records) == flushes[0] + later[0] + later[1]
        assert len({r.lsn for r in again.durable_records}) == len(again)


class TestDurableLogLivesOnDisk:
    def test_flushes_leave_no_record_in_memory(self, tmp_path):
        wal = WriteAheadLog(capacity=1000, store=SegmentStore(tmp_path))
        flushes = flush_records(wal, [5, 1, 40])
        assert wal._durable == [] and wal.buffered_count == 0
        flushed = [r for f in flushes for r in f]
        assert list(wal.durable_records) == flushed
        assert [r.lsn for r in flushed] == sorted(r.lsn for r in flushed)
        assert len(wal) == len(flushed)

    def test_in_memory_log_keeps_its_list(self):
        wal = WriteAheadLog(capacity=1000)
        flushes = flush_records(wal, [3, 2])
        assert wal._durable == flushes[0] + flushes[1]
        assert list(wal.durable_records) == wal._durable

    def test_simulate_crash_recovers_every_committed_row_from_disk(self, tmp_path):
        from repro.storage.wal import simulate_crash

        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        for i in range(50):
            db.insert("t", (i, i * 10))
        wal.checkpoint(db)
        with db.begin():
            for i in range(50, 80):
                db.insert("t", (i, i * 10))
        deferring_session(db).insert("t", (99, 990))  # never flushed
        assert wal._durable == []
        report = simulate_crash(db)
        assert rows(db) == [(i, i * 10) for i in range(80)]
        assert report.records_replayed == 30
        assert db.verify_integrity().ok

    def test_a_deferred_checkpoint_leaves_memory_empty(self, tmp_path):
        """An idle open transaction defers every checkpoint; the log it
        keeps growing lives on disk alone."""
        from repro.server import ReproClient, ReproServer

        server = ReproServer(bootstrap(), data_dir=str(tmp_path), checkpoint_every=64)
        with server, ReproClient(*server.address) as idle, \
                ReproClient(*server.address) as writer:
            idle.begin()
            idle.insert("t", [-1, -1])
            for i in range(2000):
                writer.insert("t", [i, i])
            wal = server.db.wal
            assert server.stats.snapshot()["checkpoints"] == 0
            assert wal._durable == [] and wal.buffered_count == 0
            commits = [r for r in wal.durable_records if r.kind == "commit"]
            assert len(commits) == 2000


# ----------------------------------------------------------------------
# The checkpoint lives on disk only, and a restart reads the log once


def heap_images_reachable_from(root) -> int:
    """How many ``HeapImage`` objects *root* references, at any depth."""
    import gc

    from repro.storage.heap import HeapImage

    seen, found, stack = set(), 0, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, str, bytes, int)):
            continue
        seen.add(id(obj))
        if isinstance(obj, HeapImage):
            found += 1
            continue
        stack.extend(gc.get_referents(obj))
    return found


class TestCheckpointLivesOnDisk:
    def test_a_checkpoint_keeps_no_heap_image(self, tmp_path):
        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        for i in range(20):
            db.insert("t", (i, i * 10))
        wal.checkpoint(db, extras={"ledger": {"c": {1: "ok"}}})
        assert heap_images_reachable_from(wal) == 0
        assert wal.checkpoint_extras == {"ledger": {"c": {1: "ok"}}}
        # the image is on disk, and it is the live heap's
        image = pickle.loads(SegmentStore(tmp_path).load_checkpoint())
        assert sorted(image.tables["t"].heap_image.rows.values()) == rows(db)
        # a restart replays what open() read, then keeps no image either
        db2 = bootstrap()
        wal2, report = open_durable(db2, tmp_path)
        assert report is not None and rows(db2) == rows(db)
        assert heap_images_reachable_from(wal2) == 0

    def test_the_in_memory_log_keeps_its_image(self):
        db = bootstrap()
        wal = WriteAheadLog()
        db.attach_wal(wal)
        db.insert("t", (1, 10))
        wal.checkpoint(db)
        assert heap_images_reachable_from(wal) == 1

    def test_crash_and_restart_recover_every_committed_row(self, tmp_path):
        from repro.storage.wal import simulate_crash

        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)
        for i in range(30):
            db.insert("t", (i, i))
        wal.checkpoint(db)
        with db.begin():
            for i in range(30, 45):
                db.insert("t", (i, i))
        deferring_session(db).insert("t", (99, 99))  # never flushed
        expected = [(i, i) for i in range(45)]
        report = simulate_crash(db)
        assert rows(db) == expected
        assert report.records_replayed >= 15
        assert db.verify_integrity().ok
        wal.checkpoint(db)  # twice in a row: the image is re-read each time
        simulate_crash(db)
        assert rows(db) == expected
        db2 = bootstrap()
        open_durable(db2, tmp_path)
        assert rows(db2) == expected
        assert db2.verify_integrity().ok

    def test_one_checkpoint_keeps_almost_nothing(self, tmp_path):
        """What a checkpoint leaves allocated once it returns: the log
        without a store kept a copy of every heap (about 150 KB for
        these 4,000 rows); a store-backed log keeps the LSN, the extras
        and the catalog."""
        import tracemalloc

        db = bootstrap()
        wal, _ = open_durable(db, tmp_path)  # the first checkpoint
        with db.begin():
            for i in range(4000):
                db.insert("t", (i, i))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            wal.checkpoint(db)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert kept < 16 * 1024, f"one checkpoint kept {kept} bytes"

    def test_a_server_restart_reads_the_log_once(self, tmp_path, monkeypatch):
        from repro.server import ReproClient, ReproServer

        with ReproServer(bootstrap(), data_dir=str(tmp_path)) as server:
            with ReproClient(*server.address) as client:
                for i in range(10):
                    client.insert("t", [i, i])
        reads = []
        original = WriteAheadLog._read_segments

        def counted(self, store):
            reads.append(store)
            return original(self, store)

        monkeypatch.setattr(WriteAheadLog, "_read_segments", counted)
        with ReproServer(bootstrap(), data_dir=str(tmp_path)) as restarted:
            assert len(reads) == 1
            assert rows(restarted.db) == [(i, i) for i in range(10)]
            assert restarted.recovery_report.records == ()  # handed on
            assert len(restarted.ledger) == 1  # the one client's window
