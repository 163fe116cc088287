"""Write-ahead logging and crash recovery for the enforcement engine.

The engine is in-memory, so "durability" is modelled, not physical: the
:class:`WriteAheadLog` keeps a **volatile buffer** (records written but
not yet flushed — what a real engine holds in its log buffer) and a
**durable list** (what has reached the log file; with a segment store
the list *is* the segment files, read back on demand).  A simulated crash
discards the buffer and every live table; recovery rebuilds the database
from the last checkpoint snapshot plus the durable records of committed
transactions — MySQL 5.6's InnoDB redo-log discipline, which the paper's
experiments ran on, reduced to its logical core.

Record flow:

* every logical row mutation (insert/delete/update, with before and
  after images) and every index/table DDL performed through the
  :class:`~repro.storage.database.Database` API appends one record;
* records become durable when the log is flushed: at commit, unless the
  committer defers it with ``commit(..., sync=False)`` — the server's
  connections do, and flush once per burst of requests before any reply
  leaves, so many transactions share one flush — or when the buffer
  overflows its capacity;
* :meth:`WriteAheadLog.checkpoint` snapshots every table and truncates
  the durable log — the recovery starting point.  A store-backed log
  pickles the live heaps straight to disk and keeps only the
  checkpoint's LSN, extras and catalog in memory; recovery reads the
  image back from the store.

Recovery (:func:`recover`) is redo-only: restore the checkpoint images
in place (table objects keep their identity, so installed triggers,
foreign keys and cost trackers survive), replay committed records in LSN
order, then rebuild every index from its definition over the recovered
heap and recompute statistics.  Uncommitted transactions simply never
re-apply — atomicity comes for free.  Undo images are still logged: the
savepoint machinery (:mod:`repro.query.transaction`) uses them to emit
compensating records for partial rollbacks inside committed
transactions.

**Durability** is opt-in: constructed with a
:class:`~repro.storage.segments.SegmentStore` (or via
:meth:`WriteAheadLog.open` on a data directory), every logical flush
appends the flushed records to the segment files as one CRC frame with
one fsync — a torn frame loses its whole flush, which no reply
acknowledged — and keeps no copy in memory; every checkpoint atomically
replaces the on-disk snapshot and compacts the segments.
:func:`open_durable` is the process-restart entry point: it either
resumes a database from the directory's checkpoint + committed records
(surviving ``kill -9``, torn tails truncated by CRC) or attaches a
fresh durable log.  A restart reads the log once: what
:meth:`WriteAheadLog.open` read is what recovery replays, and the
report hands the records on to whoever interprets the protocol records
(the server's ledger and 2PC pass).  Commit records may
carry an opaque *note* (the server's exactly-once result ledger rides
here) which replay surfaces without interpreting.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from ..errors import WalError
from .heap import HeapImage
from .segments import SegmentStore, TornTail
from .statistics import TableStatistics
from .table import Table

if TYPE_CHECKING:  # pragma: no cover
    from ..indexes.definition import IndexDefinition
    from .database import Database

#: Row-mutation record kinds (payloads carry redo *and* undo images).
ROW_KINDS = frozenset({"insert", "delete", "update"})
#: Catalog record kinds.
DDL_KINDS = frozenset({"create_table", "drop_table", "create_index", "drop_index"})
#: Two-phase-commit coordination kinds (DESIGN.md §5i).  ``prepare``
#: carries ``(gtid, seq, ops, resolve_addr)``, ``decide`` carries
#: ``(gtid, verdict)``.  Redo replay ignores them — they are protocol
#: state interpreted by the 2PC participant
#: (:class:`repro.sharding.twophase.TwoPhaseParticipant`), which scans
#: the durable log for them at restart to reinstate in-doubt
#: transactions.
TWO_PHASE_KINDS = frozenset({"prepare", "decide"})


@dataclass(frozen=True)
class WalRecord:
    """One log record.

    Payloads by kind:

    * ``insert`` / ``delete`` — ``(rid, row)``;
    * ``update`` — ``(rid, old_row, new_row)``;
    * ``create_table`` — ``(schema,)``; ``drop_table`` — ``()``;
    * ``create_index`` — ``(definition,)``; ``drop_index`` — ``(name,)``;
    * ``commit`` — ``()``.
    """

    lsn: int
    txn_id: int
    kind: str
    table: str | None = None
    payload: tuple = ()


@dataclass
class _TableSnapshot:
    schema: Any
    #: None in the checkpoint a store-backed log keeps in memory: there
    #: the image lives on disk only.
    heap_image: "HeapImage | None"
    index_defs: list["IndexDefinition"]


@dataclass
class _Checkpoint:
    lsn: int
    tables: dict[str, _TableSnapshot]
    #: Opaque subsystem state snapshotted with the data (e.g. the
    #: server's exactly-once result ledger); recovery surfaces it via
    #: :attr:`WriteAheadLog.checkpoint_extras` without interpreting it.
    extras: dict[str, Any] = field(default_factory=dict)

    def without_images(self) -> "_Checkpoint":
        """This checkpoint as a store-backed log keeps it in memory."""
        return replace(
            self,
            tables={
                name: replace(snap, heap_image=None)
                for name, snap in self.tables.items()
            },
        )


@dataclass
class RecoveryReport:
    """What :func:`recover` did, for assertions and operator output."""

    checkpoint_lsn: int
    committed_txns: list[int] = field(default_factory=list)
    skipped_txns: list[int] = field(default_factory=list)
    records_replayed: int = 0
    indexes_rebuilt: int = 0
    #: The durable records recovery read, in LSN order, for a caller
    #: that interprets the protocol records replay skips (the server's
    #: ledger and 2PC pass) without reading the log again.  That caller
    #: drops them once done (:meth:`take_records`).
    records: tuple["WalRecord", ...] = field(default=(), repr=False)

    def take_records(self) -> tuple["WalRecord", ...]:
        """:attr:`records`, handed over once: the report keeps none."""
        records, self.records = self.records, ()
        return records

    def __str__(self) -> str:
        return (
            f"recovered from checkpoint lsn={self.checkpoint_lsn}: "
            f"{len(self.committed_txns)} txn(s) replayed "
            f"({self.records_replayed} records), "
            f"{len(self.skipped_txns)} uncommitted txn(s) discarded, "
            f"{self.indexes_rebuilt} index(es) rebuilt"
        )


class WriteAheadLog:
    """Logical redo/undo log with deferrable commit flushes and
    checkpoints."""

    def __init__(
        self, capacity: int = 256, store: SegmentStore | None = None
    ) -> None:
        if capacity < 1:
            raise WalError("log buffer capacity must be >= 1")
        self._capacity = capacity
        #: Guards the buffer, the in-memory durable list and both
        #: counters.  Most appenders run under the statement latch, but
        #: the two-phase participant logs prepare/decide records after
        #: its statement released it, so the log must be consistent on
        #: its own.  Never held across pickling or a segment append.
        self._mu = threading.Lock()
        #: One flusher at a time: flushes reach the store in LSN order,
        #: and a flush that returns means every record appended before
        #: the call is durable — also when an earlier flush, still
        #: syncing, had already taken that record out of the buffer.
        #: Taken before ``_mu``, never the other way round.  Reading a
        #: store-backed log back holds it too: no frame is half-written.
        self._flush_mu = threading.Lock()
        self._buffer: list[WalRecord] = []
        #: The durable records of a log without a store; a store-backed
        #: log leaves this empty and reads its segments back instead.
        self._durable: list[WalRecord] = []
        self._next_lsn = 0
        self._next_txn = 1
        #: The last checkpoint; a store-backed log keeps it without its
        #: heap images (:meth:`_Checkpoint.without_images`).
        self._checkpoint: _Checkpoint | None = None
        #: What :meth:`open` read — the whole checkpoint and the durable
        #: records — until the first recovery replays it (or a flush or
        #: checkpoint makes it stale).
        self._opened: tuple[_Checkpoint, list[WalRecord]] | None = None
        self._suspended = False
        #: Number of physical flushes — deferred commits are measured by
        #: this staying far below the number of commits.
        self.flush_count = 0
        #: Optional file-backed segment store: when present, every flush
        #: appends the flushed records to disk (one frame, one fsync) and
        #: every checkpoint persists the snapshot and compacts the
        #: segments.
        self._store = store
        #: Set by :meth:`open` when the on-disk log ended in a tear.
        self.torn_tail: TornTail | None = None

    # ------------------------------------------------------------------
    # Durable construction

    @classmethod
    def open(cls, data_dir: str | os.PathLike[str]) -> "WriteAheadLog":
        """Open (or create) the durable log under *data_dir*.

        Loads the checkpoint and scans every intact flush frame of the
        segment files; a torn tail (crash mid-append) is detected by CRC,
        truncated away, and reported via :attr:`torn_tail`.  LSN and
        transaction counters resume past everything on disk, so new
        records never collide with old ones.  What was read waits for
        the first :func:`recover`, which replays it instead of reading
        the log again; after that the records live on disk only
        (:attr:`durable_records` reads them back).
        """
        store = SegmentStore(data_dir)
        wal = cls(store=store)
        blob = store.load_checkpoint()
        checkpoint = None if blob is None else pickle.loads(blob)
        del blob
        wal._checkpoint = checkpoint
        records, wal.torn_tail = wal._read_segments(store)
        if checkpoint is not None:
            wal._checkpoint = checkpoint.without_images()
            wal._opened = checkpoint, records
        floor = checkpoint.lsn if checkpoint is not None else 0
        wal._next_lsn = max([floor] + [r.lsn + 1 for r in records])
        wal._next_txn = max([1] + [r.txn_id + 1 for r in records])
        return wal

    def _read_segments(
        self, store: SegmentStore
    ) -> tuple[list[WalRecord], TornTail | None]:
        """Every record of every intact flush frame from the checkpoint
        LSN on, in LSN order — the one read path of a store-backed log.
        Callers hold ``_flush_mu`` or own the log alone (:meth:`open`)."""
        payloads, torn = store.load()
        records = [r for p in payloads for r in pickle.loads(p)]
        if self._checkpoint is not None:
            # A crash between checkpoint replace and segment deletion
            # leaves stale pre-checkpoint segments behind; skip them.
            records = [r for r in records if r.lsn >= self._checkpoint.lsn]
        return records, torn

    @property
    def is_durable(self) -> bool:
        return self._store is not None

    @property
    def store(self) -> SegmentStore | None:
        return self._store

    def close(self) -> None:
        """Release the segment store's open file (a durable log only).
        Nothing is flushed — an owner that deferred commit flushes calls
        :meth:`flush` first — and the log stays usable afterwards."""
        if self._store is not None:
            self._store.close()

    @property
    def checkpoint_extras(self) -> dict[str, Any]:
        """The opaque extras captured with the last checkpoint."""
        if self._checkpoint is None:
            return {}
        return self._checkpoint.extras

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        """Number of durable records (what a crash cannot destroy)."""
        return len(self.durable_records)

    @property
    def lsn(self) -> int:
        return self._next_lsn

    @property
    def buffered_count(self) -> int:
        return len(self._buffer)

    @property
    def durable_records(self) -> tuple[WalRecord, ...]:
        """Every durable record since the checkpoint, in LSN order."""
        if self._store is None:
            with self._mu:
                return tuple(self._durable)
        with self._flush_mu:
            return tuple(self._read_segments(self._store)[0])

    def _recovery_input(self) -> tuple[_Checkpoint, list[WalRecord]]:
        """The whole last checkpoint and the durable records after it:
        what :meth:`open` read, the first time; then the in-memory
        checkpoint and list, or the store's image and segments."""
        opened, self._opened = self._opened, None
        if opened is not None:
            return opened
        checkpoint = self._checkpoint
        if checkpoint is None:
            raise WalError("no checkpoint to recover from (attach_wal takes one)")
        if self._store is None:
            with self._mu:
                return checkpoint, list(self._durable)
        with self._flush_mu:
            blob = self._store.load_checkpoint()
            if blob is None:
                raise WalError("the checkpoint file is missing from the store")
            return pickle.loads(blob), self._read_segments(self._store)[0]

    # ------------------------------------------------------------------
    # Appending

    def _append(
        self, txn_id: int, kind: str, table: str | None = None, payload: tuple = ()
    ) -> WalRecord | None:
        if self._suspended:
            return None
        with self._mu:
            record = WalRecord(self._next_lsn, txn_id, kind, table, payload)
            self._next_lsn += 1
            self._buffer.append(record)
            overflow = len(self._buffer) >= self._capacity
        if overflow:
            self.flush()
        return record

    def begin(self) -> int:
        """Allocate a transaction id (no record — commit markers decide)."""
        with self._mu:
            txn_id = self._next_txn
            self._next_txn += 1
        return txn_id

    def log_mutation(self, txn_id: int, entry: tuple) -> None:
        """Append one row mutation in the undo-entry format of
        :mod:`repro.query.transaction`: ``(kind, table, rid, ...images)``."""
        kind, table = entry[0], entry[1]
        if kind not in ROW_KINDS:
            raise WalError(f"unknown mutation kind {kind!r}")
        self._append(txn_id, kind, table, tuple(entry[2:]))

    def log_ddl(
        self,
        db: "Database",
        kind: str,
        table: str,
        payloads: Sequence[tuple] = ((),),
    ) -> None:
        """Append catalog changes of one kind, one record per payload,
        under the active transaction if one is open, else as one
        committed-on-the-spot transaction: one flush, and recovery
        replays all of them or none."""
        if kind not in DDL_KINDS:
            raise WalError(f"unknown DDL kind {kind!r}")
        if not payloads:
            return
        txn = db.active_transaction
        if txn is not None and txn.wal_txn_id is not None:
            for payload in payloads:
                self._append(txn.wal_txn_id, kind, table, payload)
            txn.wal_logged = True
        else:
            txn_id = self.begin()
            for payload in payloads:
                self._append(txn_id, kind, table, payload)
            self.commit(txn_id)

    def log_autocommit(self, entry: tuple) -> None:
        """One row mutation outside any transaction: its own tiny txn."""
        txn_id = self.begin()
        self.log_mutation(txn_id, entry)
        self.commit(txn_id)

    def log_two_phase(self, kind: str, payload: tuple, sync: bool = True) -> None:
        """Append one 2PC coordination record in its own committed
        mini-transaction.

        With *sync* the commit forces a flush, so by the time this
        returns the record has reached the segment store — the
        participant may only vote "prepared" *after* this returns.
        ``sync=False`` leaves the record for the next flush, which then
        carries it out ahead of everything appended after it (a commit
        decision rides the flush of the data commit it decides).
        """
        if kind not in TWO_PHASE_KINDS:
            raise WalError(f"unknown two-phase record kind {kind!r}")
        txn_id = self.begin()
        self._append(txn_id, kind, None, payload)
        self.commit(txn_id, sync=sync)

    # ------------------------------------------------------------------
    # Commit / abort / flush

    def commit(self, txn_id: int, note: Any = None, sync: bool = True) -> None:
        """Append the commit record and, with *sync*, make it durable.

        ``sync=False`` leaves the record in the buffer: the caller owes
        a :meth:`flush` before it tells anyone the transaction
        committed, and a crash before that flush loses the transaction
        whole.  Transactions committed this way share the next flush.

        *note* is an opaque payload persisted inside the commit record —
        the server's exactly-once ledger stores the acknowledged result
        here so a post-crash retry replays the answer instead of the
        work.  It must be complete before this call and must not change
        afterwards, because durable stores serialise it at whichever
        flush carries the record out.
        """
        payload = () if note is None else (note,)
        self._append(txn_id, "commit", payload=payload)
        if sync:
            self.flush()

    def abort(self, txn_id: int) -> None:
        """Forget the transaction's buffered records.

        Records that already reached the durable log (buffer overflow)
        stay there; recovery skips them for lack of a commit marker.
        """
        with self._mu:
            self._buffer = [r for r in self._buffer if r.txn_id != txn_id]

    def flush(self) -> None:
        """Move the volatile buffer to the durable log (one 'fsync').
        When this returns, every record appended before the call is
        durable — including one that another thread's flush, still
        syncing, had already taken out of the buffer (``_flush_mu``).

        With a segment store attached the flushed records reach disk
        here instead of a list: pickled together into one CRC frame,
        written with exactly one physical fsync — so deferred commits
        batch physical syncs for free, and a tear drops the flush whole.
        The buffer changes hands in one step under the log mutex (an
        append lands in the old list or the new one, never in between);
        pickling and the sync happen outside it, so appenders never wait
        for the disk, only the next flusher does.
        """
        if self._suspended:
            return
        with self._flush_mu:
            self._flush_locked()

    def _flush_locked(self) -> int:
        """:meth:`flush` under ``_flush_mu``.  Returns the LSN every
        flushed record lies below and every record still buffered at or
        above."""
        with self._mu:
            flushed, self._buffer = self._buffer, []
            end = self._next_lsn
            if not flushed:
                return end
            if self._store is None:
                self._durable.extend(flushed)
            self._opened = None  # recovery must now read what is on disk
            self.flush_count += 1
        if self._store is not None:
            self._store.append([pickle.dumps(flushed, pickle.HIGHEST_PROTOCOL)])
        return end

    # ------------------------------------------------------------------
    # Checkpointing

    def checkpoint(
        self, db: "Database", extras: dict[str, Any] | None = None
    ) -> None:
        """Snapshot every table and truncate the durable log.

        Requires no open transaction (the snapshot must be a committed
        state).  After a checkpoint, recovery starts from the snapshot
        and replays only records logged afterwards.  *extras* is opaque
        subsystem state snapshotted alongside the data (surfaced again
        via :attr:`checkpoint_extras`).  With a segment store attached
        this is also the compaction point: the snapshot atomically
        replaces the on-disk checkpoint and old segments are deleted.
        Such a log pickles the live heaps without copying them — the
        caller holds the statement latch, so no write interleaves — and
        keeps only the LSN, the extras and the catalog in memory; the
        log without a store keeps a copy of every heap instead.
        """
        txn = db.active_transaction
        if txn is not None and txn.is_open:
            raise WalError("cannot checkpoint with an open transaction")
        # No flush may interleave: its frame would land in a segment the
        # compaction deletes.  A record appended meanwhile (a two-phase
        # appender runs without the statement latch) stays buffered at
        # or above the checkpoint LSN and goes out with the next flush.
        store = self._store
        with self._flush_mu:
            lsn = self._flush_locked()
            tables: dict[str, _TableSnapshot] = {}
            for name, table in db.tables.items():
                heap = table.heap
                tables[name] = _TableSnapshot(
                    schema=table.schema,
                    heap_image=heap.snapshot() if store is None else heap.live_image(),
                    index_defs=[index.definition for index in table.indexes],
                )
            checkpoint = _Checkpoint(
                lsn=lsn, tables=tables, extras=dict(extras or {})
            )
            if store is not None:
                store.write_checkpoint(
                    pickle.dumps(checkpoint, pickle.HIGHEST_PROTOCOL)
                )
                checkpoint = checkpoint.without_images()
            with self._mu:
                self._checkpoint = checkpoint
                self._opened = None
                self._durable.clear()
        # Version GC also runs here: everything below the oldest active
        # snapshot's read LSN is unreachable by any reader.
        if db.versions is not None:
            db.versions.prune()

    # ------------------------------------------------------------------
    # Crash simulation

    def discard_volatile(self) -> int:
        """Drop the un-flushed buffer (what a crash destroys); returns
        how many records were lost."""
        with self._mu:
            lost = len(self._buffer)
            self._buffer = []
        return lost

    @contextmanager
    def _suspend_logging(self) -> Iterator[None]:
        """Recovery re-executes physical work; none of it may re-log."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False


# ----------------------------------------------------------------------
# Recovery


def recover(db: "Database", wal: WriteAheadLog | None = None) -> RecoveryReport:
    """Rebuild *db* to its last committed state from *wal*.

    Restores the checkpoint images in place, replays committed records
    in LSN order, rebuilds every index over the recovered heaps, and
    recomputes statistics.  Catalog objects that are not WAL-logged
    (foreign keys, triggers, candidate keys) survive untouched because
    table and database objects keep their identity.
    """
    if wal is None:
        wal = db.wal
    if wal is None:
        raise WalError("no write-ahead log attached to this database")
    checkpoint, durable = wal._recovery_input()
    committed = {r.txn_id for r in durable if r.kind == "commit"}
    skipped = sorted(
        {r.txn_id for r in durable if r.kind != "commit"} - committed
    )
    report = RecoveryReport(
        checkpoint_lsn=checkpoint.lsn,
        committed_txns=sorted(committed),
        skipped_txns=skipped,
        records=tuple(durable),
    )

    with wal._suspend_logging():
        # 1. Restore the checkpoint's table set and heap images in place.
        index_defs: dict[str, list] = {}
        for name, snap in checkpoint.tables.items():
            table = db.tables.get(name)
            if table is None:
                table = Table(name, snap.schema, db.tracker, db._index_order)
                db.tables[name] = table
            assert snap.heap_image is not None  # a whole checkpoint
            table.heap.restore_snapshot(snap.heap_image)
            index_defs[name] = list(snap.index_defs)
        # Tables born after the checkpoint: committed create_table
        # records will re-create them below; anything else died with the
        # crash (it was never logged).
        for name in list(db.tables):
            if name not in checkpoint.tables:
                del db.tables[name]

        # 2. Redo committed work in log order.
        for record in durable:
            if record.txn_id not in committed or record.kind == "commit":
                continue
            if record.kind in TWO_PHASE_KINDS:
                # Coordination state, not redo: the 2PC participant
                # interprets prepare/decide records after recovery.
                continue
            report.records_replayed += 1
            table_name = record.table
            if record.kind == "insert":
                rid, row = record.payload
                db.tables[table_name].heap.restore(rid, row)
            elif record.kind == "delete":
                rid, __row = record.payload
                db.tables[table_name].heap.delete(rid)
            elif record.kind == "update":
                rid, __old, new = record.payload
                db.tables[table_name].heap.update(rid, new)
            elif record.kind == "create_table":
                (schema,) = record.payload
                db.tables[table_name] = Table(
                    table_name, schema, db.tracker, db._index_order
                )
                index_defs[table_name] = []
            elif record.kind == "drop_table":
                db.tables.pop(table_name, None)
                index_defs.pop(table_name, None)
            elif record.kind == "create_index":
                (definition,) = record.payload
                index_defs[table_name].append(definition)
            elif record.kind == "drop_index":
                (index_name,) = record.payload
                index_defs[table_name] = [
                    d for d in index_defs[table_name] if d.name != index_name
                ]
            else:  # pragma: no cover - defensive
                raise WalError(f"unknown record kind {record.kind!r}")

        # 3. Derived state: indexes are rebuilt from their definitions
        #    over the recovered heap (this is what makes a crash torn
        #    between heap and index writes unobservable), statistics are
        #    recomputed, cached plans die.
        for name, table in db.tables.items():
            table.indexes.drop_all()
            report.indexes_rebuilt += len(
                table.create_indexes(index_defs.get(name, ()))
            )
            stats = TableStatistics(len(table.schema))
            for __, row in table.heap.scan_unordered():
                stats.add_row(row)
            table.statistics = stats
            table._plan_cache.clear()

    # 4. The crash killed any open transaction; un-freeze the database.
    db._active_transaction = None
    db._crashed = False
    wal._buffer.clear()
    # The crash also killed every snapshot and in-flight version: the
    # recovered heap *is* the committed tip, so the version store
    # restarts empty with its LSN clock resumed past the log.
    if db.versions is not None:
        db.versions.reset()
    return report


def simulate_crash(db: "Database") -> RecoveryReport:
    """Crash now and recover: drop the volatile log buffer, then rebuild
    the database to its last durable committed state."""
    wal = db.wal
    if wal is None:
        raise WalError("no write-ahead log attached to this database")
    wal.discard_volatile()
    return recover(db, wal)


def open_durable(
    db: "Database", data_dir: str | os.PathLike[str]
) -> tuple[WriteAheadLog, RecoveryReport | None]:
    """Attach a file-backed WAL under *data_dir*, recovering if it has
    prior state.

    The process-restart entry point.  *db* must hold the same catalog
    the previous process bootstrapped (tables, constraints, triggers) —
    recovery restores heap contents and replays committed work on top of
    it, exactly as :func:`recover` does after an in-process crash; DDL
    performed after the bootstrap replays from the log.  Returns the
    attached log and the recovery report (``None`` on a fresh
    directory, where the initial checkpoint is taken instead).
    """
    if db.wal is not None:
        raise WalError("a write-ahead log is already attached")
    wal = WriteAheadLog.open(data_dir)
    if wal._checkpoint is not None:
        db._wal = wal
        report = recover(db, wal)
        return wal, report
    db.attach_wal(wal)
    return wal, None
