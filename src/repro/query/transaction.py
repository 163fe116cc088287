"""Transactions: atomic batches of updates with undo-log rollback.

The paper's §7.4 measures "transactions, that is, atomic sets of update
operations" (5,000 inserts, 2,000 deletes).  This module provides the
substrate: a transaction collects an undo record per physical row
mutation and can roll the database back to its starting state.  Rollback
bypasses triggers and constraints — it restores physical state exactly,
including index contents and statistics.

Two robustness layers sit on top of the flat undo log:

* **Savepoints** — nested scopes with partial rollback
  (:meth:`Transaction.savepoint`).  The §6.1 trigger state-loop and the
  §9 batch paths wrap per-row / per-state work in a savepoint so one
  failed check unwinds only its own writes.  Rolling back to a savepoint
  emits *compensating* records to the write-ahead log, so a committed
  transaction's log replays to exactly the state it left behind.
* **Write-ahead logging** — when the database has a
  :class:`~repro.storage.wal.WriteAheadLog` attached, every logged
  mutation is mirrored into it; commit writes the durability marker.

Lifecycle errors are explicit: committing twice, committing after a
rollback, rolling back twice, or logging to a closed transaction each
raise :class:`~repro.errors.TransactionError` naming the actual state.
After a simulated crash (:meth:`Database.freeze_for_crash`) the
transaction's methods become no-ops: a dead process cannot tidy up, and
recovery owns the state from then on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import TransactionError, TransactionStateError

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database

#: Undo entries:
#:   ("insert", table, rid, row)           — undone by deleting rid
#:   ("delete", table, rid, row)           — undone by restoring the row
#:   ("update", table, rid, old, new)      — undone by writing old back
UndoEntry = tuple

#: Lifecycle states.
_OPEN = "open"
_COMMITTED = "committed"
_ROLLED_BACK = "rolled back"


def _inverse(entry: UndoEntry) -> UndoEntry:
    """The mutation that undoes *entry* (for WAL compensation records)."""
    kind = entry[0]
    if kind == "insert":
        return ("delete",) + entry[1:]
    if kind == "delete":
        return ("insert",) + entry[1:]
    if kind == "update":
        __, table, rid, old, new = entry
        return ("update", table, rid, new, old)
    raise TransactionError(f"unknown undo entry {entry!r}")


class Savepoint:
    """A named position inside a transaction's undo log.

    Obtained from :meth:`Transaction.savepoint`; usable directly or as a
    context manager (release on success, partial rollback on error)::

        with txn.savepoint():
            risky_per_row_work()      # failure unwinds only this scope
    """

    __slots__ = ("name", "_txn", "_mark", "_active")

    def __init__(self, txn: "Transaction", name: str, mark: int) -> None:
        self.name = name
        self._txn = txn
        self._mark = mark
        self._active = True

    @property
    def is_active(self) -> bool:
        return self._active

    def rollback(self) -> None:
        """Undo everything logged since this savepoint (it stays active)."""
        self._txn.rollback_to(self)

    def release(self) -> None:
        """Forget this savepoint without undoing anything."""
        self._txn.release(self)

    def __enter__(self) -> "Savepoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._active:
            return False  # released / invalidated explicitly
        if self._txn._db._crashed:
            return False  # crashed: recovery owns the state now
        if exc_type is None:
            self.release()
        else:
            self.rollback()
            self.release()
        return False

    def __repr__(self) -> str:
        state = "active" if self._active else "released"
        return f"<Savepoint {self.name} @{self._mark} ({state})>"


class Transaction:
    """One open transaction over a database.

    Usable as a context manager: commits on success, rolls back when the
    block raises.  Nested ``begin`` is rejected (the engine models
    MySQL's flat transactions, which the paper's experiments use) — use
    :meth:`savepoint` or :meth:`Database.begin_nested` for nested scopes.
    """

    def __init__(self, db: "Database") -> None:
        open_txn = db.active_transaction
        if open_txn is not None:
            raise TransactionStateError(
                f"cannot begin: {open_txn.name} is already active"
                + (
                    f" on session {open_txn.session.session_id}"
                    if open_txn.session is not None
                    else " on this database"
                )
            )
        self._db = db
        self.txn_id = db._next_txn_id()
        #: The session this transaction belongs to (None outside a
        #: multi-session context); bound at begin time so lock release
        #: and error messages know their owner.
        self.session = db.current_session
        self._undo: list[UndoEntry] = []
        self._state = _OPEN
        self._savepoints: list[Savepoint] = []
        self._sp_counter = 0
        #: Whether this transaction appended a WAL record — a row
        #: mutation, a savepoint compensation or DDL.  A commit with none
        #: and no commit note appends nothing: a read-only transaction
        #: costs the log no record and no flush.
        self.wal_logged = False
        wal = db.wal
        self.wal_txn_id: int | None = wal.begin() if wal is not None else None
        db._active_transaction = self

    @property
    def name(self) -> str:
        return f"transaction #{self.txn_id}"

    # ------------------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self._state == _OPEN

    def __len__(self) -> int:
        """Number of logged row mutations."""
        return len(self._undo)

    def log(self, entry: UndoEntry) -> None:
        if self._db._crashed:
            return  # the process is 'dead'; nothing more gets logged
        self._require_open("log to")
        self._undo.append(entry)
        if self.wal_txn_id is not None:
            self._db.wal.log_mutation(self.wal_txn_id, entry)
            self.wal_logged = True

    # ------------------------------------------------------------------
    # Savepoints

    def savepoint(self, name: str | None = None) -> Savepoint:
        """Mark the current position for partial rollback."""
        self._require_open("create a savepoint in")
        if name is None:
            self._sp_counter += 1
            name = f"sp{self._sp_counter}"
        sp = Savepoint(self, name, len(self._undo))
        self._savepoints.append(sp)
        return sp

    def rollback_to(self, sp: Savepoint) -> None:
        """Physically undo every mutation logged after *sp*.

        Savepoints created after *sp* are invalidated; *sp* itself stays
        active (SQL ``ROLLBACK TO SAVEPOINT`` semantics).  Each undone
        mutation emits a compensating record to the write-ahead log, so
        replaying a later commit reproduces the partial rollback.
        """
        self._require_open("roll back a savepoint in")
        self._require_own_active(sp)
        undone = self._undo[sp._mark:]
        del self._undo[sp._mark:]
        self._invalidate_after(sp)
        for entry in reversed(undone):
            self._undo_entry(entry)
            if self.wal_txn_id is not None:
                self._db.wal.log_mutation(self.wal_txn_id, _inverse(entry))
                self.wal_logged = True

    def release(self, sp: Savepoint) -> None:
        """Drop *sp* (and any savepoints nested inside it); no data change."""
        self._require_open("release a savepoint in")
        self._require_own_active(sp)
        self._invalidate_after(sp)
        sp._active = False
        self._savepoints.remove(sp)

    def _require_own_active(self, sp: Savepoint) -> None:
        if sp._txn is not self:
            raise TransactionError(
                f"savepoint {sp.name!r} belongs to a different transaction"
            )
        if not sp._active:
            raise TransactionError(f"savepoint {sp.name!r} is no longer active")

    def _invalidate_after(self, sp: Savepoint) -> None:
        position = self._savepoints.index(sp)
        for later in self._savepoints[position + 1:]:
            later._active = False
        del self._savepoints[position + 1:]

    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Make the batch permanent and close the transaction."""
        if self._db._crashed:
            return  # a crashed process commits nothing
        if self._state != _OPEN:
            raise TransactionError(f"cannot commit: transaction {self._state}")
        # A pending session annotation (exactly-once ledger entry) rides
        # inside the commit record; consume it even without a WAL so a
        # stale note can never attach to a later commit.
        note = (
            self.session._take_commit_note()
            if self.session is not None
            else None
        )
        if self.wal_txn_id is not None and (self.wal_logged or note is not None):
            # A session whose owner flushes before it acknowledges (the
            # server's connections) leaves the record in the log buffer:
            # locks and the MVCC stamp below are released ahead of the
            # fsync, and whoever then builds on this commit is flushed
            # behind it, in LSN order.
            self._db.wal.commit(
                self.wal_txn_id, note,
                sync=self.session is None or self.session.flush_on_commit,
            )
        versions = self._db.versions
        if versions is not None:
            versions.on_commit(self.txn_id)
        self._undo.clear()
        self._close(_COMMITTED)
        if note is not None and self.session.on_commit is not None:
            self.session.on_commit(note)

    def rollback(self) -> None:
        """Physically restore every mutated row, newest first.

        Rollback bypasses triggers and constraints (it restores state,
        it does not re-execute logic), but *physical undo observers*
        registered on the database are notified per undone entry so
        engine-level auxiliary structures (see
        :mod:`repro.core.engine_level`) stay synchronised.
        """
        if self._db._crashed:
            return  # a crashed process cannot clean up after itself
        if self._state != _OPEN:
            raise TransactionError(
                f"cannot roll back: transaction {self._state}"
            )
        for entry in reversed(self._undo):
            self._undo_entry(entry)
        self._undo.clear()
        versions = self._db.versions
        if versions is not None:
            # Physical undo restored the heap tips; just drop the overlay.
            versions.on_rollback(self.txn_id)
        if self.session is not None:
            self.session._take_commit_note()  # discard: nothing committed
        if self.wal_txn_id is not None:
            self._db.wal.abort(self.wal_txn_id)
        self._close(_ROLLED_BACK)

    def _undo_entry(self, entry: UndoEntry) -> None:
        kind, table_name = entry[0], entry[1]
        table = self._db.table(table_name)
        if kind == "insert":
            __, __, rid, __row = entry
            table.delete_rid(rid)
        elif kind == "delete":
            __, __, rid, row = entry
            table.restore_row(rid, row)
        elif kind == "update":
            __, __, rid, old, __new = entry
            table.update_rid(rid, old)
        else:  # pragma: no cover - defensive
            raise TransactionError(f"unknown undo entry {entry!r}")
        for observer in self._db.physical_undo_observers:
            observer(entry)

    def _require_open(self, verb: str) -> None:
        if self._state != _OPEN:
            raise TransactionError(
                f"cannot {verb} a {self._state} transaction"
            )

    def _close(self, state: str) -> None:
        self._state = state
        for sp in self._savepoints:
            sp._active = False
        self._savepoints.clear()
        # Clear the *owning* slot, not whatever session the current
        # thread happens to be bound to.
        if self.session is not None:
            self.session._transaction = None
        else:
            self._db._default_txn = None
        # Strict 2PL: every lock this transaction acquired is released
        # only now, after its fate (commit or rollback) is decided.
        self._db._release_locks_for(self)

    # ------------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._db._crashed:
            return False  # leave the torn state for recovery
        if self._state != _OPEN:
            return False  # already committed/rolled back explicitly
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False
