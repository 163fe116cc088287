"""Multi-session access to one database.

The engine historically had exactly one ``active_transaction`` slot —
one client, one statement stream.  A :class:`SessionManager` replaces
that with any number of isolated :class:`Session` objects:

* each session has its own transaction slot (``BEGIN`` on one session
  never collides with another's),
* every statement a session runs is wrapped in the database's
  :class:`~repro.concurrency.locks.StatementLatch` (physical structures
  never interleave between threads) and acquires logical locks through
  the shared :class:`~repro.concurrency.locks.LockManager` (strict 2PL,
  so the partial-RI enforcement stays correct under concurrency),
* statements outside an explicit transaction run as their own implicit
  transaction (auto-commit), so their locks are held to the statement
  boundary and their WAL records are durable per statement.

A session is *bound* to the current thread for the duration of each
statement (:meth:`Session.use`), which is how the deep engine layers —
``dml``, ``enforcement``, the trigger bodies — find the right
transaction without threading a session argument through every call.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping, Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, TypeVar

from ..errors import SessionError, TransactionError
from .locks import DEFAULT_LOCK_TIMEOUT, LockManager, StatementLatch

if TYPE_CHECKING:  # pragma: no cover
    from ..query.predicate import Predicate
    from ..query.transaction import Transaction
    from ..storage.database import Database
    from ..storage.versions import Snapshot, VersionStore

T = TypeVar("T")


class Session:
    """One client's view of the database: a transaction slot plus the
    statement wrappers that route work through latching and locking."""

    def __init__(self, manager: "SessionManager", session_id: int) -> None:
        self.manager = manager
        self.db: "Database" = manager.db
        self.session_id = session_id
        self._transaction: "Transaction | None" = None
        self._closed = False
        #: Open MVCC snapshot (see :meth:`begin_snapshot`); while set,
        #: this session's selects are lock-free reads at its read LSN.
        self._snapshot: "Snapshot | None" = None
        #: One-shot annotation consumed by the next commit on this
        #: session (see :meth:`annotate_next_commit`).
        self._commit_note: Any = None
        #: The ledger seam, and the only listener there is: the server
        #: sets it to ``ReproServer._record_commit``.  Called with the
        #: consumed note right after a commit of this session is logged
        #: and visible — inside the commit, so the committing statement
        #: still holds the statement latch and no checkpoint can fall
        #: between the commit and its entry in the result ledger.
        self.on_commit: Callable[[Any], None] | None = None
        #: Whether a commit of this session flushes the log itself.  An
        #: owner that clears it (the server does, for its connections'
        #: sessions) must flush before acknowledging anything.
        self.flush_on_commit = True

    # ------------------------------------------------------------------
    # Thread binding

    @contextmanager
    def use(self) -> Iterator["Session"]:
        """Bind this session to the current thread for a block.

        Everything the engine resolves through
        ``Database.active_transaction`` inside the block sees this
        session's transaction.  Bindings nest (the previous binding is
        restored on exit), so a server thread can temporarily act on
        behalf of another session during shutdown draining.
        """
        self._check_open()
        local = self.db._session_local
        previous = getattr(local, "session", None)
        local.session = self
        try:
            yield self
        finally:
            local.session = previous

    # ------------------------------------------------------------------
    # Transaction control

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None and self._transaction.is_open

    @property
    def transaction(self) -> "Transaction | None":
        return self._transaction

    def begin(self) -> "Transaction":
        """Open an explicit transaction on this session."""
        self._check_open()
        with self.use():
            with self.db_latch():
                return self.db.begin()

    def commit(self) -> None:
        with self.use():
            with self.db_latch():
                self._require_transaction("commit").commit()

    def rollback(self) -> None:
        with self.use():
            with self.db_latch():
                self._require_transaction("roll back").rollback()

    def _require_transaction(self, verb: str) -> "Transaction":
        txn = self._transaction
        if txn is None or not txn.is_open:
            raise TransactionError(
                f"session {self.session_id}: no transaction to {verb}"
            )
        return txn

    # ------------------------------------------------------------------
    # Statements

    def execute(self, fn: Callable[[], T]) -> T:
        """Run *fn* as one statement of this session.

        Inside an explicit transaction the callable simply runs under the
        latch; otherwise it runs as its own implicit transaction that
        commits on success and rolls back on any error (releasing the
        locks it acquired either way).
        """
        self._check_open()
        with self.use():
            with self.db_latch():
                if self.in_transaction:
                    return fn()
                with self.db.begin():
                    return fn()

    def insert(self, table: str, values: Sequence[Any] | Mapping[str, Any]) -> int:
        return self.execute(lambda: self.db.insert(table, values))

    def delete_where(self, table: str, predicate: "Predicate | None" = None) -> int:
        return self.execute(lambda: self.db.delete_where(table, predicate))

    def update_where(
        self,
        table: str,
        assignments: Mapping[str, Any],
        predicate: "Predicate | None" = None,
    ) -> int:
        return self.execute(lambda: self.db.update_where(table, assignments, predicate))

    def select(
        self,
        table: str,
        predicate: "Predicate | None" = None,
        columns: Sequence[str] | None = None,
        limit: int | None = None,
    ) -> list[tuple[Any, ...]]:
        snap = self._snapshot
        if snap is not None and not snap.closed:
            self._check_open()
            return self._snapshot_read(snap, table, predicate, columns, limit)
        return self.execute(lambda: self.db.select(table, predicate, columns, limit))

    # ------------------------------------------------------------------
    # Snapshot-isolation reads (MVCC)

    def begin_snapshot(self) -> "Snapshot":
        """Open a stable read point at the current committed LSN.

        Until :meth:`end_snapshot`, every :meth:`select` on this session
        is a *snapshot read*: it observes exactly the rows committed at
        or before the read LSN, holds the statement latch only in shared
        mode, and acquires **zero** logical locks — concurrent writers
        are never waited on.
        """
        self._check_open()
        if self._snapshot is not None and not self._snapshot.closed:
            raise SessionError(
                f"session {self.session_id}: a snapshot is already open"
            )
        # Registration mutates the version store's snapshot table, so it
        # runs exclusive; the reads themselves only take shared.
        with self.db_latch():
            self._snapshot = self.manager.versions.open_snapshot()
        return self._snapshot

    def end_snapshot(self) -> None:
        """Close the open snapshot (no-op when none is open)."""
        snap = self._snapshot
        self._snapshot = None
        if snap is not None and not snap.closed:
            with self.db_latch():
                snap.close()

    @contextmanager
    def snapshot(self) -> Iterator["Snapshot"]:
        """``with session.snapshot():`` — scoped snapshot reads."""
        snap = self.begin_snapshot()
        try:
            yield snap
        finally:
            self.end_snapshot()

    def snapshot_select(
        self,
        table: str,
        predicate: "Predicate | None" = None,
        columns: Sequence[str] | None = None,
        limit: int | None = None,
    ) -> list[tuple[Any, ...]]:
        """One snapshot read: uses the open snapshot, or opens and closes
        a fresh one around this single statement (the server's
        ``snapshot: true`` select path)."""
        self._check_open()
        snap = self._snapshot
        if snap is not None and not snap.closed:
            return self._snapshot_read(snap, table, predicate, columns, limit)
        snap = self.begin_snapshot()
        try:
            return self._snapshot_read(snap, table, predicate, columns, limit)
        finally:
            self.end_snapshot()

    def _snapshot_read(
        self,
        snap: "Snapshot",
        table: str,
        predicate: "Predicate | None",
        columns: Sequence[str] | None,
        limit: int | None,
    ) -> list[tuple[Any, ...]]:
        """The zero-lock read path: shared latch, no transaction, no
        lock-manager traffic (the lockdep scope asserts the latter)."""
        from ..analysis import lockdep
        from ..query import executor

        latch = self.db_latch()
        latch.acquire_shared()
        try:
            with lockdep.snapshot_read_scope():
                return executor.select(
                    self.db, table, predicate, columns, limit, view=snap.view()
                )
        finally:
            latch.release_shared()

    # ------------------------------------------------------------------
    # Commit annotation (exactly-once ledger support)

    def annotate_next_commit(self, note: Any) -> None:
        """Attach *note* to the next commit this session performs.

        The note rides inside the WAL commit record
        (:meth:`repro.storage.wal.WriteAheadLog.commit`), making it
        durable exactly iff the commit is — the server's exactly-once
        result ledger is built on this.  The annotation is one-shot:
        commit consumes it, rollback discards it.
        """
        self._commit_note = note

    def _take_commit_note(self) -> Any:
        note = self._commit_note
        self._commit_note = None
        return note

    # ------------------------------------------------------------------

    def db_latch(self) -> StatementLatch:
        return self.manager.latch

    def close(self) -> None:
        """Roll back any open transaction and retire the session."""
        if self._closed:
            return
        self.end_snapshot()
        if self.in_transaction:
            self.rollback()
        self._closed = True
        self.manager._forget(self)

    @property
    def is_open(self) -> bool:
        return not self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError(f"session {self.session_id} is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "in transaction" if self.in_transaction else "idle"
        )
        return f"<Session {self.session_id} ({state})>"


class SessionManager:
    """Hands out sessions and owns the shared lock manager and latch.

    Sessions always run over the MVCC version store: snapshot reads are
    part of the one protocol, so attaching a manager attaches the store.
    """

    def __init__(
        self,
        db: "Database",
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ) -> None:
        self.db = db
        self.latch = StatementLatch()
        self.locks = LockManager(latch=self.latch, timeout=lock_timeout)
        self.versions: "VersionStore" = db.enable_mvcc()
        self._mu = threading.Lock()
        self._sessions: dict[int, Session] = {}
        self._counter = 0

    def session(self) -> Session:
        """Create a new isolated session."""
        with self._mu:
            self._counter += 1
            session = Session(self, self._counter)
            self._sessions[session.session_id] = session
        return session

    def _forget(self, session: Session) -> None:
        with self._mu:
            self._sessions.pop(session.session_id, None)

    @property
    def open_sessions(self) -> list[Session]:
        with self._mu:
            return list(self._sessions.values())

    def close_all(self) -> int:
        """Roll back and close every open session; returns how many had
        an open transaction (the server reports this during shutdown)."""
        rolled_back = 0
        for session in self.open_sessions:
            if session.in_transaction:
                rolled_back += 1
            session.close()
        return rolled_back

    def stats(self) -> dict[str, float]:
        """Lock-manager counters plus session counts, for the server."""
        snapshot = self.locks.stats.snapshot()
        snapshot["open_sessions"] = len(self.open_sessions)
        snapshot["active_snapshots"] = self.versions.active_snapshots
        snapshot["row_versions"] = self.versions.version_count()
        return snapshot
