"""The database catalog: tables, constraints, triggers, one cost tracker.

:class:`Database` is the facade user code talks to.  It owns:

* the tables and their indexes,
* the declared candidate keys and foreign keys,
* the trigger registry, and
* the shared :class:`~repro.indexes.cost.CostTracker`.

Logical DML (``insert`` / ``delete_where`` / ``update_where``) is
implemented in :mod:`repro.query.dml`; the thin methods here delegate to
it (imported lazily to keep the package layering acyclic).
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from ..errors import CatalogError
from ..indexes.cost import CostTracker
from ..indexes.definition import IndexDefinition
from ..indexes.manager import TableIndex
from ..triggers.framework import TriggerRegistry
from .schema import Column, TableSchema
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..concurrency.session import Session, SessionManager
    from ..constraints.foreign_key import ForeignKey
    from ..constraints.keys import CandidateKey
    from ..query.predicate import Predicate
    from ..query.transaction import Savepoint, Transaction
    from .verify import IntegrityReport
    from .versions import VersionStore
    from .wal import WriteAheadLog


class Database:
    """A named collection of tables with shared instrumentation."""

    def __init__(self, name: str = "db", index_order: int = 64) -> None:
        self.name = name
        self.tracker = CostTracker()
        self.tables: dict[str, Table] = {}
        self.triggers = TriggerRegistry()
        self.foreign_keys: list["ForeignKey"] = []
        self.candidate_keys: dict[str, list["CandidateKey"]] = {}
        # Per-table FK lookups resolved once; cleared on add/drop.
        self._fk_lookup_cache: dict = {}
        self._index_order = index_order
        #: The single-session ("default") transaction slot.  Sessions
        #: created through a SessionManager carry their own slot; the
        #: ``_active_transaction`` property below routes between them
        #: based on which session the current thread has bound.
        self._default_txn: "Transaction | None" = None
        self._session_local = threading.local()
        self._session_manager: "SessionManager | None" = None
        self._txn_counter = 0
        self._wal: "WriteAheadLog | None" = None
        #: MVCC version store (attached by :meth:`enable_sessions`, or by
        #: :meth:`enable_mvcc` on its own); when present, the DML funnel
        #: records row versions.
        self._versions: "VersionStore | None" = None
        #: Set by a simulated crash: the 'process' is dead, transaction
        #: cleanup becomes a no-op, and only recovery may touch state.
        self._crashed = False
        #: Callbacks invoked per undone entry during transaction rollback
        #: (physical undo bypasses triggers; auxiliary structures that
        #: maintain themselves via triggers subscribe here instead).
        self.physical_undo_observers: list = []

    # ------------------------------------------------------------------
    # Catalog operations

    def create_table(
        self, name: str, columns: Iterable[Column] | TableSchema
    ) -> Table:
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, columns, self.tracker, self._index_order)
        if self._versions is not None:
            table.heap.recycle_rids = False
        self.tables[name] = table
        if self._wal is not None:
            self._wal.log_ddl(self, "create_table", name, [(table.schema,)])
        return table

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise CatalogError(f"no table named {name!r}")
        referencing = [
            fk for fk in self.foreign_keys
            if fk.parent_table == name or fk.child_table == name
        ]
        if referencing:
            raise CatalogError(
                f"table {name!r} participates in foreign keys: "
                f"{[fk.name for fk in referencing]}"
            )
        del self.tables[name]
        self.candidate_keys.pop(name, None)
        self.triggers.drop_for_table(name)
        if self._wal is not None:
            self._wal.log_ddl(self, "drop_table", name)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def create_indexes(
        self, table_name: str, definitions: Sequence[IndexDefinition]
    ) -> list[TableIndex]:
        """Create and build indexes on one table in one heap scan, then
        log one ``create_index`` record per definition, all in one WAL
        transaction: all or none, in memory and in the log."""
        indexes = self.table(table_name).create_indexes(definitions)
        if self._wal is not None:
            self._wal.log_ddl(
                self, "create_index", table_name, [(d,) for d in definitions]
            )
        return indexes

    def create_index(
        self, table_name: str, definition: IndexDefinition
    ) -> TableIndex:
        return self.create_indexes(table_name, [definition])[0]

    def drop_index(self, table_name: str, index_name: str) -> None:
        self.table(table_name).drop_index(index_name)
        if self._wal is not None:
            self._wal.log_ddl(self, "drop_index", table_name, [(index_name,)])

    # ------------------------------------------------------------------
    # Constraint registration (enforcement lives in query.dml)

    def add_candidate_key(self, key: "CandidateKey") -> None:
        from ..constraints.keys import CandidateKey  # noqa: F401  (type check)

        key.attach(self)
        self.candidate_keys.setdefault(key.table, []).append(key)

    def add_foreign_key(self, fk: "ForeignKey") -> None:
        fk.validate_against(self)
        self.foreign_keys.append(fk)
        self._fk_lookup_cache.clear()

    def drop_foreign_key(self, name: str) -> None:
        before = len(self.foreign_keys)
        self.foreign_keys = [fk for fk in self.foreign_keys if fk.name != name]
        if len(self.foreign_keys) == before:
            raise CatalogError(f"no foreign key named {name!r}")
        self._fk_lookup_cache.clear()

    def foreign_keys_on_child(self, table_name: str) -> list["ForeignKey"]:
        key = ("child", table_name)
        cached = self._fk_lookup_cache.get(key)
        if cached is None:
            cached = [fk for fk in self.foreign_keys if fk.child_table == table_name]
            self._fk_lookup_cache[key] = cached
        return cached

    def foreign_keys_on_parent(self, table_name: str) -> list["ForeignKey"]:
        key = ("parent", table_name)
        cached = self._fk_lookup_cache.get(key)
        if cached is None:
            cached = [fk for fk in self.foreign_keys if fk.parent_table == table_name]
            self._fk_lookup_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Logical DML (delegates to repro.query.dml)

    def insert(self, table_name: str, values: Sequence[Any] | Mapping[str, Any]) -> int:
        from ..query import dml

        return dml.insert(self, table_name, values)

    def batch_insert(
        self, table_name: str, rows: Sequence[Sequence[Any]]
    ) -> list[int]:
        """Vectorized multi-row insert (see :func:`repro.core.batch.batch_insert_rows`)."""
        from ..core import batch

        return batch.batch_insert_rows(self, table_name, rows)

    def delete_where(self, table_name: str, predicate: "Predicate | None" = None) -> int:
        from ..query import dml

        return dml.delete_where(self, table_name, predicate)

    def update_where(
        self,
        table_name: str,
        assignments: Mapping[str, Any],
        predicate: "Predicate | None" = None,
    ) -> int:
        from ..query import dml

        return dml.update_where(self, table_name, assignments, predicate)

    def select(
        self,
        table_name: str,
        predicate: "Predicate | None" = None,
        columns: Sequence[str] | None = None,
        limit: int | None = None,
    ) -> list[tuple[Any, ...]]:
        from ..concurrency import hooks
        from ..query import executor

        hooks.lock_for_read(self, table_name)
        return executor.select(self, table_name, predicate, columns, limit)

    def exists(self, table_name: str, predicate: "Predicate | None" = None) -> bool:
        from ..query import executor

        return executor.exists(self, table_name, predicate)

    def explain(self, table_name: str, predicate: "Predicate | None" = None) -> str:
        from ..query.explain import explain as explain_query

        return explain_query(self, table_name, predicate)

    # ------------------------------------------------------------------
    # Transactions

    def begin(self) -> "Transaction":
        from ..query.transaction import Transaction

        return Transaction(self)

    def begin_nested(self) -> "Transaction | Savepoint":
        """A transaction if none is active, else a savepoint in it.

        As context managers both keep the block's work on success and
        undo it on error, so callers (the batch paths, per-row retry
        loops) need not care whether they run inside a transaction.
        """
        from ..query.transaction import Transaction

        if self._active_transaction is None:
            return Transaction(self)
        return self._active_transaction.savepoint()

    @property
    def active_transaction(self) -> "Transaction | None":
        return self._active_transaction

    @property
    def _active_transaction(self) -> "Transaction | None":
        session = self.current_session
        if session is not None:
            return session._transaction
        return self._default_txn

    @_active_transaction.setter
    def _active_transaction(self, txn: "Transaction | None") -> None:
        session = self.current_session
        if session is not None:
            session._transaction = txn
        else:
            self._default_txn = txn

    def _next_txn_id(self) -> int:
        """Monotonic transaction ids; lock-manager victim selection
        ('abort the youngest') relies on the ordering."""
        self._txn_counter += 1
        return self._txn_counter

    def _release_locks_for(self, txn: "Transaction") -> None:
        """Called from ``Transaction._close``: strict 2PL lock release."""
        manager = self._session_manager
        if manager is not None:
            manager.locks.release_all(txn.txn_id)

    # ------------------------------------------------------------------
    # Concurrent sessions

    @property
    def current_session(self) -> "Session | None":
        """The session the current thread is running under, if any."""
        return getattr(self._session_local, "session", None)

    @property
    def session_manager(self) -> "SessionManager | None":
        return self._session_manager

    def enable_sessions(self, **kwargs: Any) -> "SessionManager":
        """Attach a :class:`~repro.concurrency.session.SessionManager`.

        Idempotent when called without arguments; the manager hands out
        isolated :class:`~repro.concurrency.session.Session` objects
        whose statements acquire locks through the shared lock manager.
        It also attaches the MVCC version store (:meth:`enable_mvcc`):
        sessions read snapshots through it.  Whoever runs the sessions
        prunes the store — a WAL checkpoint does, the server does on its
        commit cadence, an embedder calls ``db.versions.prune()``.
        """
        from ..concurrency.session import SessionManager

        if self._session_manager is not None:
            if kwargs:
                raise CatalogError(
                    "a session manager is already attached; detach it "
                    "before reconfiguring"
                )
            return self._session_manager
        self._session_manager = SessionManager(self, **kwargs)
        return self._session_manager

    # ------------------------------------------------------------------
    # MVCC

    @property
    def versions(self) -> "VersionStore | None":
        return self._versions

    def enable_mvcc(self) -> "VersionStore":
        """Attach the MVCC version store; idempotent.

        From here on the DML funnel records per-row version chains and
        rid reuse is deferred to version GC.  The session manager that
        :meth:`enable_sessions` attaches calls this; on its own it
        serves the bare engine (the version-store unit tests).
        """
        if self._versions is None:
            from .versions import VersionStore

            self._versions = VersionStore(self)
            for table in self.tables.values():
                table.heap.recycle_rids = False
        return self._versions

    # ------------------------------------------------------------------
    # Write-ahead log, crash simulation and integrity verification

    @property
    def wal(self) -> "WriteAheadLog | None":
        return self._wal

    def attach_wal(self, wal: "WriteAheadLog") -> "WriteAheadLog":
        """Start write-ahead logging; takes the initial checkpoint.

        Everything already in the database is captured by the checkpoint
        snapshot; from here on, mutations issued through the logical DML
        and catalog APIs are logged and survive :func:`simulated crashes
        <repro.storage.wal.simulate_crash>`.
        """
        self._wal = wal
        wal.checkpoint(self)
        return wal

    def freeze_for_crash(self) -> None:
        """Mark the 'process' dead (used by crash injection): transaction
        cleanup no-ops from here on; recovery resets the flag."""
        self._crashed = True

    def verify_integrity(self) -> "IntegrityReport":
        """Cross-check heap↔index agreement, statistics, and every
        registered constraint; see :mod:`repro.storage.verify`."""
        from .verify import verify_integrity

        return verify_integrity(self)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line catalog summary used by examples and docs."""
        lines = [f"Database {self.name!r}"]
        for table in self.tables.values():
            lines.append(f"TABLE {table.name} ({table.row_count} rows)")
            lines.append(table.schema.describe())
            for index in table.indexes:
                lines.append(f"  {index.definition.describe()}")
        for keys in self.candidate_keys.values():
            for key in keys:
                lines.append(f"KEY {key.describe()}")
        for fk in self.foreign_keys:
            lines.append(f"FOREIGN KEY {fk.describe()}")
        return "\n".join(lines)
