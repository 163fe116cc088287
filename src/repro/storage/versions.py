"""MVCC version store: per-row version chains keyed by commit LSN.

The engine keeps the *latest* state in the heap and indexes (in-place
updates with logical undo, as before); this module adds history so reads
can run against a stable point in time without taking a single lock:

* **Version chains.**  For each (table, rid) touched since the last
  garbage collection, a newest-first list of :class:`RowVersion` entries
  records the committed states of that row.  ``row is None`` encodes
  "absent" (not yet inserted, or deleted).  Invariant: whenever a rid is
  not pending, the chain head equals the committed tip (the heap row, or
  absence) — ``verify_integrity`` checks this.
* **In-progress overlay.**  A pending map marks rids with uncommitted
  changes (last writer wins); snapshot readers treat those rids as
  divergent and resolve them through the chain instead of the heap.
* **Commit LSNs.**  Each commit stamps one LSN on every version it
  produces.  The counter is kept monotone with the WAL's LSN spine when
  one is attached, so "committed at or before LSN L" means the same
  thing to the version store and the log.
* **Snapshots.**  :meth:`VersionStore.open_snapshot` captures the
  current committed LSN; a :class:`ReadView` then answers "what did this
  row look like at my read LSN?" for heap scans, index probes and
  :func:`repro.query.probes.find_eq` alike.
* **Commit log.**  Per table, the (LSN, rid) of every version pushed,
  in commit order.  The rids a view must distrust because they changed
  after its read LSN are the tail of that log past a bisect — a read
  never walks the chains.
* **GC.**  :meth:`VersionStore.prune` (called from WAL checkpoints, and
  on the same commit cadence by a server without a durable log)
  drops versions below the oldest active snapshot LSN and hands fully
  dead rids back to the heap freelist (rid reuse is deferred while MVCC
  is on — see :attr:`repro.storage.heap.HeapFile.recycle_rids`).

Snapshot-read code paths in this module must not acquire logical locks
(lint rule RPR008; the lockdep sanitizer checks the same at runtime).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Any

from ..errors import SessionError
from .heap import Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

_EMPTY: dict[int, list[RowVersion]] = {}


class RowVersion:
    """One committed state of a row.  ``row is None`` means absent."""

    __slots__ = ("lsn", "row")

    def __init__(self, lsn: int, row: Row | None) -> None:
        self.lsn = lsn
        self.row = row

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RowVersion(lsn={self.lsn}, row={self.row!r})"


class Snapshot:
    """A registered read point: pins versions at ``read_lsn`` until closed."""

    __slots__ = ("_store", "_snap_id", "read_lsn", "_closed")

    def __init__(self, store: "VersionStore", snap_id: int, read_lsn: int) -> None:
        self._store = store
        self._snap_id = snap_id
        self.read_lsn = read_lsn
        self._closed = False

    def view(self) -> "ReadView":
        if self._closed:
            raise SessionError("snapshot is closed")
        return ReadView(self._store, self.read_lsn)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._store._release_snapshot(self._snap_id)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class ReadView:
    """The visibility function: resolves rows as of a fixed read LSN.

    A rid is *divergent* when its committed tip (or pending state) differs
    from what this view must observe: either an uncommitted change by
    another transaction is in flight, or a commit newer than ``read_lsn``
    has already landed in the heap.  Scans skip divergent rids and
    re-resolve them through :meth:`row`; everything else reads the heap
    tip directly, so the common case costs one dict probe.
    """

    __slots__ = ("_store", "read_lsn", "_own_txn_id")

    def __init__(
        self,
        store: "VersionStore",
        read_lsn: int,
        own_txn_id: int | None = None,
    ) -> None:
        self._store = store
        self.read_lsn = read_lsn
        self._own_txn_id = own_txn_id

    def row(self, table_name: str, rid: int) -> Row | None:
        """The row state visible at ``read_lsn`` (None when absent)."""
        store = self._store
        owner = store._pending.get((table_name, rid))
        if owner is not None:
            if owner == self._own_txn_id:
                return store._tip(table_name, rid)
            return self._chain_lookup(table_name, rid)
        chain = store._chains.get(table_name, _EMPTY).get(rid)
        if chain and chain[0].lsn > self.read_lsn:
            return self._chain_lookup(table_name, rid)
        return store._tip(table_name, rid)

    def _chain_lookup(self, table_name: str, rid: int) -> Row | None:
        chain = self._store._chains.get(table_name, _EMPTY).get(rid)
        if chain:
            for version in chain:
                if version.lsn <= self.read_lsn:
                    return version.row
        return None

    def divergent_rids(self, table_name: str) -> set[int]:
        """Rids whose heap tip must not be trusted by this view."""
        store = self._store
        own = self._own_txn_id
        out: set[int] = set()
        for (name, rid), owner in store._pending.items():
            if name == table_name and owner != own:
                out.add(rid)
        commits = store._commits.get(table_name)
        if commits is not None:
            lsns, rids = commits
            out.update(rids[bisect_right(lsns, self.read_lsn):])
        return out


class VersionStore:
    """Version chains, the pending overlay, and snapshot registration.

    Attached to a database by :meth:`repro.storage.database.Database.
    enable_mvcc`; the DML undo funnel feeds :meth:`on_mutation`, the
    transaction lifecycle calls :meth:`on_commit` / :meth:`on_rollback`,
    checkpoints call :meth:`prune`, and recovery calls :meth:`reset`.
    Writers mutate these maps under the exclusive statement latch;
    snapshot readers hold it shared, so no extra mutex is needed.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        #: table name -> rid -> newest-first committed versions.
        self._chains: dict[str, dict[int, list[RowVersion]]] = {}
        #: table name -> (LSNs, rids) of every version pushed since the
        #: last prune, in commit order (LSNs never decrease).
        self._commits: dict[str, tuple[list[int], list[int]]] = {}
        #: (table, rid) -> txn id of the uncommitted last writer.
        self._pending: dict[tuple[str, int], int] = {}
        #: txn id -> (table, rid) -> row image from before the first
        #: touch by that transaction (the chain base).
        self._dirty: dict[int, dict[tuple[str, int], Row | None]] = {}
        #: snapshot id -> pinned read LSN.
        self._snapshots: dict[int, int] = {}
        self._next_snap_id = 0
        #: Versions held across all chains.  Kept as a running count so
        #: the server's ``stats`` op reads one int instead of walking
        #: dicts a writer on another connection is growing.
        self._version_count = 0
        wal = db.wal
        self._lsn = wal.lsn if wal is not None else 0

    # ------------------------------------------------------------------
    # LSN spine

    @property
    def lsn(self) -> int:
        """The newest committed LSN the store has stamped or observed."""
        return self._lsn

    def _advance_lsn(self) -> int:
        wal = self._db.wal
        floor = wal.lsn if wal is not None else 0
        self._lsn = max(self._lsn + 1, floor)
        return self._lsn

    # ------------------------------------------------------------------
    # Write-path hooks (called with the exclusive latch held)

    def on_mutation(self, entry: tuple, txn: Any) -> None:
        """Record one logical mutation from the DML undo funnel.

        *entry* is an undo-log tuple: ``("insert", table, rid, row)``,
        ``("delete", table, rid, row)`` or ``("update", table, rid,
        old_row, new_row)``.  Physical undo during rollback bypasses this
        funnel by design, so the store never sees compensation.
        """
        kind, table_name, rid = entry[0], entry[1], entry[2]
        if kind == "insert":
            base: Row | None = None
        else:  # delete and update both carry the old image at [3]
            base = entry[3]
        key = (table_name, rid)
        if txn is None:
            # Auto-commit: the statement is its own transaction.
            self._ensure_base(table_name, rid, base)
            state = None if kind == "delete" else entry[-1]
            self._push(table_name, rid, self._advance_lsn(), state)
            return
        dirty = self._dirty.setdefault(txn.txn_id, {})
        if key not in dirty:
            dirty[key] = base
            self._ensure_base(table_name, rid, base)
        self._pending[key] = txn.txn_id

    def on_commit(self, txn_id: int) -> None:
        """Publish the transaction's net row changes at one commit LSN."""
        dirty = self._dirty.pop(txn_id, None)
        if not dirty:
            return
        lsn: int | None = None  # allocated lazily: no-op commits stamp nothing
        for (table_name, rid), base in dirty.items():
            key = (table_name, rid)
            if self._pending.get(key) != txn_id:
                continue  # a later writer took over this rid
            del self._pending[key]
            state = self._tip(table_name, rid)
            if state == base:
                continue  # net no-op (e.g. insert then delete in one txn)
            if lsn is None:
                lsn = self._advance_lsn()
            self._push(table_name, rid, lsn, state)

    def on_rollback(self, txn_id: int) -> None:
        """Discard the transaction's overlay; physical undo restores tips."""
        dirty = self._dirty.pop(txn_id, None)
        if not dirty:
            return
        for key in dirty:
            if self._pending.get(key) == txn_id:
                del self._pending[key]

    def _ensure_base(self, table_name: str, rid: int, base: Row | None) -> None:
        """Seed a chain for a row that predates version tracking.

        Rows loaded before ``enable_mvcc`` (or before the last recovery)
        have no chain; their pre-image is pushed at LSN 0 so snapshots
        older than the in-flight change still see it.
        """
        if base is None:
            return
        chains = self._chains.setdefault(table_name, {})
        if rid not in chains:
            chains[rid] = [RowVersion(0, base)]
            self._version_count += 1

    def _push(self, table_name: str, rid: int, lsn: int, row: Row | None) -> None:
        chains = self._chains.setdefault(table_name, {})
        chain = chains.get(rid)
        if chain is None:
            chains[rid] = [RowVersion(lsn, row)]
        else:
            chain.insert(0, RowVersion(lsn, row))
        self._version_count += 1
        lsns, rids = self._commits.setdefault(table_name, ([], []))
        lsns.append(lsn)
        rids.append(rid)

    def _tip(self, table_name: str, rid: int) -> Row | None:
        table = self._db.tables.get(table_name)
        if table is None:
            return None
        heap = table.heap
        return heap.get(rid) if rid in heap else None

    # ------------------------------------------------------------------
    # Snapshots and views

    def open_snapshot(self) -> Snapshot:
        snap_id = self._next_snap_id
        self._next_snap_id += 1
        self._snapshots[snap_id] = self._lsn
        return Snapshot(self, snap_id, self._lsn)

    def _release_snapshot(self, snap_id: int) -> None:
        self._snapshots.pop(snap_id, None)

    def committed_view(self, own_txn_id: int | None = None) -> ReadView:
        """A view of the latest *committed* state (plus the caller's own
        uncommitted changes), never other transactions' dirty tips."""
        return ReadView(self, self._lsn, own_txn_id)

    def oldest_active_lsn(self) -> int:
        """The GC horizon: versions at or below this must be kept."""
        return min(self._snapshots.values(), default=self._lsn)

    @property
    def active_snapshots(self) -> int:
        return len(self._snapshots)

    # ------------------------------------------------------------------
    # Garbage collection and recovery

    def prune(self) -> int:
        """Drop versions unreachable by any active snapshot.

        For each chain, everything newer than the horizon is kept plus
        the single boundary version visible *at* the horizon; chains
        reduced to just the committed tip are dropped entirely, and rids
        whose final state is "deleted" are recycled back to the heap.
        Returns the number of versions discarded.
        """
        horizon = self.oldest_active_lsn()
        dropped = 0
        for table_name in list(self._chains):
            chains = self._chains[table_name]
            table = self._db.tables.get(table_name)
            heap = table.heap if table is not None else None
            dead: list[int] = []
            for rid, chain in chains.items():
                boundary = None
                for i, version in enumerate(chain):
                    if version.lsn <= horizon:
                        boundary = i
                        break
                if boundary is None:
                    # Every version is above the horizon: the chain also
                    # encodes "absent before its oldest entry", which a
                    # snapshot at the horizon still depends on.
                    continue
                trimmed = chain[: boundary + 1]
                if len(trimmed) == 1 and (table_name, rid) not in self._pending:
                    dropped += len(chain)
                    dead.append(rid)
                    if (
                        trimmed[0].row is None
                        and heap is not None
                        and not heap.recycle_rids
                    ):
                        heap.recycle(rid)
                elif len(trimmed) != len(chain):
                    dropped += len(chain) - len(trimmed)
                    chains[rid] = trimmed
            for rid in dead:
                del chains[rid]
            if not chains:
                del self._chains[table_name]
        # No view, open or yet to open, reads below the horizon: what
        # committed at or before it is never in the tail a view asks for.
        for table_name in list(self._commits):
            lsns, rids = self._commits[table_name]
            settled = bisect_right(lsns, horizon)
            del lsns[:settled], rids[:settled]
            if not lsns:
                del self._commits[table_name]
        self._version_count -= dropped
        return dropped

    def reset(self) -> None:
        """Forget all history (crash recovery rebuilt the committed tip).

        After WAL recovery the heaps hold exactly the committed state, so
        an empty store is consistent: every row's visible version *is*
        its tip.  Open snapshots from before the crash are invalidated.
        """
        self._chains.clear()
        self._commits.clear()
        self._pending.clear()
        self._dirty.clear()
        self._snapshots.clear()
        self._version_count = 0
        wal = self._db.wal
        if wal is not None:
            self._lsn = max(self._lsn, wal.lsn)

    # ------------------------------------------------------------------
    # Introspection (verify_integrity and tests)

    def chain(self, table_name: str, rid: int) -> tuple[RowVersion, ...]:
        return tuple(self._chains.get(table_name, _EMPTY).get(rid, ()))

    def chain_items(self, table_name: str) -> list[tuple[int, tuple[RowVersion, ...]]]:
        chains = self._chains.get(table_name, _EMPTY)
        return [(rid, tuple(chain)) for rid, chain in sorted(chains.items())]

    def is_pending(self, table_name: str, rid: int) -> bool:
        return (table_name, rid) in self._pending

    def version_count(self) -> int:
        return self._version_count

    def check_well_formed(self, table_name: str) -> list[str]:
        """Chain well-formedness problems for one table (for verify).

        Checks: strictly decreasing LSNs newest-first, no empty chains,
        no chains above the store's committed LSN, and — for rids with no
        pending write — agreement between the chain head and the heap tip.
        """
        problems: list[str] = []
        for rid, chain in self.chain_items(table_name):
            if not chain:
                problems.append(f"versions: rid {rid} has an empty chain")
                continue
            lsns = [v.lsn for v in chain]
            if any(a <= b for a, b in zip(lsns, lsns[1:])):
                problems.append(
                    f"versions: rid {rid} chain LSNs not strictly "
                    f"decreasing: {lsns}"
                )
            if lsns[0] > self._lsn:
                problems.append(
                    f"versions: rid {rid} chain head LSN {lsns[0]} is "
                    f"above the committed LSN {self._lsn}"
                )
            if not self.is_pending(table_name, rid):
                tip = self._tip(table_name, rid)
                if chain[0].row != tip:
                    problems.append(
                        f"versions: rid {rid} chain head {chain[0].row!r} "
                        f"disagrees with committed tip {tip!r}"
                    )
        return problems
