"""Lock-acquisition hooks called from the DML and enforcement paths.

The engine's hot paths stay lock-free in single-session use: every hook
first resolves the *active locker* — the (lock manager, transaction)
pair of the session bound to the current thread — and returns
immediately when there is none.  Only statements issued through a
:class:`~repro.concurrency.session.Session` pay for locking.

What gets locked where (the concurrency protocol, see DESIGN.md §5d):

* **insert into T** — IX on T, then X on each of T's candidate-key
  values carried by the new row (serializes duplicate-key races so a
  key check cannot pass against a row another transaction may yet roll
  back ... or insert);
* **delete from T** — IX on T, X on the victim row's candidate-key
  values (an insert of the same key must wait for our fate), and X on
  each *referenced-key* value for every foreign key in which T is the
  parent — the other half of the phantom-parent handshake;
* **update of T** — the union of the delete locks on the old row and
  the insert locks on the new row (referenced-key X only when key
  columns actually change, mirroring the paper's delete+insert model);
* **child FK check** — S on the referenced-key value of the *witness*
  parent the probe found (:func:`verify_parent_exists`).  Strict 2PL
  holds that S until commit, so the imputed/validated reference cannot
  point at a parent that a concurrent delete removes mid-enforcement.

The witness lock is acquired *after* the probe (we cannot know which
parent subsumes the value before looking), so the witness may be gone by
the time the lock is granted — the statement latch is dropped during
lock waits.  That probe→grant window is closed by *commit-time witness
re-validation*: the adopted witness is recorded on the transaction and
:func:`revalidate_witnesses` re-checks every one against the latest
committed state at commit, aborting with a retryable
:class:`~repro.errors.SerializationError` if a parent vanished in it.

Snapshot reads take **no** logical locks at all — they never reach this
module.  The lock protocol above is the write path only.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from ..errors import SerializationError
from ..nulls import NULL
from .locks import LockManager, LockMode, key_resource, table_resource

if TYPE_CHECKING:  # pragma: no cover
    from ..constraints.foreign_key import ForeignKey
    from ..storage.database import Database


def _locker(db: "Database") -> tuple[LockManager, int] | None:
    """The (lock manager, txn id) to lock under, or None when the
    statement is not running on a managed session's open transaction."""
    manager = db._session_manager
    if manager is None:
        return None
    session = db.current_session
    if session is None:
        return None
    txn = session._transaction
    if txn is None or not txn.is_open:
        return None
    return manager.locks, txn.txn_id


def _candidate_key_resources(
    db: "Database", table_name: str, row: Sequence[Any]
) -> list:
    resources = []
    for key in db.candidate_keys.get(table_name, ()):
        values = key.key_values(row)
        if any(v is NULL for v in values):
            continue  # NULL-bearing keys never collide (SQL uniqueness)
        resources.append(key_resource(table_name, key.columns, values))
    return resources


def _referenced_key_resources(
    db: "Database", table_name: str, row: Sequence[Any]
) -> list:
    resources = []
    for fk in db.foreign_keys_on_parent(table_name):
        values = fk.parent_values(row)
        resources.append(key_resource(fk.parent_table, fk.key_columns, values))
    return resources


def lock_for_insert(db: "Database", table_name: str, row: Sequence[Any]) -> None:
    locked = _locker(db)
    if locked is None:
        return
    locks, txn_id = locked
    locks.acquire(txn_id, table_resource(table_name), LockMode.IX)
    for resource in _candidate_key_resources(db, table_name, row):
        locks.acquire(txn_id, resource, LockMode.X)


def lock_for_delete(db: "Database", table_name: str, row: Sequence[Any]) -> None:
    locked = _locker(db)
    if locked is None:
        return
    locks, txn_id = locked
    locks.acquire(txn_id, table_resource(table_name), LockMode.IX)
    for resource in _candidate_key_resources(db, table_name, row):
        locks.acquire(txn_id, resource, LockMode.X)
    for resource in _referenced_key_resources(db, table_name, row):
        locks.acquire(txn_id, resource, LockMode.X)


def lock_for_update(
    db: "Database",
    table_name: str,
    old_row: Sequence[Any],
    new_row: Sequence[Any],
) -> None:
    locked = _locker(db)
    if locked is None:
        return
    locks, txn_id = locked
    locks.acquire(txn_id, table_resource(table_name), LockMode.IX)
    for row in (old_row, new_row):
        for resource in _candidate_key_resources(db, table_name, row):
            locks.acquire(txn_id, resource, LockMode.X)
    for fk in db.foreign_keys_on_parent(table_name):
        old_key = fk.parent_values(old_row)
        if old_key != fk.parent_values(new_row):
            locks.acquire(
                txn_id,
                key_resource(fk.parent_table, fk.key_columns, old_key),
                LockMode.X,
            )


def lock_for_read(db: "Database", table_name: str) -> None:
    """Intention-shared table lock for scans issued through a session."""
    locked = _locker(db)
    if locked is None:
        return
    locks, txn_id = locked
    locks.acquire(txn_id, table_resource(table_name), LockMode.IS)


def verify_parent_exists(
    db: "Database",
    fk: "ForeignKey",
    columns: Sequence[str],
    values: Sequence[Any],
) -> bool:
    """The concurrency-safe subsumption probe of the child-side check.

    Outside a managed session: one existence probe.  On a session: find
    a witness parent, take a shared lock on its full referenced-key
    value — strict 2PL pins it until our transaction ends, a
    parent-delete of that key blocks on its X lock until then — and
    record it for :func:`revalidate_witnesses`, which catches a delete
    that committed between the probe and the grant.
    """
    from ..query import probes

    parent = db.table(fk.parent_table)
    locked = _locker(db)
    if locked is None:
        return probes.exists_eq(parent, columns, values)
    locks, txn_id = locked
    witness = probes.find_eq(parent, columns, values)
    if witness is None:
        return False
    full_key = tuple(fk.parent_values(witness))
    resource = key_resource(fk.parent_table, fk.key_columns, full_key)
    locks.acquire(txn_id, resource, LockMode.S)
    if locks.sanitizer is not None:
        locks.sanitizer.on_witness_pinned(txn_id, resource)
    txn = db.active_transaction
    if txn is not None:
        txn.record_witness((fk.parent_table, tuple(fk.key_columns), full_key))
    return True


def verify_parent_exists_many(
    db: "Database",
    fk: "ForeignKey",
    columns: Sequence[str],
    values_list: Sequence[Sequence[Any]],
) -> list[bool]:
    """Vectorized :func:`verify_parent_exists` for one probe shape:
    each **distinct** value tuple is verified once, in encoded-key order
    — so a batch pins its witness S-locks in a deterministic global
    order — and the duplicates' charges are replayed
    (:func:`repro.query.probes.check_distinct`).  The witness S-lock and
    recorded-witness side effects are idempotent (re-grants and set
    inserts), so skipping them for duplicates loses nothing.
    """
    from ..query import probes

    return probes.check_distinct(
        probes.prepared(db.table(fk.parent_table), columns),
        values_list,
        lambda key: verify_parent_exists(db, fk, columns, key),
    )


def revalidate_witnesses(db: "Database", txn: Any) -> None:
    """Commit-time witness re-check.

    Every FK witness the transaction adopted must still exist in the
    latest *committed* state.  The probe runs through the transaction's
    committed view, so other transactions' uncommitted deletes are
    ignored (they would have blocked on our S-lock anyway) while a
    committed delete that won the probe→grant race is detected.  Raises
    :class:`~repro.errors.SerializationError`; the caller rolls back.
    """
    from ..query import probes

    view = txn.session.manager.versions.committed_view(txn.txn_id)
    for parent_table, key_columns, key_values in txn._witnesses:
        parent = db.tables.get(parent_table)
        if parent is None or not probes.exists_eq(
            parent, list(key_columns), list(key_values), view=view
        ):
            raise SerializationError(
                f"{txn.name}: foreign-key witness {key_values!r} in table "
                f"{parent_table!r} vanished before commit (serialization "
                f"failure; retry the transaction)"
            )
