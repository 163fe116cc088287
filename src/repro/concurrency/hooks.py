"""Lock-acquisition hooks called from the DML and enforcement paths.

The engine's hot paths stay lock-free in single-session use: every hook
first resolves the *active locker* — the (lock manager, transaction)
pair of the session bound to the current thread — and returns
immediately when there is none.  Only statements issued through a
:class:`~repro.concurrency.session.Session` pay for locking.

What gets locked where (the concurrency protocol, see DESIGN.md §5d):

* **insert into / delete from T** — IX on T, then X on each of the
  row's candidate-key values (a duplicate-key check cannot pass against
  a row another transaction may yet roll back) and on each
  *referenced-key* value for every foreign key in which T is the parent:
  a writer that creates or destroys a parent key holds it exclusively
  until its fate is known;
* **update of T** — the same on the old and the new row (referenced-key
  X only when key columns actually change, mirroring the paper's
  delete+insert model);
* **witness pin** — S on the full referenced-key value of the parent
  that answers a foreign-key probe (:func:`verify_parent_exists`), from
  either side of the key: the child check asks whether a parent subsumes
  the new value, the parent-side state loop whether an alternative
  parent survives a removed key, and a shard ``probe`` whether a remote
  parent exists.  Strict 2PL holds the S until commit, so the answer
  cannot be undone by a concurrent delete, nor rest on an insert that
  rolls back.

The witness is found before it is locked (we cannot know which parent
matches before looking), and the statement latch is dropped during lock
waits, so the pin re-checks the witness under its lock
(:func:`revalidate_witnesses`) and finds again when it vanished.

Snapshot reads take **no** logical locks at all — they never reach this
module.  The lock protocol above is the write path only.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from ..errors import SerializationError
from ..nulls import NULL
from ..query import probes
from .locks import LockManager, LockMode, key_resource, table_resource

if TYPE_CHECKING:  # pragma: no cover
    from ..constraints.foreign_key import ForeignKey
    from ..storage.database import Database

#: Witnesses a partial-match pin locks before it gives up on ones that
#: vanish under its lock.
_PROBE_ATTEMPTS = 3


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
    for resource in _referenced_key_resources(db, table_name, row):
        locks.acquire(txn_id, resource, LockMode.X)


#: A delete destroys the key values an insert creates: the same locks.
lock_for_delete = lock_for_insert


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
        new_key = fk.parent_values(new_row)
        if old_key != new_key:
            for key in (old_key, new_key):
                locks.acquire(
                    txn_id,
                    key_resource(fk.parent_table, fk.key_columns, key),
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
    table: str,
    key_columns: Sequence[str],
    columns: Sequence[str],
    values: Sequence[Any],
    view: Any = None,
) -> Sequence[Any] | None:
    """The witness pin: does a row of *table* match ``columns = values``
    (read through *view*, if given)?  Answers the matching row's value
    on *key_columns*, S-locked by the statement's transaction, or None.

    Outside a managed session nothing is locked: one existence probe,
    which answers *values* on a hit.  On a session, an exact key
    (*columns* are *key_columns*) is locked first and then checked.  A
    partial match is found first and its full key locked; the lock wait
    may outlive the witness — an uncommitted parent rolls back, a delete
    commits — so the key is re-checked under the lock through the same
    *view*, and a vanished witness means "find again".  Only witnesses
    that vanish :data:`_PROBE_ATTEMPTS` times raise the retryable
    :class:`~repro.errors.SerializationError`.
    """
    parent = db.table(table)
    locked = _locker(db)
    if locked is None:
        hit = probes.exists_eq(parent, columns, values, view=view)
        return values if hit else None
    locks, txn_id = locked
    exact = tuple(columns) == tuple(key_columns)
    for __ in range(_PROBE_ATTEMPTS):
        if exact:
            key = values
        else:
            witness = probes.find_eq(parent, columns, values, view=view)
            if witness is None:
                return None
            key = [witness[i] for i in parent.schema.positions(key_columns)]
        resource = key_resource(table, key_columns, key)
        locks.acquire(txn_id, resource, LockMode.S)
        if locks.sanitizer is not None:
            locks.sanitizer.on_witness_pinned(txn_id, resource)
        if revalidate_witnesses(db, table, key_columns, key, view):
            return key
        if exact:
            return None
    raise SerializationError(
        f"witnesses of {table}{dict(zip(columns, values))!r} vanished "
        f"{_PROBE_ATTEMPTS} times under the pin; retry"
    )


def verify_parent_exists_many(
    db: "Database",
    fk: "ForeignKey",
    columns: Sequence[str],
    values_list: Sequence[Sequence[Any]],
) -> list[bool]:
    """Vectorized child-side :func:`verify_parent_exists` for one probe
    shape of *fk*: each **distinct** value tuple is verified once, in
    encoded-key order — so a batch pins its witness S-locks in a
    deterministic global order — and the duplicates' charges are
    replayed (:func:`repro.query.probes.check_distinct`).  Re-pinning a
    duplicate would only re-grant a held lock, so skipping it loses
    nothing.
    """
    return probes.check_distinct(
        probes.prepared(db.table(fk.parent_table), columns),
        values_list,
        lambda key: verify_parent_exists(
            db, fk.parent_table, fk.key_columns, columns, key
        ) is not None,
    )


def revalidate_witnesses(
    db: "Database",
    table: str,
    key_columns: Sequence[str],
    key: Sequence[Any],
    view: Any = None,
) -> bool:
    """The pin's re-check under its S-lock: does the row of *table*
    whose *key_columns* equal *key* still exist, read through *view*?

    The same *view* as the probe that found it: a RESTRICT veto reads
    the parent "as the write will leave it", and a witness there may be
    the updated row's own new key, which the tip does not hold yet.
    """
    return probes.exists_eq(db.table(table), key_columns, key, view=view)
