"""Strict two-phase locking for multi-session enforcement.

The partial-RI phantom-parent race motivates this module: an
intelligent-update imputation (or a plain MATCH PARTIAL child check)
probes the parent table, finds a subsuming parent, and adopts it — while
a concurrent session deletes exactly that parent.  Serializing the two
through locks is what makes the paper's trigger + index enforcement
correct under concurrent traffic, not just fast.

Granularity follows the classic Gray hierarchy, two levels deep:

* **table locks** — ``("table", name)`` with intention modes (IS/IX) for
  row-level work and S/X for whole-table operations (DDL);
* **key locks** — ``("key", table, columns, values)`` in S/X, covering
  one key value of one (candidate or referenced) key.  Writers take X on
  the key values they create or destroy; the enforcement probes take S
  on the *witness* parent row they rely on.

Policy decisions, each pinned by a test:

* **strict 2PL** — locks are held until the owning transaction ends
  (:meth:`LockManager.release_all` is called from ``Transaction._close``),
  so a reader's witness parent cannot vanish before the reader commits;
* **deadlock detection** over the waits-for graph, run whenever a
  request must wait; the *youngest* transaction in the cycle (largest
  transaction id) is aborted with :class:`~repro.errors.DeadlockError`;
* **timeouts** with capped-backoff polling as the backstop for waits the
  detector cannot see (default :data:`DEFAULT_LOCK_TIMEOUT`), raising
  :class:`~repro.errors.LockTimeoutError`;
* **no queue fairness** — a request is granted the moment it is
  compatible with the *holders*; starvation is bounded by the timeout.

Lock waits cross the fault points ``lock.acquire`` (every request) and
``lock.wait`` (each blocking wait), so :mod:`repro.testing.faults`
injectors can simulate contention storms without real threads.
"""

from __future__ import annotations

import enum
import threading
import time
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConcurrencyError, DeadlockError, LockTimeoutError
from ..testing.faults import fire

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.lockdep import LockdepObserver

#: Seconds a lock request waits before giving up.  Generous enough that
#: real contention resolves, short enough that an undetectable hang
#: (e.g. a lock leaked by buggy user code) surfaces as an error.
DEFAULT_LOCK_TIMEOUT = 10.0

#: Longest single sleep of a lock wait between grant and deadlock checks.
_POLL_CAP_S = 0.02

#: A lockable thing: ``("table", name)`` or ``("key", table, cols, vals)``.
Resource = Hashable


class LockMode(enum.Enum):
    """The classic multi-granularity modes (Gray et al.)."""

    IS = "IS"
    IX = "IX"
    S = "S"
    X = "X"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LockMode.{self.name}"


_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {
    (LockMode.IS, LockMode.IS): True,
    (LockMode.IS, LockMode.IX): True,
    (LockMode.IS, LockMode.S): True,
    (LockMode.IS, LockMode.X): False,
    (LockMode.IX, LockMode.IS): True,
    (LockMode.IX, LockMode.IX): True,
    (LockMode.IX, LockMode.S): False,
    (LockMode.IX, LockMode.X): False,
    (LockMode.S, LockMode.IS): True,
    (LockMode.S, LockMode.IX): False,
    (LockMode.S, LockMode.S): True,
    (LockMode.S, LockMode.X): False,
    (LockMode.X, LockMode.IS): False,
    (LockMode.X, LockMode.IX): False,
    (LockMode.X, LockMode.S): False,
    (LockMode.X, LockMode.X): False,
}

#: ``covers[a]`` = the modes a holder of ``a`` implicitly also holds.
_COVERS: dict[LockMode, frozenset[LockMode]] = {
    LockMode.IS: frozenset({LockMode.IS}),
    LockMode.IX: frozenset({LockMode.IX, LockMode.IS}),
    LockMode.S: frozenset({LockMode.S, LockMode.IS}),
    LockMode.X: frozenset(LockMode),
}

#: Least upper bound for upgrades: holding `row` and requesting `col`
#: leaves the transaction holding this mode.
_COMBINE: dict[tuple[LockMode, LockMode], LockMode] = {}
for _a in LockMode:
    for _b in LockMode:
        if _b in _COVERS[_a]:
            _COMBINE[(_a, _b)] = _a
        elif _a in _COVERS[_b]:
            _COMBINE[(_a, _b)] = _b
        else:  # S+IX (and symmetric) escalate to X; nothing else is disjoint
            _COMBINE[(_a, _b)] = LockMode.X


def compatible(held: LockMode, requested: LockMode) -> bool:
    """May *requested* be granted alongside an existing *held* lock?"""
    return _COMPATIBLE[(held, requested)]


class StatementLatch:
    """A re-entrant reader/writer latch protecting physical structures.

    Writers (every statement that may mutate: DML, DDL, commit paths)
    hold the latch *exclusively* for the duration of one statement, so
    B+ tree splits, heap mutations and WAL appends never interleave
    between threads — exactly the pre-MVCC behaviour, and ``acquire`` /
    ``release`` / ``with latch:`` keep meaning exclusive mode.  Snapshot
    readers hold it *shared* (:meth:`acquire_shared`, :meth:`shared`):
    any number of readers run together, and the latch is the only thing
    a snapshot read synchronises on — it takes zero logical locks.

    The latch is writer-preferring: once a writer is waiting, new
    readers queue behind it, so a 99:1 read mix cannot starve writers.
    Re-entrancy is per-thread in both modes; a shared request by the
    thread that already holds exclusive is satisfied by the exclusive
    hold.  Upgrading (exclusive while holding only shared) deadlocks by
    construction and is rejected with :class:`ConcurrencyError`.

    When a statement must *wait* for a logical lock, the exclusive hold
    is fully released for the duration of the wait
    (:meth:`release_for_wait`) — otherwise the holder of the conflicting
    lock could never run to commit, a latch-versus-lock deadlock.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._cond = threading.Condition(self._mu)
        self._writer: int | None = None  # thread ident holding exclusive
        self._writer_depth = 0
        self._readers = 0  # threads holding shared (first entry only)
        self._writers_waiting = 0
        self._local = threading.local()  # per-thread shared-mode depth

    def _shared_depth(self) -> int:
        return getattr(self._local, "shared_depth", 0)

    # ------------------------------------------------------------------
    # Exclusive mode (the statement/write path)

    def acquire(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if self._shared_depth() > 0:
                raise ConcurrencyError(
                    "latch upgrade: exclusive requested while holding shared"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise ConcurrencyError(
                    "latch released by a thread that does not hold it"
                )
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    def held(self) -> bool:
        """Does the *current thread* hold the latch exclusively?"""
        return self._writer == threading.get_ident()

    # ------------------------------------------------------------------
    # Shared mode (the snapshot-read path)

    def acquire_shared(self) -> None:
        depth = self._shared_depth()
        if depth:
            self._local.shared_depth = depth + 1  # re-entrant, no wait
            return
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # Shared inside our own exclusive hold: already excluded.
                self._local.shared_depth = 1
                self._local.shared_counted = False
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        self._local.shared_depth = 1
        self._local.shared_counted = True

    def release_shared(self) -> None:
        depth = self._shared_depth()
        if depth <= 0:
            raise ConcurrencyError(
                "shared latch released by a thread that does not hold it"
            )
        self._local.shared_depth = depth - 1
        if depth == 1 and getattr(self._local, "shared_counted", False):
            self._local.shared_counted = False
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    def shared(self) -> "_SharedLatch":
        """Context manager for one shared (snapshot-read) hold."""
        return _SharedLatch(self)

    # ------------------------------------------------------------------

    def release_for_wait(self) -> Callable[[], None]:
        """Fully release the current thread's exclusive hold; returns the
        restorer.

        The restorer re-acquires to the previous depth and must be called
        exactly once (``finally``) after the wait finishes.
        """
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise ConcurrencyError(
                    "release_for_wait by a thread not holding the latch"
                )
            depth = self._writer_depth
            self._writer = None
            self._writer_depth = 0
            self._cond.notify_all()

        def restore() -> None:
            self.acquire()
            with self._cond:
                self._writer_depth = depth

        return restore

    def __enter__(self) -> "StatementLatch":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class _SharedLatch:
    """``with latch.shared():`` — one shared hold, released on exit."""

    __slots__ = ("_latch",)

    def __init__(self, latch: StatementLatch) -> None:
        self._latch = latch

    def __enter__(self) -> StatementLatch:
        self._latch.acquire_shared()
        return self._latch

    def __exit__(self, *exc_info) -> None:
        self._latch.release_shared()


@dataclass
class LockStats:
    """Counters the benchmark and the server's ``stats`` op report."""

    acquired: int = 0
    waits: int = 0
    wait_time_s: float = 0.0
    deadlocks: int = 0
    timeouts: int = 0

    def snapshot(self) -> dict[str, float]:
        return {
            "acquired": self.acquired,
            "waits": self.waits,
            "wait_time_s": self.wait_time_s,
            "deadlocks": self.deadlocks,
            "timeouts": self.timeouts,
        }


@dataclass
class _Waiter:
    txn_id: int
    mode: LockMode
    victim: bool = False


@dataclass
class _LockRecord:
    granted: dict[int, LockMode] = field(default_factory=dict)
    waiters: list[_Waiter] = field(default_factory=list)


class LockManager:
    """Table- and key-granularity strict 2PL with deadlock detection."""

    def __init__(
        self,
        latch: StatementLatch | None = None,
        timeout: float = DEFAULT_LOCK_TIMEOUT,
        sanitize: bool | None = None,
    ) -> None:
        self._latch = latch
        self.timeout = timeout
        self._mu = threading.Lock()
        self._cond = threading.Condition(self._mu)
        self._table: dict[Resource, _LockRecord] = {}
        #: Per-transaction view of every held resource, mirrored from
        #: ``_table`` (what :meth:`release_all` walks).
        self._held: dict[int, set[Resource]] = {}
        self.stats = LockStats()
        #: The lockdep observer, or None (the default).  Every hot-path
        #: crossing tests exactly ``self._sanitizer is not None`` — the
        #: same compile-to-one-boolean discipline as the fault points.
        #: Armed explicitly (``sanitize=True``) or by ``REPRO_SANITIZE=1``.
        self._sanitizer: "LockdepObserver | None" = None
        if sanitize is None:
            from ..analysis import lockdep

            sanitize = lockdep.env_enabled()
        if sanitize:
            from ..analysis import lockdep

            self._sanitizer = lockdep.attach(self)

    # ------------------------------------------------------------------
    # Acquisition

    def acquire(
        self,
        txn_id: int,
        resource: Resource,
        mode: LockMode,
        timeout: float | None = None,
    ) -> None:
        """Grant *mode* on *resource* to *txn_id*, waiting if necessary.

        Raises :class:`~repro.errors.DeadlockError` if this transaction
        is chosen as a deadlock victim while waiting, and
        :class:`~repro.errors.LockTimeoutError` on timeout.  Locks stay
        held until :meth:`release_all`.
        """
        fire("lock.acquire")
        with self._cond:
            if self._try_grant(txn_id, resource, mode):
                self.stats.acquired += 1
                if self._sanitizer is not None:
                    self._sanitizer.on_acquired(txn_id, resource, mode)
                return
        # Must wait.  Drop the statement latch first: the conflicting
        # holder needs it to finish its statement and commit.
        restore = (
            self._latch.release_for_wait()
            if self._latch is not None and self._latch.held()
            else None
        )
        try:
            self._wait_for(txn_id, resource, mode, timeout)
        finally:
            if restore is not None:
                restore()

    def _wait_for(
        self, txn_id: int, resource: Resource, mode: LockMode, timeout: float | None
    ) -> None:
        deadline = time.monotonic() + (self.timeout if timeout is None else timeout)
        waiter = _Waiter(txn_id, mode)
        started = time.monotonic()
        # Backoff: poll slices double up to _POLL_CAP_S, so short waits
        # resolve quickly and long waits stay cheap.
        slice_s = 0.002
        with self._cond:
            record = self._table.setdefault(resource, _LockRecord())
            record.waiters.append(waiter)
            self.stats.waits += 1
            try:
                while True:
                    if self._try_grant(txn_id, resource, mode):
                        self.stats.acquired += 1
                        # Grant-time recording: a deadlock victim never
                        # reaches this line, so fired cycles self-suppress
                        # in the lock-order graph (see analysis.lockdep).
                        if self._sanitizer is not None:
                            self._sanitizer.on_acquired(txn_id, resource, mode)
                        return
                    if waiter.victim:
                        self.stats.deadlocks += 1
                        raise DeadlockError(
                            f"transaction {txn_id} chosen as deadlock victim "
                            f"waiting for {mode.name} on {resource!r}"
                        )
                    victim = self._detect_deadlock(txn_id)
                    if victim is not None:
                        if victim == txn_id:
                            self.stats.deadlocks += 1
                            raise DeadlockError(
                                f"transaction {txn_id} chosen as deadlock "
                                f"victim waiting for {mode.name} on {resource!r}"
                            )
                        # Another transaction is the victim: mark it, wake
                        # it, then wait like everyone else — it needs the
                        # mutex (released by cond.wait below) to abort.
                        self._mark_victim(victim)
                        self._cond.notify_all()
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.stats.timeouts += 1
                        raise LockTimeoutError(
                            f"transaction {txn_id} timed out waiting for "
                            f"{mode.name} on {resource!r}"
                        )
                    fire("lock.wait")
                    self._cond.wait(min(slice_s, remaining))
                    slice_s = min(slice_s * 2, _POLL_CAP_S)
            finally:
                if waiter in record.waiters:
                    record.waiters.remove(waiter)
                if not record.granted and not record.waiters:
                    self._table.pop(resource, None)
                self.stats.wait_time_s += time.monotonic() - started

    def _try_grant(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        """Grant if compatible with all *other* holders.  Caller holds _mu."""
        record = self._table.get(resource)
        if record is None:
            record = self._table.setdefault(resource, _LockRecord())
        held = record.granted.get(txn_id)
        if held is not None and mode in _COVERS[held]:
            return True  # already strong enough
        for other, other_mode in record.granted.items():
            if other == txn_id:
                continue
            if not compatible(other_mode, mode):
                return False
        combined = mode if held is None else _COMBINE[(held, mode)]
        record.granted[txn_id] = combined
        self._held.setdefault(txn_id, set()).add(resource)
        return True

    # ------------------------------------------------------------------
    # Deadlock detection: the waits-for graph, rebuilt on demand.

    def _waits_for_edges(self) -> dict[int, set[int]]:
        edges: dict[int, set[int]] = {}
        for record in self._table.values():
            for waiter in record.waiters:
                held = record.granted.get(waiter.txn_id)
                for holder, holder_mode in record.granted.items():
                    if holder == waiter.txn_id:
                        continue
                    if held is not None and waiter.mode in _COVERS[held]:
                        continue  # stale waiter, about to be granted
                    if not compatible(holder_mode, waiter.mode):
                        edges.setdefault(waiter.txn_id, set()).add(holder)
        return edges

    def _detect_deadlock(self, start: int) -> int | None:
        """Find a cycle reachable from *start*; return the youngest member.

        The youngest transaction (largest id — ids are handed out
        monotonically) has done the least work, so aborting it wastes the
        least; this is also deterministic, which the tests rely on.
        """
        edges = self._waits_for_edges()
        path: list[int] = []
        on_path: set[int] = set()
        visited: set[int] = set()

        def dfs(node: int) -> list[int] | None:
            path.append(node)
            on_path.add(node)
            for succ in edges.get(node, ()):
                if succ in on_path:
                    return path[path.index(succ):]
                if succ not in visited:
                    cycle = dfs(succ)
                    if cycle is not None:
                        return cycle
            path.pop()
            on_path.remove(node)
            visited.add(node)
            return None

        cycle = dfs(start)
        if cycle is None:
            return None
        return max(cycle)

    def _mark_victim(self, txn_id: int) -> None:
        for record in self._table.values():
            for waiter in record.waiters:
                if waiter.txn_id == txn_id:
                    waiter.victim = True

    # ------------------------------------------------------------------
    # Release (strict 2PL: only at end of transaction)

    def release_all(self, txn_id: int) -> None:
        """Release every lock *txn_id* holds and wake the waiters."""
        with self._cond:
            resources = self._held.pop(txn_id, None)
            if not resources:
                return
            for resource in resources:
                record = self._table.get(resource)
                if record is None:
                    continue
                record.granted.pop(txn_id, None)
                if not record.granted and not record.waiters:
                    self._table.pop(resource, None)
            self._cond.notify_all()
        if self._sanitizer is not None:
            self._sanitizer.on_release_all(txn_id)

    # ------------------------------------------------------------------
    # Introspection (tests, the server's stats op, the benchmark)

    @property
    def sanitizer(self) -> "LockdepObserver | None":
        """The lockdep observer watching this manager, or None."""
        return self._sanitizer

    def held_by(self, txn_id: int) -> set[Resource]:
        with self._mu:
            return set(self._held.get(txn_id, ()))

    def holders(self, resource: Resource) -> dict[int, LockMode]:
        with self._mu:
            record = self._table.get(resource)
            return dict(record.granted) if record else {}

    def waiting(self) -> dict[Resource, list[int]]:
        with self._mu:
            return {
                resource: [w.txn_id for w in record.waiters]
                for resource, record in self._table.items()
                if record.waiters
            }

    def assert_idle(self) -> None:
        """Raise unless no locks are held or waited on (test hygiene)."""
        with self._mu:
            if self._table or self._held:
                raise ConcurrencyError(
                    f"lock manager not idle: {len(self._table)} resources, "
                    f"holders {sorted(self._held)}"
                )


# ----------------------------------------------------------------------
# Resource naming helpers shared by the DML hooks and the tests.


def table_resource(table: str) -> Resource:
    return ("table", table)


def key_resource(
    table: str, columns: Iterable[str], values: Iterable[object]
) -> Resource:
    """The lock resource covering one value of one key of one table.

    Both sides of the phantom-parent race build the same resource: the
    parent-delete path from the row it removes, the child-check path from
    the witness row its probe found.
    """
    return ("key", table, tuple(columns), tuple(values))
