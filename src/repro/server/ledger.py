"""The exactly-once result ledger.

A retried mutation must not re-fire the triggers the paper costs out:
after a torn reply the client cannot know whether its insert committed,
so it re-sends the same request and the server must answer *from
memory of the commit*, not by executing again.  The protocol:

* every mutating request carries a ``(client_id, request_id)`` pair,
  with ``request_id`` strictly monotonic per client (the client is a
  single statement stream, like any SQL connection);
* before executing, the server consults the ledger — a hit means the
  original attempt committed and its acknowledged result is replayed
  verbatim (stamped ``"replayed": True``);
* on commit, the entry rides *inside the WAL commit record*
  (:meth:`~repro.storage.wal.WriteAheadLog.commit`'s ``note``), so the
  result is durable exactly iff the commit is — there is no window
  where work survived a crash but the ledger forgot it, or vice versa.
  A run of pipelined inserts that executed as one statement commits
  once, and its note is the tuple of its requests' entries;
* checkpoints snapshot the ledger into the WAL's ``extras`` so
  compaction cannot truncate it away.

Bounds: each client keeps a **window** of its most recent acknowledged
results, not just the newest one.  A stop-and-wait client only ever
retries its single newest request, but a *pipelined* client streams many
stamped requests without awaiting replies — after a mid-stream tear it
redelivers every unacknowledged request, the oldest of which can sit
well behind the newest id the server completed.  The window (sized above
any sane pipeline depth) lets all of them replay.  A request id behind
the retained window is still a protocol violation and is refused rather
than re-executed; clients are evicted least-recently-used past
``capacity``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from typing import Any, TYPE_CHECKING

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.wal import WalRecord

#: Ledger snapshots map client id -> {request id: acknowledged result}.
LedgerSnapshot = dict[str, "dict[int, dict[str, Any] | None]"]

#: Per-client replay window.  Must exceed the deepest pipeline a client
#: may have in flight when its connection tears.
WINDOW = 256


class LedgerError(ReproError):
    """A malformed or out-of-order idempotency key."""


class LedgerEntry:
    """One in-flight mutating request's identity and (eventual) result.

    Created by the server before executing, annotated onto the session
    so the transaction's commit record captures it, and *filled*
    (``result`` assigned) by the op handler inside the transaction —
    i.e. before the commit flush serialises it to disk.
    """

    __slots__ = ("client_id", "request_id", "result")

    def __init__(self, client_id: str, request_id: int) -> None:
        self.client_id = client_id
        self.request_id = request_id
        self.result: dict[str, Any] | None = None

    def __repr__(self) -> str:
        state = "filled" if self.result is not None else "pending"
        return f"<LedgerEntry {self.client_id}#{self.request_id} ({state})>"


class ResultLedger:
    """Bounded per-client memory of acknowledged mutation results."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise LedgerError("ledger capacity must be >= 1")
        self.capacity = capacity
        self._mu = threading.Lock()
        #: client id -> request id -> acknowledged result, each inner
        #: map ordered by request id (its own bounded replay window).
        self._entries: OrderedDict[
            str, OrderedDict[int, dict[str, Any] | None]
        ] = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        with self._mu:
            return len(self._entries)

    # ------------------------------------------------------------------

    def replay(self, client_id: str, request_id: int) -> dict[str, Any] | None:
        """The stored response for a retried request, or None if new.

        Any id inside the client's retained window replays (a pipelined
        redelivery legitimately re-sends several ids at once, the oldest
        behind the newest completed one).  An id behind the window
        cannot be honoured — its result was already superseded — and
        re-executing it would break exactly-once, so it is refused
        loudly.
        """
        with self._mu:
            window = self._entries.get(client_id)
            if window is None:
                return None
            last_id = next(reversed(window))
            if request_id > last_id:
                return None
            result = window.get(request_id, _MISSING)
            if result is _MISSING:
                raise LedgerError(
                    f"client {client_id!r} replayed request {request_id} "
                    f"after already completing request {last_id}"
                )
            self._entries.move_to_end(client_id)
        if result is None:
            # The commit was durable but the handler never filled the
            # result (SQL-text transaction control commits mid-batch);
            # the caller learns "it committed" without the detail.
            return {"ok": True, "replayed": True, "result_lost": True}
        return {**result, "replayed": True}

    def record(
        self, client_id: str, request_id: int, result: dict[str, Any] | None
    ) -> None:
        """Remember the acknowledged result of a committed request."""
        with self._mu:
            window = self._entries.get(client_id)
            if window is None:
                window = self._entries[client_id] = OrderedDict()
            if request_id in window:
                if window[request_id] is None and result is not None:
                    window[request_id] = result  # fill a lost result
            else:
                out_of_order = bool(window) and request_id < next(
                    reversed(window)
                )
                window[request_id] = result
                if out_of_order:
                    # A stale restore landing after newer live commits:
                    # re-sort so pruning keeps dropping the oldest ids.
                    for key in sorted(window):
                        window.move_to_end(key)
                while len(window) > WINDOW:
                    window.popitem(last=False)
            self._entries.move_to_end(client_id)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    # ------------------------------------------------------------------
    # Durability round trip

    def snapshot(self) -> LedgerSnapshot:
        """A picklable image for the WAL checkpoint's extras."""
        with self._mu:
            return {client: dict(window)
                    for client, window in self._entries.items()}

    def restore(
        self,
        snapshot: LedgerSnapshot | None,
        records: Iterable["WalRecord"] = (),
    ) -> int:
        """Rebuild from a checkpoint snapshot plus commit-record notes.

        Commit notes are applied in log order after the snapshot; the
        per-client monotonic request ids make the merge order-safe.  A
        note is one entry, or a tuple of them when one commit carried a
        run of requests.  Returns how many entries were restored.
        """
        restored = 0
        if snapshot:
            for client_id, stored in snapshot.items():
                for request_id in sorted(stored):
                    self.record(client_id, request_id, stored[request_id])
                    restored += 1
        for record in records:
            if record.kind != "commit" or not record.payload:
                continue
            note = record.payload[0]
            for entry in note if isinstance(note, tuple) else (note,):
                if isinstance(entry, LedgerEntry):
                    self.record(entry.client_id, entry.request_id, entry.result)
                    restored += 1
        return restored


#: Sentinel distinguishing "id absent from the window" from a stored
#: ``None`` result (committed, result lost).
_MISSING: Any = object()
