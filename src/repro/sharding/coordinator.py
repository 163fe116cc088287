"""The shard coordinator: router, witness prober and 2PC commit point.

One coordinator process fronts N :class:`~repro.server.server.ReproServer`
shards (DESIGN.md §5i).  It speaks the same length-prefixed JSON protocol
as the shards, so the existing :class:`~repro.server.client.ReproClient`
(with its exactly-once stamps) talks to a sharded deployment unchanged.

One write path (:meth:`ShardCoordinator._write_rows`): every row a
client inserts — an autocommit ``insert`` (a transaction of one), a
``batch``, the buffer of a ``begin … commit`` — goes through one planner
and one commit, all rows or none.  Tables hash-partition on their
FK-prefix (:mod:`repro.sharding.catalog`), so a child row whose FK
components are all non-NULL co-locates with its witness parent, and a
plan that lands on one shard commits **one-phase**: a single ``txn`` op
(witness pins, then the rows) ledgered under the client's own stamp.
Only a MATCH PARTIAL child row with NULL components may find its witness
on a foreign shard (the planner scatter-probes a snapshot witness).  A
plan on several shards runs **presumed-abort two-phase commit**, as
cascades do: PREPARE each shard's ops (durably logged by the participant
before it votes), write the COMMIT decision to the coordinator's own
:class:`DecisionLog` segment store, and only then acknowledge the client
and push the decides.

Presumed abort means only COMMIT decisions are logged.  ``resolve``
answers a participant asking about an in-doubt transaction: a logged
decision is ``commit``; a transaction still being prepared is
``pending``; anything else — including every gtid of a previous
coordinator incarnation (gtids carry an epoch) — is ``abort``.

Exactly-once across the extra hop: plain forwards and one-phase ``txn``
ops carry the client's original stamp and replay from the shard's result
ledger; 2PC outcomes replay from the decision log by ``(client, req)``
base.  A write that may pin a probed witness can take another route when
re-planned, so before planning it looks its stamp up: the decision log,
then a scatter ``ledger_peek`` for acks that committed one-phase before
a coordinator crash.  When the coordinator cannot rule out that a
forwarded stamp committed (partial scatter, torn shard link), it **tears
the client connection instead of answering** — an error reply would
falsely promise "not committed".

Shard links belong to the client connection whose thread opened them and
close with it; the decide pusher keeps one link per shard of its own.

Index design: the catalog declares, per foreign key, the paper's index
structure the shards enforce with.  Before the first request it routes
to a shard the coordinator sends one idempotent ``provision`` op naming
those indexes, so witness probes, key checks and cascade pattern reads
are index ranges there.  Start-up never waits on a shard.

Cascaded SET NULL on a parent delete is planned coordinator-side:
delete + full-match NULL-out on the parent's shard, then one NULL-out
batch per orphaned single-column pattern on that pattern's home shard,
all under one global transaction.  Concurrent cascades over overlapping
patterns serialise on coordinator-local pattern locks; after a restart a
short ``cascade_grace`` pause lets pre-crash in-doubt cascades resolve
before new pattern probes can read stale survivors.  Cross-shard
deadlocks (a cascade and a 2PC insert locking the same keys from
opposite ends) have no global detector — the shards' lock timeout is the
backstop, surfacing as a retryable error the client re-runs.
"""

from __future__ import annotations

import pickle
import threading
import time
import uuid
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from ..errors import (
    ReferentialIntegrityViolation,
    ReproError,
    TransactionStateError,
    TransientFault,
)
from ..server import wire
from ..server.client import DeliveryUnknown, ReproClient, ServerError, error_reply_from
from ..server.core import Overloaded, Tear, WireServer, stamp_of
from .catalog import FkRoute, ShardCatalog, TableRoute
from .twophase import TwoPhaseError

#: A stalled reply send disconnects the reader instead of pinning us.
_SEND_TIMEOUT = 10.0

#: Per-shard retries of a retryable error inside one scatter pass.
_SCATTER_ATTEMPTS = 4

#: Only single-row inserts are buffered by ``begin … commit``.
_AUTOCOMMIT_ONLY = frozenset({"batch", "delete", "update"})

#: ``prepare(shard, ops)`` inside :meth:`ShardCoordinator._two_phase`:
#: PREPARE one batch of the global transaction, return its op results.
_Prepare = Callable[[int, list[dict[str, Any]]], list[dict[str, Any]]]

#: Pause after a restart before new cascades may probe patterns, so
#: pre-crash in-doubt cascades resolve first (see module docstring).
DEFAULT_CASCADE_GRACE = 2.0


def partial_orphans(
    parents: Iterable[Sequence[Any]], keys: Sequence[Sequence[Any]]
) -> list[int]:
    """Positions of the child foreign keys in *keys* (None for NULL)
    that no parent key matches under MATCH PARTIAL: a key with at least
    one non-NULL component needs a parent agreeing on exactly those.

    One set of parent projections per non-NULL column set that occurs,
    then one lookup per child — not every child against every parent."""
    parents = list(parents)
    projections: dict[tuple[int, ...], set[tuple[Any, ...]]] = {}
    orphans = []
    for position, key in enumerate(keys):
        columns = tuple(i for i, value in enumerate(key) if value is not None)
        if not columns:
            continue
        present = projections.get(columns)
        if present is None:
            present = projections[columns] = {
                tuple(parent[i] for i in columns) for parent in parents
            }
        if tuple(key[i] for i in columns) not in present:
            orphans.append(position)
    return orphans


class DecisionLog:
    """The coordinator's durable presumed-abort decision log.

    Records only COMMIT decisions — ``{gtid, base, result}`` — through a
    :class:`~repro.storage.segments.SegmentStore` (fsync before return,
    i.e. before any client ack).  ``base`` is the client's exactly-once
    stamp, making the log double as the coordinator's result ledger for
    non-deterministically-routed requests.  With no ``data_dir`` the log
    is memory-only (single-process tests).
    """

    def __init__(self, data_dir: str | None) -> None:
        self._mu = threading.Lock()
        self._by_gtid: dict[str, dict[str, Any]] = {}
        self._by_base: dict[tuple[str, int], dict[str, Any]] = {}
        self._store = None
        if data_dir is not None:
            from ..storage.segments import SegmentStore

            self._store = SegmentStore(data_dir)
            payloads, __ = self._store.load()  # a torn tail was never acked
            for blob in payloads:
                self._index(pickle.loads(blob))
        #: Did this incarnation inherit decisions from a predecessor?
        self.resumed = bool(self._by_gtid)

    def _index(self, entry: dict[str, Any]) -> None:
        self._by_gtid[entry["gtid"]] = entry
        base = entry.get("base")
        if base is not None:
            self._by_base[(base[0], base[1])] = entry

    def record_decision(
        self,
        gtid: str,
        base: tuple[str, int] | None,
        result: dict[str, Any],
    ) -> dict[str, Any]:
        """Durably log the COMMIT decision for *gtid*.  Returns only
        after the record is fsynced — callers ack strictly after this."""
        entry = {"gtid": gtid, "base": base, "result": result}
        with self._mu:
            if self._store is not None:
                self._store.append([pickle.dumps(entry)])
            self._index(entry)
        return entry

    def logged_decision(
        self, gtid: str | None = None, *, base: tuple[str, int] | None = None
    ) -> dict[str, Any] | None:
        with self._mu:
            if gtid is not None:
                return self._by_gtid.get(gtid)
            if base is not None:
                return self._by_base.get((base[0], base[1]))
        return None

    def close(self) -> None:
        """Release the store's open segment (the log stays usable)."""
        with self._mu:
            if self._store is not None:
                self._store.close()

    def __len__(self) -> int:
        with self._mu:
            return len(self._by_gtid)


@dataclass
class _ConnState:
    """Per-connection coordinator state (the buffered transaction)."""

    session_id: int
    in_txn: bool = False
    txn_id: int = 0
    #: The open transaction's ``(table, values)`` rows, in order.
    buffer: list[tuple[str, list[Any]]] = field(default_factory=list)


class ShardCoordinator(WireServer):
    """Serve a sharded database behind one wire endpoint."""

    role = "coordinator"

    def __init__(
        self,
        catalog: ShardCatalog,
        shard_addrs: Sequence[tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        data_dir: str | None = None,
        cascade_grace: float = DEFAULT_CASCADE_GRACE,
    ) -> None:
        if len(shard_addrs) != catalog.shards:
            raise ReproError(
                f"catalog wants {catalog.shards} shards, "
                f"got {len(shard_addrs)} addresses"
            )
        super().__init__(
            host, port, _SEND_TIMEOUT,
            "teardowns", "replays", "forwards", "scatters", "one_phase",
            "commits_2pc", "aborts_2pc", "cascades", "decide_errors",
        )
        self.catalog = catalog
        self.shard_addrs = [(h, int(p)) for h, p in shard_addrs]
        self.decisions = DecisionLog(data_dir)
        #: Each incarnation gets a fresh epoch: gtids of a dead
        #: coordinator are recognisably stale and resolve to abort.
        self.epoch = uuid.uuid4().hex[:8]
        self._gtid_n = 0
        self._gtid_mu = threading.Lock()
        self._in_flight: set[str] = set()
        self._in_flight_mu = threading.Lock()
        #: Per-client acked high-water mark: requests above it are fresh
        #: and skip the replay lookups.  Lost on restart (then every
        #: client's first request pays one lookup, on purpose).
        self._client_high: dict[str, int] = {}
        self._client_mu = threading.Lock()
        # Coordinator-local cascade pattern locks (all-or-nothing,
        # sorted keys => deadlock-free).
        self._pattern_cv = threading.Condition(threading.Lock())
        self._pattern_held: set[str] = set()
        # Async decide pushes (the ack never waits on them).
        self._push_q: deque[tuple[str, int, str]] = deque()
        self._push_cv = threading.Condition(threading.Lock())
        self._push_thread: threading.Thread | None = None
        self._local = threading.local()
        self._clients: set[ReproClient] = set()
        self._clients_mu = threading.Lock()
        self.cascade_grace = cascade_grace
        self._grace_until = 0.0
        #: The catalog's index design in wire form, and the shards that
        #: acknowledged it to this incarnation (see :meth:`_provision`).
        self._index_design = catalog.index_design()
        self._provisioned: set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle and per-connection state (the core's role hooks)

    def start(self) -> "ShardCoordinator":
        super().start()
        if self.decisions.resumed:
            self._grace_until = time.monotonic() + self.cascade_grace
        self._push_thread = threading.Thread(
            target=self._push_loop, name="repro-coord-push", daemon=True
        )
        self._push_thread.start()
        return self

    def shutdown(self, timeout: float = 10.0) -> None:
        if self._listener is None:
            return
        deadline = time.monotonic() + timeout
        self.stop_serving(timeout)
        with self._push_cv:
            self._push_cv.notify_all()
        if self._push_thread is not None:
            self._push_thread.join(max(0.0, deadline - time.monotonic()))
        with self._clients_mu:
            clients, self._clients = self._clients, set()
        for client in clients:
            client.close()
        self.decisions.close()

    def open_connection(self, conn_id: int) -> _ConnState:
        return _ConnState(session_id=conn_id)

    def close_connection(self, state: _ConnState) -> None:
        """Shard links live as long as the client connection whose
        thread opened them (this runs on that thread)."""
        mine = list(getattr(self._local, "clients", {}).values())
        self._local.clients = {}
        with self._clients_mu:
            self._clients.difference_update(mine)
        for client in mine:
            client.close()

    def handle(
        self, state: _ConnState, request: dict[str, Any]
    ) -> dict[str, Any]:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None or not isinstance(op, str) or op.startswith("_"):
            raise ReproError(f"unknown coordinator op {op!r}")
        if state.in_txn and op in _AUTOCOMMIT_ONLY:
            raise TransactionStateError(
                f"{op} inside an explicit sharded transaction is not "
                "supported; run it autocommit"
            )
        try:
            return handler(state, request)
        except (Tear, DeliveryUnknown) as exc:
            # DeliveryUnknown is the backstop: an unwrapped torn shard
            # exchange can never become an error reply (it would falsely
            # promise "not committed") — tear instead.
            self.stats.bump("teardowns")
            raise Tear(str(exc)) from exc

    def error_reply(self, state: _ConnState, exc: Exception) -> dict[str, Any]:
        if not isinstance(exc, ServerError):
            return super().error_reply(state, exc)
        # A shard's own judgement, passed through verbatim.
        return error_reply_from(exc)

    # ------------------------------------------------------------------
    # Shard links

    def _shard_client(self, shard: int, patient: bool = True) -> ReproClient:
        cache = getattr(self._local, "clients", None)
        if cache is None:
            cache = self._local.clients = {}
        key = (shard, patient)
        client = cache.get(key)
        if client is None:
            host, port = self.shard_addrs[shard]
            if patient:
                client = ReproClient(
                    host, port,
                    client_id=f"coord-{self.epoch}-{shard}-{threading.get_ident()}",
                    redeliveries=8, reconnect_attempts=20,
                )
            else:
                client = ReproClient(
                    host, port, connect_timeout=1.0,
                    client_id=f"coord-push-{self.epoch}-{shard}",
                    redeliveries=2, reconnect_attempts=3,
                )
            cache[key] = client
            with self._clients_mu:
                self._clients.add(client)
        return client

    def _shard_request(
        self,
        shard: int,
        op: str,
        payload: Mapping[str, Any],
        patient: bool = True,
    ) -> dict[str, Any]:
        try:
            client = self._shard_client(shard, patient)
        except OSError as exc:
            # Nothing was sent: a retryable error reply is truthful.
            raise TransientFault(f"shard {shard} is unreachable") from exc
        # Decide pushes and stats (the impatient link) route nothing new:
        # a push follows a prepare, which already went through here.
        if patient and shard not in self._provisioned:
            self._provision(shard, client)
        return client.request(op, **payload)

    def _provision(self, shard: int, client: ReproClient) -> None:
        """Have *shard* create whatever it lacks of the catalog's index
        design, before the first request routed to it.

        The op is idempotent on the shard, so threads racing here, a
        restarted coordinator and a restarted shard (whose recovery
        already rebuilt the indexes) all re-send harmlessly.  The routed
        request has not been sent yet, so a shard that cannot be reached
        is a truthful retryable error.
        """
        try:
            client.request("provision", indexes=self._index_design)
        except DeliveryUnknown as exc:
            raise TransientFault(f"shard {shard} is unreachable") from exc
        self._provisioned.add(shard)

    # ------------------------------------------------------------------
    # Exactly-once bookkeeping

    def _note_client(self, base: tuple[str, int] | None) -> None:
        if base is None:
            return
        client, req = base
        with self._client_mu:
            if req > self._client_high.get(client, 0):
                self._client_high[client] = req

    def _maybe_replay(
        self, base: tuple[str, int] | None, peek: bool = True
    ) -> dict[str, Any] | None:
        """Replay a previously-acked result for this stamp, if any.

        Consulted by every write and cascade *before* planning — a
        redelivery may re-plan differently (another witness, another
        survivor set), so re-execution must be ruled out first.  Order:
        high-water fast path (unknown after a restart ⇒ look), then the
        durable decision log by base, then (for work that may have gone
        one-phase) a scatter ``ledger_peek`` over the shard ledgers.
        """
        if base is None:
            return None
        client, req = base
        with self._client_mu:
            high = self._client_high.get(client)
        if high is not None and req > high:
            return None
        entry = self.decisions.logged_decision(base=base)
        if entry is not None:
            self.stats.bump("replays")
            self._note_client(base)
            return {**entry["result"], "replayed": True}
        if not peek:
            return None
        for shard in range(self.catalog.shards):
            try:
                response = self._shard_request(
                    shard, "ledger_peek", {"peek_client": client, "peek_req": req}
                )
            except (DeliveryUnknown, TransientFault, ServerError) as exc:
                # The peek exists because a prior attempt of this stamp
                # may have committed; while any ledger is unreachable we
                # cannot certify "not committed", so an error reply
                # (which promises exactly that, inviting a fresh-stamp
                # retry and a double apply) is off the table.  Tear and
                # let the client's same-stamp redelivery ask again.  A
                # shard's own refusal counts: the provisioning op sent
                # ahead of a first peek passes admission control.
                raise Tear(f"ledger peek on shard {shard} tore") from exc
            if response.get("hit"):
                self.stats.bump("replays")
                self._note_client(base)
                result = response.get("result") or {"ok": True, "result_lost": True}
                return dict(result)
        return None

    # ------------------------------------------------------------------
    # Two-phase commit core

    def _two_phase(
        self,
        base: tuple[str, int] | None,
        run: Callable[[_Prepare], tuple[dict[str, Any], bool]],
    ) -> dict[str, Any]:
        """The one 2PC driver.  *run* prepares its batches through the
        callable it is handed (in shard order, the global lock order) and
        returns the client's result plus whether there is anything to
        commit.  Commit: the decision is durably logged, then acked;
        decide pushes are asynchronous (participants can also pull via
        ``resolve``).  Nothing to commit, or any failure: abort."""
        with self._gtid_mu:
            self._gtid_n += 1
            gtid = f"{self.epoch}:{self._gtid_n}"
        with self._in_flight_mu:
            self._in_flight.add(gtid)
        #: shard -> the last ``seq`` sent to it.  Entered before sending:
        #: a torn prepare may have landed, and the abort push
        #: (idempotent, "forgotten" if not) covers both.
        sent: dict[int, int] = {}

        def prepare(shard: int, ops: list[dict[str, Any]]) -> list[dict[str, Any]]:
            seq = sent[shard] = sent.get(shard, -1) + 1
            response = self._shard_request(shard, "prepare", {
                "gtid": gtid, "seq": seq, "ops": ops,
                "resolve": [self.host, self.port],
            })
            return response.get("results") or []

        commit = False
        try:
            result, commit = run(prepare)
        except DeliveryUnknown as exc:
            raise TransientFault(
                f"a shard was unreachable during prepare; transaction "
                f"{gtid} aborted"
            ) from exc
        finally:
            if not commit:
                with self._in_flight_mu:
                    self._in_flight.discard(gtid)
                self._queue_decides(gtid, sent, "abort")
                self.stats.bump("aborts_2pc")
        if not commit:
            self._note_client(base)
            return result
        self.decisions.record_decision(gtid, base, result)
        return self.ack_committed(gtid, sent, base, result)

    def ack_committed(
        self,
        gtid: str,
        shards: Iterable[int],
        base: tuple[str, int] | None,
        result: dict[str, Any],
    ) -> dict[str, Any]:
        """Acknowledge a committed global transaction.  Every caller
        must have written the decision record first (lint rule RPR009
        machine-checks that pairing)."""
        with self._in_flight_mu:
            self._in_flight.discard(gtid)
        self._note_client(base)
        self._queue_decides(gtid, shards, "commit")
        self.stats.bump("commits_2pc")
        return result

    def _queue_decides(
        self, gtid: str, shards: Iterable[int], verdict: str
    ) -> None:
        with self._push_cv:
            for shard in shards:
                self._push_q.append((gtid, shard, verdict))
            self._push_cv.notify_all()

    def pending_decides(self) -> int:
        with self._push_cv:
            return len(self._push_q)

    def _push_loop(self) -> None:
        while True:
            with self._push_cv:
                while not self._push_q and not self._stopping.is_set():
                    self._push_cv.wait()
                if not self._push_q and self._stopping.is_set():
                    return
                pending = [self._push_q.popleft() for __ in range(len(self._push_q))]
            failed = [item for item in pending if not self._push_decide(*item)]
            if failed:
                with self._push_cv:
                    self._push_q.extend(failed)
                if self._stopping.is_set():
                    return
                self._stopping.wait(0.25)

    def _push_decide(self, gtid: str, shard: int, verdict: str) -> bool:
        """Push one decision; False = retry later.  A commit push is
        gated on the logged decision — pushing an unlogged commit would
        break presumed abort."""
        if verdict == "commit" and self.decisions.logged_decision(gtid) is None:
            raise TwoPhaseError(
                f"refusing to push unlogged commit decision for {gtid!r}"
            )
        try:
            if verdict == "commit":
                self.send_commit_decide(shard, gtid)
            else:
                self.send_abort_decide(shard, gtid)
        except ServerError:
            # The participant answered: a protocol-level rejection
            # (conflicting decide) will not improve with retries.
            self.stats.bump("decide_errors")
            return True
        except (DeliveryUnknown, wire.WireError, OSError):
            return False
        return True

    def send_commit_decide(self, shard: int, gtid: str) -> None:
        self._shard_request(
            shard, "decide", {"gtid": gtid, "verdict": "commit"}, patient=False
        )

    def send_abort_decide(self, shard: int, gtid: str) -> None:
        self._shard_request(
            shard, "decide", {"gtid": gtid, "verdict": "abort"}, patient=False
        )

    # ------------------------------------------------------------------
    # Routing helpers

    def _forward(
        self, shard: int, request: dict[str, Any], attempts: int = 1
    ) -> dict[str, Any]:
        """Pass a client request through untouched (keeping its stamp);
        the shard's own ledger gives it exactly-once semantics.  With
        *attempts* > 1, retryable shard errors are absorbed (same stamp:
        an error reply proved the attempt did not commit)."""
        payload = {k: v for k, v in request.items() if k != "op"}
        for attempt in range(attempts):
            try:
                response = self._shard_request(shard, request["op"], payload)
            except DeliveryUnknown as exc:
                raise Tear(f"forward to shard {shard} tore") from exc
            except ServerError as exc:
                if not exc.retryable or attempt == attempts - 1:
                    raise
                wait = exc.retry_after
                time.sleep(wait if wait is not None else 0.05 * (attempt + 1))
                continue
            self.stats.bump("forwards")
            self._note_client(stamp_of(request))
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    def _scatter_select(
        self, payload: Mapping[str, Any]
    ) -> list[tuple[int, list[Any]]]:
        """Run one ``select`` shard by shard: ``(shard, row)`` pairs in
        shard order, stopping at the payload's ``limit``.  Reads change
        nothing, so an unreachable shard is a retryable error."""
        limit = payload.get("limit")
        found: list[tuple[int, list[Any]]] = []
        for shard in range(self.catalog.shards):
            try:
                response = self._shard_request(shard, "select", payload)
            except DeliveryUnknown as exc:
                raise TransientFault(
                    f"shard {shard} is unreachable during a scatter read; retry"
                ) from exc
            found.extend((shard, row) for row in response.get("rows") or [])
            if limit is not None and len(found) >= limit:
                return found[:limit]
        return found

    def _choose_witness(
        self, fk: FkRoute, equals: Mapping[str, Any]
    ) -> tuple[int, dict[str, Any]] | None:
        """Scatter-probe a snapshot witness for a partial FK match.

        Returns ``(shard, full parent key)`` — the pin re-validates the
        exact key under its S-lock, so a stale snapshot answer aborts
        retryably rather than admitting an orphan.
        """
        columns = list(fk.parent_key)
        found = self._scatter_select({
            "table": fk.parent_table, "equals": dict(equals),
            "columns": columns, "limit": 1, "snapshot": True,
        })
        if not found:
            return None
        shard, row = found[0]
        return shard, dict(zip(columns, row))

    def _scatter_rows(
        self,
        table: str,
        equals: dict[str, Any] | None = None,
        columns: list[str] | None = None,
        limit: int | None = None,
    ) -> list[list[Any]]:
        return [row for __, row in self._scatter_select({
            "table": table, "equals": equals, "columns": columns,
            "limit": limit, "snapshot": True,
        })]

    # ------------------------------------------------------------------
    # Client ops

    def _op_ping(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "pong": True, "session_id": state.session_id}

    def _op_insert(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        row = (request["table"], list(request.get("values") or []))
        if state.in_txn:
            state.buffer.append(row)
            return {"ok": True, "rid": -1, "buffered": True}
        return self._write_ack(
            "insert", self._write_rows(stamp_of(request), [row])
        )

    def _op_batch(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        """A multi-row insert: one stamp, one atomic transaction, on one
        shard or many (see :meth:`_write_rows`)."""
        table = request["table"]
        rows_field = request.get("rows")
        if not isinstance(rows_field, list):
            raise ReproError("batch needs a 'rows' list")
        return self._write_ack("batch", self._write_rows(
            stamp_of(request), [(table, list(r)) for r in rows_field]
        ))

    def _write_rows(
        self,
        base: tuple[str, int] | None,
        rows: list[tuple[str, list[Any]]],
    ) -> dict[str, Any]:
        """The one write path: every row a client inserts — an
        autocommit ``insert`` (a transaction of one), a ``batch``, the
        buffer of a ``begin … commit`` — is planned by :meth:`_plan_rows`
        and committed here, all rows or none, under *base*'s
        exactly-once stamp: on one shard as the ledgered ``txn`` op, on
        several by 2PC.  Returns the shard's ``txn`` reply (``results``),
        the logged 2PC result (``rids``, in row order) or either of them
        replayed; :meth:`_write_ack` shapes the client's ack.
        """
        if not rows:
            self._note_client(base)
            return {"ok": True, "rids": []}
        routes = {
            table: self.catalog.route(table) for table in {t for t, __ in rows}
        }
        # Rows of a table without a foreign key route as a pure function
        # of the request and touch no shard but their own (they commit
        # with others down).  A table with one may pin a probed witness,
        # and a re-probe may pick a route the acked attempt did not take:
        # those writes also ask the shard ledgers, before planning.
        replayed = self._maybe_replay(
            base, peek=any(route.fk is not None for route in routes.values())
        )
        if replayed is not None:
            return replayed
        plan, slots = self._plan_rows(rows, routes)
        if len(plan) == 1:
            ((shard, ops),) = plan.items()
            payload: dict[str, Any] = {"ops": ops}
            if base is not None:
                payload["client"], payload["req"] = base
            try:
                response = self._shard_request(shard, "txn", payload)
            except DeliveryUnknown as exc:
                raise Tear(f"one-phase txn on shard {shard} tore") from exc
            self.stats.bump("one_phase")
            self._note_client(base)
            return response

        def run(prepare: _Prepare) -> tuple[dict[str, Any], bool]:
            rids = [-1] * len(rows)
            for shard, ops in plan.items():
                results = prepare(shard, ops)
                filled = slots.get(shard, [])
                for item, indices in zip(results[len(ops) - len(filled):], filled):
                    for i, rid in zip(indices, item.get("rids") or [item["rid"]]):
                        rids[i] = rid
            return {"ok": True, "rids": rids}, True

        return self._two_phase(base, run)

    def _plan_rows(
        self,
        rows: list[tuple[str, list[Any]]],
        routes: Mapping[str, TableRoute],
    ) -> tuple[dict[int, list[dict[str, Any]]], dict[int, list[list[int]]]]:
        """The one planner: *rows* as ops per shard, in shard order (the
        global lock order), plus per shard the row indices each of its
        row ops carries.

        Per shard the witness pins come first (one per distinct
        predicate; a pin queues behind a cascade's parent X-lock before
        the transaction locks anything that cascade wants), then per
        table one ``insert`` op for a single row or one vectorized
        ``batch`` op for several.  A partially referencing row scatter-
        probes its witness, which may live on another shard than its home.
        """
        pins: dict[int, list[dict[str, Any]]] = {}
        slots: dict[int, dict[str, list[int]]] = {}
        witnessed: set[tuple[Any, ...]] = set()
        own: dict[str, list[dict[str, Any]]] = {}
        for i, (table, values) in enumerate(rows):
            row = routes[table].row_mapping(values)
            home = self.catalog.shard_for(table, row)
            slots.setdefault(home, {}).setdefault(table, []).append(i)
            fk = routes[table].fk
            equals = fk.parent_equals(row) if fk is not None else {}
            predicate = (fk.parent_table, *sorted(equals.items())) if fk else ()
            # No pin for an all-NULL (or absent) FK, for a predicate
            # already pinned, or for a witness this transaction inserted
            # earlier (its X-lock holds that key until the same commit).
            if equals and predicate not in witnessed and not any(
                all(parent[column] == value for column, value in equals.items())
                for parent in own.get(fk.parent_table, ())
            ):
                witnessed.add(predicate)
                pin = {"op": "pin", "table": fk.parent_table, "equals": equals}
                wshard = home
                # Fully referencing ⇒ co-located with the witness by
                # construction (both sides hash the same value tuple);
                # otherwise the witness is wherever a probe finds one.
                if len(equals) < len(fk.parent_key):
                    witness = self._choose_witness(fk, equals)
                    if witness is None:
                        raise ReferentialIntegrityViolation(
                            f"no row of {fk.parent_table!r} matches "
                            f"{equals!r}; insert into {table!r} vetoed"
                        )
                    wshard, pin["equals"] = witness
                    pin["probed"] = True
                pins.setdefault(wshard, []).append(pin)
            own.setdefault(table, []).append(row)
        plan: dict[int, list[dict[str, Any]]] = {}
        for shard in sorted({*pins, *slots}):
            plan[shard] = ops = pins.get(shard, [])
            for table, indices in slots.get(shard, {}).items():
                if len(indices) == 1:
                    ops.append({"op": "insert", "table": table,
                                "values": rows[indices[0]][1]})
                else:
                    ops.append({"op": "batch", "table": table,
                                "rows": [rows[i][1] for i in indices]})
        return plan, {s: list(by_table.values()) for s, by_table in slots.items()}

    @staticmethod
    def _write_ack(op: str, outcome: dict[str, Any]) -> dict[str, Any]:
        """Shape :meth:`_write_rows`'s outcome — fresh or replayed, from
        a shard ledger or the decision log — as the client's ack for
        *op*: ``rid``, ``rids`` (row order) or a bare commit ack."""
        rids = outcome.get("rids")
        if rids is None:
            rids = []
            for item in outcome.get("results") or []:
                if item.get("op") == "insert":
                    rids.append(item["rid"])
                elif item.get("op") == "batch":
                    rids.extend(item["rids"])
        ack: dict[str, Any] = {"ok": True}
        if op == "insert":
            ack["rid"] = rids[0] if rids else -1
        elif op == "batch":
            ack["rids"] = list(rids)
            ack["rowcount"] = len(rids)
        for flag in ("replayed", "result_lost"):
            if outcome.get(flag):
                ack[flag] = True
        return ack

    def _by_partition_key(
        self,
        request: dict[str, Any],
        scatter: Callable[[dict[str, Any]], dict[str, Any]],
    ) -> dict[str, Any]:
        """A select/delete/update naming the full partition key goes to
        the one shard that can hold its rows; anything else to *scatter*."""
        table = request["table"]
        equals = request.get("equals") or {}
        if all(column in equals for column in self.catalog.route(table).partition):
            return self._forward(self.catalog.shard_for(table, equals), request)
        return scatter(request)

    def _op_delete(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        table = request["table"]
        if self.catalog.is_parent(table):
            return self._cascade_delete(
                stamp_of(request), table, request.get("equals") or {}
            )
        return self._by_partition_key(request, self._scatter_mutation)

    def _op_update(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        table = request["table"]
        route = self.catalog.route(table)
        guarded = set(route.partition) | set(
            route.fk.child_columns if route.fk else ()
        )
        touched = guarded & set(request.get("assignments") or {})
        if touched:
            raise ReproError(
                f"updating partition/FK columns {sorted(touched)} of "
                f"{table!r} through the coordinator is not supported"
            )
        return self._by_partition_key(request, self._scatter_mutation)

    def _scatter_mutation(self, request: dict[str, Any]) -> dict[str, Any]:
        """Run a stamped mutation on every shard.  Each shard ledgers
        the same stamp independently, so a redelivered scatter replays
        per shard.  After the first shard succeeds, any failure tears
        the connection — partial scatter state must not be mistaken for
        "did not commit"."""
        total = 0
        for shard in range(self.catalog.shards):
            try:
                response = self._forward(shard, request, _SCATTER_ATTEMPTS)
            except (ServerError, TransientFault):
                if shard:
                    raise Tear(
                        f"scatter failed on shard {shard} after "
                        f"{shard} shard(s) committed"
                    ) from None
                raise
            total += int(response.get("rowcount") or 0)
        self.stats.bump("scatters")
        return {"ok": True, "rowcount": total}

    def _op_select(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        def scatter(request: dict[str, Any]) -> dict[str, Any]:
            payload = {k: v for k, v in request.items() if k != "op"}
            rows = [row for __, row in self._scatter_select(payload)]
            return {"ok": True, "rows": rows}

        return self._by_partition_key(request, scatter)

    # ------------------------------------------------------------------
    # Explicit transactions (buffered, planned at commit)

    def _op_begin(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        if state.in_txn:
            raise TransactionStateError("transaction already open")
        state.in_txn = True
        state.buffer = []
        state.txn_id += 1
        return {"ok": True, "txn_id": state.txn_id}

    def _op_rollback(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        state.in_txn = False
        state.buffer = []
        return {"ok": True}

    def _op_commit(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        base = stamp_of(request)
        if not state.in_txn:
            # A redelivered commit lands on a fresh connection; the
            # decision log / shard ledgers say whether the original
            # committed before the cut.
            replayed = self._maybe_replay(base)
            if replayed is not None:
                return {"ok": True, "replayed": True}
            raise TransactionStateError("no transaction to commit")
        rows, state.buffer = state.buffer, []
        state.in_txn = False
        return self._write_ack("commit", self._write_rows(base, rows))

    # ------------------------------------------------------------------
    # Cascaded SET NULL (parent delete)

    @contextmanager
    def _pattern_locks(self, keys: set[str]) -> Iterator[None]:
        """All-or-nothing acquisition in sorted order: deadlock-free."""
        ordered = sorted(keys)
        with self._pattern_cv:
            while any(key in self._pattern_held for key in ordered):
                self._pattern_cv.wait()
            self._pattern_held.update(ordered)
        try:
            yield
        finally:
            with self._pattern_cv:
                self._pattern_held.difference_update(ordered)
                self._pattern_cv.notify_all()

    def _cascade_delete(
        self,
        base: tuple[str, int] | None,
        table: str,
        equals: dict[str, Any],
    ) -> dict[str, Any]:
        route = self.catalog.route(table)
        children = self.catalog.children_of(table)
        missing = set(route.partition) - set(equals)
        if missing:
            raise ReproError(
                f"parent delete must name the full partition key of "
                f"{table!r}; missing {sorted(missing)}"
            )
        extra = set(equals) - set(route.partition)
        if extra:
            raise ReproError(
                f"parent delete supports only the exact key predicate; "
                f"unexpected columns {sorted(extra)}"
            )
        for __, fk in children:
            if len(fk.parent_key) > 2:
                raise ReproError(
                    "cascaded SET NULL through the coordinator supports "
                    "FK keys of at most 2 columns"
                )
        replayed = self._maybe_replay(base, peek=False)
        if replayed is not None:
            return replayed
        if time.monotonic() < self._grace_until:
            raise Overloaded(
                "cascades are settling after a coordinator restart; retry",
                retry_after=0.5,
            )
        key = {column: equals[column] for column in route.partition}
        lock_keys = {f"{table}|" + "|".join(f"{c}={key[c]!r}" for c in route.partition)}
        for child, fk in children:
            for pcol in fk.parent_key:
                lock_keys.add(f"{child}|{pcol}={key[pcol]!r}")
        with self._pattern_locks(lock_keys):
            return self._cascade_locked(base, table, key, children)

    def _cascade_locked(
        self,
        base: tuple[str, int] | None,
        table: str,
        key: dict[str, Any],
        children: list[tuple[str, FkRoute]],
    ) -> dict[str, Any]:
        self.stats.bump("cascades")
        pshard = self.catalog.shard_for(table, key)
        parent_ops: list[dict[str, Any]] = [
            {"op": "delete", "table": table, "equals": dict(key)},
        ]
        for child, fk in children:
            if not fk.set_null:
                continue
            full_match = {
                c: key[p] for c, p in zip(fk.child_columns, fk.parent_key)
            }
            parent_ops.append({
                "op": "update", "table": child,
                "assignments": {c: None for c in fk.child_columns},
                "equals": full_match,
            })

        def run(prepare: _Prepare) -> tuple[dict[str, Any], bool]:
            rowcount = int(prepare(pshard, parent_ops)[0].get("rowcount") or 0)
            # Zero: someone else already deleted it; nothing cascades.
            patterns = (
                self._plan_pattern_updates(table, key, children) if rowcount else {}
            )
            for shard in sorted(patterns):
                prepare(shard, patterns[shard])
            return {"ok": True, "rowcount": rowcount}, rowcount > 0

        return self._two_phase(base, run)

    def _plan_pattern_updates(
        self,
        table: str,
        key: dict[str, Any],
        children: list[tuple[str, FkRoute]],
    ) -> dict[int, list[dict[str, Any]]]:
        """NULL-out batches for single-column MATCH PARTIAL patterns
        that the deleted parent was the last witness of."""
        batches: dict[int, list[dict[str, Any]]] = {}
        for child, fk in children:
            if not fk.set_null or len(fk.parent_key) < 2:
                continue
            for pos, pcol in enumerate(fk.parent_key):
                if self._surviving_parent(table, pcol, key[pcol], key):
                    continue
                ccol = fk.child_columns[pos]
                others = [
                    fk.child_columns[i]
                    for i in range(len(fk.parent_key))
                    if i != pos
                ]
                pattern = {ccol: key[pcol], **{c: None for c in others}}
                shard = self.catalog.shard_for(child, pattern)
                batches.setdefault(shard, []).append({
                    "op": "update", "table": child,
                    "assignments": {ccol: None},
                    "equals": dict(pattern),
                })
        return batches

    def _surviving_parent(
        self, table: str, column: str, value: Any, exclude: dict[str, Any]
    ) -> bool:
        """Does any parent other than *exclude* still witness
        ``column = value``?  Snapshot reads do not see our own prepared
        delete, so the deleted key shows up and is excluded by value."""
        route = self.catalog.route(table)
        rows = self._scatter_rows(
            table, equals={column: value},
            columns=list(route.partition), limit=2,
        )
        gone = tuple(exclude[c] for c in route.partition)
        return any(tuple(row) != gone for row in rows)

    # ------------------------------------------------------------------
    # Introspection ops

    def _op_resolve(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        gtid = request.get("gtid")
        if not isinstance(gtid, str):
            raise ReproError("resolve needs a 'gtid' string")
        if self.decisions.logged_decision(gtid) is not None:
            verdict = "commit"
        else:
            with self._in_flight_mu:
                in_flight = gtid in self._in_flight
            # Presumed abort: unlogged and not in flight (including any
            # gtid of a previous epoch) aborts.
            verdict = "pending" if in_flight else "abort"
        return {"ok": True, "verdict": verdict}

    def _op_verify(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        clean = True
        problems = 0
        reports: list[str] = []
        for shard in range(self.catalog.shards):
            try:
                response = self._shard_request(shard, "verify", {})
            except DeliveryUnknown as exc:
                raise TransientFault(
                    f"shard {shard} is unreachable during verify"
                ) from exc
            clean = clean and bool(response.get("clean"))
            problems += int(response.get("problem_count") or 0)
            reports.append(f"[shard {shard}] {response.get('report', '')}")
        orphans: list[dict[str, Any]] = []
        if request.get("deep"):
            # Cross-shard orphan scan; only meaningful on a quiescent
            # system (scatter snapshots are per-shard, not global).
            orphans = self._find_orphans()
            if orphans:
                clean = False
                problems += len(orphans)
                reports.append(f"[cross-shard] {len(orphans)} orphan(s): "
                               f"{orphans[:5]}")
        return {
            "ok": True,
            "clean": clean,
            "problem_count": problems,
            "report": "\n".join(reports),
            "orphans": orphans,
            "shards": self.catalog.shards,
        }

    def _find_orphans(self) -> list[dict[str, Any]]:
        """MATCH PARTIAL across shards: every child row with at least
        one non-NULL FK component needs a parent agreeing on exactly
        those components."""
        orphans: list[dict[str, Any]] = []
        for entry in self.catalog.tables.values():
            fk = entry.fk
            if fk is None:
                continue
            parents = self._scatter_rows(
                fk.parent_table, columns=list(fk.parent_key)
            )
            child_rows = self._scatter_rows(entry.name)
            index = {column: i for i, column in enumerate(entry.columns)}
            id_i = index[entry.id_column or entry.columns[0]]
            keys = [
                [row[index[column]] for column in fk.child_columns]
                for row in child_rows
            ]
            for position in partial_orphans(parents, keys):
                orphans.append({
                    "table": entry.name,
                    "id": child_rows[position][id_i],
                    "fk": {
                        column: value
                        for column, value in zip(fk.child_columns, keys[position])
                        if value is not None
                    },
                })
        return orphans

    def _op_stats(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        shards: list[dict[str, Any]] = []
        for shard in range(self.catalog.shards):
            try:
                response = self._shard_request(shard, "stats", {}, patient=False)
            except (DeliveryUnknown, TransientFault, ServerError,
                    wire.WireError, OSError) as exc:
                shards.append({"unreachable": str(exc)})
                continue
            shards.append({k: v for k, v in response.items() if k != "ok"})
        with self._in_flight_mu:
            in_flight = len(self._in_flight)
        return {
            "ok": True,
            "coordinator": {
                **self.stats.snapshot(),
                "epoch": self.epoch,
                "in_flight": in_flight,
                "pending_decides": self.pending_decides(),
                "decisions_logged": len(self.decisions),
            },
            "shards": shards,
        }
