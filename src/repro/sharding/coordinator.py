"""The shard coordinator: router, witness prober and 2PC commit point.

One coordinator process fronts N :class:`~repro.server.server.ReproServer`
shards (DESIGN.md §5i).  It speaks the same length-prefixed JSON protocol
as the shards, so the existing :class:`~repro.server.client.ReproClient`
(with its exactly-once stamps) talks to a sharded deployment unchanged.

Routing (:mod:`repro.sharding.catalog`): tables hash-partition on their
FK-prefix, so a child row whose FK components are all non-NULL co-locates
with its witness parent and commits **one-phase** — a single ``txn`` op
(witness pin + insert) on the home shard, ledgered under the client's own
stamp.  Only a MATCH PARTIAL child row with NULL components may find its
witness on a foreign shard: the coordinator scatter-probes a snapshot
witness, then runs **presumed-abort two-phase commit** — PREPARE the pin
on the witness shard and the insert on the home shard (each durably
logged by the participant before it votes), write the COMMIT decision to
the coordinator's own :class:`DecisionLog` segment store, and only then
acknowledge the client and push the decides.

Presumed abort means only COMMIT decisions are logged.  ``resolve``
answers a participant asking about an in-doubt transaction: a logged
decision is ``commit``; a transaction still being prepared is
``pending``; anything else — including every gtid of a previous
coordinator incarnation (gtids carry an epoch) — is ``abort``.

Exactly-once across the extra hop: deterministic routes (plain forwards,
co-located ``txn`` ops) redeliver under the client's original stamp and
replay from the shard's result ledger.  Non-deterministic routes (2PC,
cascades — a re-probe may pick a different witness shard) replay from the
decision log by ``(client, req)`` base, falling back to a scatter
``ledger_peek`` for acks that committed one-phase before a coordinator
crash.  When the coordinator cannot rule out that a forwarded stamp
committed (partial scatter, torn shard link), it **tears the client
connection instead of answering** — an error reply would falsely promise
"not committed".

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
from collections.abc import Callable, Iterator, Mapping, Sequence
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
from ..server.client import DeliveryUnknown, ReproClient, ServerError
from ..server.core import Overloaded, Tear, WireServer, stamp_of
from .catalog import FkRoute, ShardCatalog
from .twophase import TwoPhaseError

#: A stalled reply send disconnects the reader instead of pinning us.
_SEND_TIMEOUT = 10.0

#: Per-shard retries of a retryable error inside one scatter pass.
_SCATTER_ATTEMPTS = 4

#: Pause after a restart before new cascades may probe patterns, so
#: pre-crash in-doubt cascades resolve first (see module docstring).
DEFAULT_CASCADE_GRACE = 2.0


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
    buffer: list[dict[str, Any]] = field(default_factory=list)


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
        self._clients: list[ReproClient] = []
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
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()
        self.decisions.close()

    def open_connection(self, conn_id: int) -> _ConnState:
        return _ConnState(session_id=conn_id)

    def handle(
        self, state: _ConnState, request: dict[str, Any]
    ) -> dict[str, Any]:
        try:
            return self._dispatch(state, request)
        except (Tear, DeliveryUnknown) as exc:
            # DeliveryUnknown is the backstop: an unwrapped torn shard
            # exchange can never become an error reply (it would falsely
            # promise "not committed") — tear instead.
            self.stats.bump("teardowns")
            raise Tear(str(exc)) from exc

    def _dispatch(
        self, state: _ConnState, request: dict[str, Any]
    ) -> dict[str, Any]:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None or not isinstance(op, str) or op.startswith("_"):
            raise ReproError(f"unknown coordinator op {op!r}")
        return handler(state, request)

    def error_reply(self, state: _ConnState, exc: Exception) -> dict[str, Any]:
        if not isinstance(exc, ServerError):
            return super().error_reply(state, exc)
        # A shard's own judgement, passed through verbatim.
        response: dict[str, Any] = {
            "ok": False,
            "error": str(exc),
            "error_type": exc.error_type,
            "retryable": exc.retryable,
            "rolled_back": exc.rolled_back,
        }
        if exc.retry_after is not None:
            response["retry_after"] = exc.retry_after
        return response

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
                self._clients.append(client)
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

    _base_of = staticmethod(stamp_of)

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

        Consulted only by non-deterministically-routed requests (2PC,
        cascades, commit) — a redelivery there may re-plan differently,
        so re-execution must be ruled out *before* planning.  Order:
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

    def _next_gtid(self) -> str:
        with self._gtid_mu:
            self._gtid_n += 1
            return f"{self.epoch}:{self._gtid_n}"

    def _prepare(
        self, gtid: str, shard: int, ops: list[dict[str, Any]], seq: int = 0
    ) -> list[dict[str, Any]]:
        response = self._shard_request(shard, "prepare", {
            "gtid": gtid, "seq": seq, "ops": ops,
            "resolve": [self.host, self.port],
        })
        return response.get("results") or []

    def _two_phase(
        self,
        base: tuple[str, int] | None,
        batches: dict[int, list[dict[str, Any]]],
        make_result: Callable[[dict[int, list[dict[str, Any]]]], dict[str, Any]],
    ) -> dict[str, Any]:
        """PREPARE every batch (shard order = global lock order), then
        durably log the commit decision and ack.  Decide pushes are
        asynchronous; participants can also pull via ``resolve``."""
        gtid = self._next_gtid()
        with self._in_flight_mu:
            self._in_flight.add(gtid)
        shards = sorted(batches)
        results: dict[int, list[dict[str, Any]]] = {}
        try:
            for shard in shards:
                results[shard] = self._prepare(gtid, shard, batches[shard])
        except DeliveryUnknown as exc:
            # The torn shard may or may not hold a prepare; the abort
            # push (idempotent, "forgotten" if not) covers both.
            self._abort_two_phase(gtid, shards)
            raise TransientFault(
                f"a shard was unreachable during prepare; transaction "
                f"{gtid} aborted"
            ) from exc
        except BaseException:
            self._abort_two_phase(gtid, shards)
            raise
        result = make_result(results)
        self.decisions.record_decision(gtid, base, result)
        return self.ack_committed(gtid, shards, base, result)

    def ack_committed(
        self,
        gtid: str,
        shards: Sequence[int],
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

    def _abort_two_phase(self, gtid: str, shards: Sequence[int]) -> None:
        with self._in_flight_mu:
            self._in_flight.discard(gtid)
        self._queue_decides(gtid, shards, "abort")
        self.stats.bump("aborts_2pc")

    def _queue_decides(
        self, gtid: str, shards: Sequence[int], verdict: str
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

    def _forward(self, shard: int, request: dict[str, Any]) -> dict[str, Any]:
        """Pass a client request through untouched (keeping its stamp);
        the shard's own ledger gives it exactly-once semantics."""
        payload = {k: v for k, v in request.items() if k != "op"}
        try:
            response = self._shard_request(shard, request["op"], payload)
        except DeliveryUnknown as exc:
            raise Tear(f"forward to shard {shard} tore") from exc
        self.stats.bump("forwards")
        self._note_client(self._base_of(request))
        return response

    def _forward_with_retry(
        self, shard: int, request: dict[str, Any]
    ) -> dict[str, Any]:
        """Forward, absorbing retryable shard errors (same stamp: an
        error reply proved the attempt did not commit)."""
        payload = {k: v for k, v in request.items() if k != "op"}
        for attempt in range(_SCATTER_ATTEMPTS):
            try:
                return self._shard_request(shard, request["op"], payload)
            except ServerError as exc:
                if not exc.retryable or attempt == _SCATTER_ATTEMPTS - 1:
                    raise
                wait = exc.retry_after
                time.sleep(wait if wait is not None else 0.05 * (attempt + 1))
        raise AssertionError("unreachable")  # pragma: no cover

    def _one_phase(
        self,
        shard: int,
        base: tuple[str, int] | None,
        ops: list[dict[str, Any]],
    ) -> dict[str, Any]:
        """Run *ops* as one ledgered ``txn`` op on a single shard."""
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
        if state.in_txn:
            state.buffer.append(dict(request))
            return {"ok": True, "rid": -1, "buffered": True}
        return self._insert_routed(
            self._base_of(request), request["table"],
            list(request.get("values") or []),
        )

    def _insert_routed(
        self,
        base: tuple[str, int] | None,
        table: str,
        values: list[Any],
    ) -> dict[str, Any]:
        """Route one autocommit insert: forward, one-phase pin+insert on
        the witness's shard, or 2PC — under *base*'s exactly-once stamp."""
        request: dict[str, Any] = {"op": "insert", "table": table,
                                   "values": list(values)}
        if base is not None:
            request["client"], request["req"] = base
        route = self.catalog.route(table)
        row = route.row_mapping(values)
        fk = route.fk
        home = self.catalog.shard_for(table, row)
        if fk is None:
            return self._forward(home, request)
        witness_equals = fk.parent_equals(row)
        if not witness_equals:
            # Every FK component NULL: MATCH SIMPLE/PARTIAL admit it
            # witness-free; the shard enforces its local constraints.
            return self._forward(home, request)
        replayed = self._maybe_replay(base)
        if replayed is not None:
            return self._insert_ack(replayed)
        insert_op = {"op": "insert", "table": table, "values": list(values)}
        if len(witness_equals) == len(fk.parent_key):
            # Fully referencing ⇒ co-located with the witness by
            # construction (both sides hash the same value tuple).
            pin = {"op": "pin", "table": fk.parent_table, "equals": witness_equals}
            return self._insert_ack(self._one_phase(home, base, [pin, insert_op]))
        witness = self._choose_witness(fk, witness_equals)
        if witness is None:
            raise ReferentialIntegrityViolation(
                f"no row of {fk.parent_table!r} matches {witness_equals!r}; "
                f"insert into {table!r} vetoed"
            )
        wshard, wkey = witness
        pin = {"op": "pin", "table": fk.parent_table, "equals": wkey,
               "probed": True}
        if wshard == home:
            return self._insert_ack(self._one_phase(home, base, [pin, insert_op]))
        return self._two_phase(
            base,
            {wshard: [pin], home: [insert_op]},
            lambda results: self._insert_ack({"ok": True, "results": results[home]}),
        )

    @staticmethod
    def _insert_ack(response: dict[str, Any]) -> dict[str, Any]:
        """Normalise a txn/2PC/replayed result to the client's insert
        ack shape (``rid``)."""
        if "rid" in response:
            return response
        out: dict[str, Any] = {"ok": True, "rid": -1}
        for item in response.get("results") or []:
            if isinstance(item, dict) and item.get("op") == "insert":
                out["rid"] = item["rid"]
                break
        else:
            if response.get("result_lost"):
                out["result_lost"] = True
        if response.get("replayed"):
            out["replayed"] = True
        return out

    def _op_batch(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        """Route a multi-row insert batch.

        Co-located batches — every row homes on one shard and none is
        *partially* referencing (those need a scatter witness probe and
        possibly a foreign-shard pin) — ship as a single ledgered ``txn``
        op: one pin per distinct witness key, then one vectorized
        ``batch`` op, all under the client's own stamp.  Anything else
        falls back to per-row routing under **derived stamps**
        ``(client#b<req>, i+1)``: a redelivered batch replays each row
        from the shard ledgers / decision log, so rows committed before
        a tear are never applied twice.
        """
        table = request["table"]
        rows_field = request.get("rows")
        if not isinstance(rows_field, list):
            raise ReproError("batch needs a 'rows' list")
        if state.in_txn:
            raise TransactionStateError(
                "batch inside an explicit sharded transaction is not "
                "supported; run it autocommit"
            )
        base = self._base_of(request)
        if not rows_field:
            self._note_client(base)
            return {"ok": True, "rids": [], "rowcount": 0}
        route = self.catalog.route(table)
        fk = route.fk
        homes: set[int] = set()
        pins: list[dict[str, Any]] = []
        seen_pins: set[tuple[tuple[str, Any], ...]] = set()
        colocated = True
        for values in rows_field:
            row = route.row_mapping(values)
            homes.add(self.catalog.shard_for(table, row))
            if fk is None:
                continue
            witness_equals = fk.parent_equals(row)
            if not witness_equals:
                continue
            if len(witness_equals) < len(fk.parent_key):
                colocated = False
                continue
            pin_key = tuple(sorted(witness_equals.items()))
            if pin_key not in seen_pins:
                seen_pins.add(pin_key)
                pins.append({"op": "pin", "table": fk.parent_table,
                             "equals": witness_equals})
        if colocated and len(homes) == 1:
            replayed = self._maybe_replay(base)
            if replayed is not None:
                return self._batch_ack(replayed)
            batch_op = {"op": "batch", "table": table,
                        "rows": [list(r) for r in rows_field]}
            (home,) = homes
            return self._batch_ack(
                self._one_phase(home, base, [*pins, batch_op])
            )
        return self._batch_per_row(base, table, rows_field)

    @staticmethod
    def _batch_ack(response: dict[str, Any]) -> dict[str, Any]:
        """Normalise a txn/replayed result to the client's batch ack
        shape (``rids``)."""
        if "rids" in response:
            return response
        out: dict[str, Any] = {"ok": True, "rids": [], "rowcount": 0}
        for item in response.get("results") or []:
            if isinstance(item, dict) and item.get("op") == "batch":
                out["rids"] = list(item["rids"])
                out["rowcount"] = len(out["rids"])
                break
        else:
            if response.get("result_lost"):
                out["result_lost"] = True
        if response.get("replayed"):
            out["replayed"] = True
        return out

    def _batch_per_row(
        self,
        base: tuple[str, int] | None,
        table: str,
        rows: list[Any],
    ) -> dict[str, Any]:
        """Cross-shard fallback: one routed insert per row.

        Each row gets a deterministic derived stamp, so the whole batch
        is replayable row-by-row.  A failure after the first committed
        row tears the connection — an error reply would falsely promise
        "nothing committed" for a batch that partially did."""
        rids: list[int] = []
        for i, values in enumerate(rows):
            derived = (
                (f"{base[0]}#b{base[1]}", i + 1) if base is not None else None
            )
            try:
                response = self._insert_routed(derived, table, list(values))
            except (Tear, DeliveryUnknown):
                raise
            except Exception:
                if rids:
                    raise Tear(
                        f"batch row {i} failed after {len(rids)} row(s) "
                        "committed"
                    ) from None
                raise
            rids.append(int(response.get("rid", -1)))
        self._note_client(base)
        return {"ok": True, "rids": rids, "rowcount": len(rids)}

    def _op_delete(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        if state.in_txn:
            raise TransactionStateError(
                "delete inside an explicit sharded transaction is not "
                "supported; run it autocommit"
            )
        table = request["table"]
        equals = request.get("equals") or {}
        base = self._base_of(request)
        if self.catalog.is_parent(table):
            return self._cascade_delete(base, table, equals)
        route = self.catalog.route(table)
        if all(column in equals for column in route.partition):
            return self._forward(self.catalog.shard_for(table, equals), request)
        return self._scatter_mutation(base, request)

    def _op_update(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        if state.in_txn:
            raise TransactionStateError(
                "update inside an explicit sharded transaction is not "
                "supported; run it autocommit"
            )
        table = request["table"]
        route = self.catalog.route(table)
        assignments = request.get("assignments") or {}
        guarded = set(route.partition) | set(
            route.fk.child_columns if route.fk else ()
        )
        touched = guarded & set(assignments)
        if touched:
            raise ReproError(
                f"updating partition/FK columns {sorted(touched)} of "
                f"{table!r} through the coordinator is not supported"
            )
        equals = request.get("equals") or {}
        base = self._base_of(request)
        if all(column in equals for column in route.partition):
            return self._forward(self.catalog.shard_for(table, equals), request)
        return self._scatter_mutation(base, request)

    def _scatter_mutation(
        self, base: tuple[str, int] | None, request: dict[str, Any]
    ) -> dict[str, Any]:
        """Run a stamped mutation on every shard.  Each shard ledgers
        the same stamp independently, so a redelivered scatter replays
        per shard.  After the first shard succeeds, any failure tears
        the connection — partial scatter state must not be mistaken for
        "did not commit"."""
        total = 0
        succeeded = 0
        for shard in range(self.catalog.shards):
            try:
                response = self._forward_with_retry(shard, request)
            except DeliveryUnknown as exc:
                raise Tear(f"scatter to shard {shard} tore") from exc
            except (ServerError, TransientFault):
                if succeeded:
                    raise Tear(
                        f"scatter failed on shard {shard} after "
                        f"{succeeded} shard(s) committed"
                    ) from None
                raise
            total += int(response.get("rowcount") or 0)
            succeeded += 1
        self.stats.bump("scatters")
        self._note_client(base)
        return {"ok": True, "rowcount": total}

    def _op_select(self, state: _ConnState, request: dict[str, Any]) -> dict[str, Any]:
        table = request["table"]
        equals = request.get("equals") or {}
        route = self.catalog.route(table)
        if all(column in equals for column in route.partition):
            return self._forward(self.catalog.shard_for(table, equals), request)
        payload = {k: v for k, v in request.items() if k != "op"}
        return {
            "ok": True,
            "rows": [row for __, row in self._scatter_select(payload)],
        }

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
        base = self._base_of(request)
        if not state.in_txn:
            # A redelivered commit lands on a fresh connection; the
            # decision log / shard ledgers say whether the original
            # committed before the cut.
            replayed = self._maybe_replay(base)
            if replayed is not None:
                return {"ok": True, "replayed": True}
            raise TransactionStateError("no transaction to commit")
        buffered, state.buffer = state.buffer, []
        state.in_txn = False
        if not buffered:
            self._note_client(base)
            return {"ok": True}
        batches: dict[int, list[dict[str, Any]]] = {}
        for buffered_request in buffered:
            self._plan_buffered_insert(buffered_request, batches)
        if len(batches) == 1:
            ((shard, ops),) = batches.items()
            self._one_phase(shard, base, ops)
            return {"ok": True}
        self._two_phase(base, batches, lambda results: {"ok": True})
        return {"ok": True}

    def _plan_buffered_insert(
        self,
        request: dict[str, Any],
        batches: dict[int, list[dict[str, Any]]],
    ) -> None:
        table = request["table"]
        values = request.get("values") or []
        route = self.catalog.route(table)
        row = route.row_mapping(values)
        fk = route.fk
        home = self.catalog.shard_for(table, row)
        insert_op = {"op": "insert", "table": table, "values": list(values)}
        if fk is None:
            batches.setdefault(home, []).append(insert_op)
            return
        witness_equals = fk.parent_equals(row)
        if not witness_equals:
            batches.setdefault(home, []).append(insert_op)
            return
        if len(witness_equals) == len(fk.parent_key):
            pin = {"op": "pin", "table": fk.parent_table, "equals": witness_equals}
            batches.setdefault(home, []).extend([pin, insert_op])
            return
        witness = self._choose_witness(fk, witness_equals)
        if witness is None:
            raise ReferentialIntegrityViolation(
                f"no row of {fk.parent_table!r} matches {witness_equals!r}; "
                f"transaction vetoed"
            )
        wshard, wkey = witness
        pin = {"op": "pin", "table": fk.parent_table, "equals": wkey,
               "probed": True}
        batches.setdefault(wshard, []).append(pin)
        batches.setdefault(home, []).append(insert_op)

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
        gtid = self._next_gtid()
        with self._in_flight_mu:
            self._in_flight.add(gtid)
        prepared: list[int] = [pshard]
        try:
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
            results = self._prepare(gtid, pshard, parent_ops, seq=0)
            rowcount = int(results[0].get("rowcount") or 0)
            if rowcount == 0:
                # Someone else already deleted it; nothing cascades.
                self._abort_two_phase(gtid, prepared)
                self._note_client(base)
                return {"ok": True, "rowcount": 0}
            pattern_batches = self._plan_pattern_updates(table, key, children)
            for shard in sorted(pattern_batches):
                seq = 1 if shard == pshard else 0
                self._prepare(gtid, shard, pattern_batches[shard], seq=seq)
                if shard not in prepared:
                    prepared.append(shard)
        except DeliveryUnknown as exc:
            self._abort_two_phase(gtid, prepared)
            raise TransientFault(
                f"a shard was unreachable during the cascade; transaction "
                f"{gtid} aborted"
            ) from exc
        except BaseException:
            self._abort_two_phase(gtid, prepared)
            raise
        result = {"ok": True, "rowcount": rowcount}
        self.decisions.record_decision(gtid, base, result)
        return self.ack_committed(gtid, prepared, base, result)

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
            parent_rows = self._scatter_rows(
                fk.parent_table, columns=list(fk.parent_key)
            )
            parents = [tuple(row) for row in parent_rows]
            child_rows = self._scatter_rows(entry.name)
            index = {column: i for i, column in enumerate(entry.columns)}
            id_i = index[entry.id_column or entry.columns[0]]
            for row in child_rows:
                components = [
                    (pos, row[index[ccol]])
                    for pos, ccol in enumerate(fk.child_columns)
                    if row[index[ccol]] is not None
                ]
                if not components:
                    continue
                if any(
                    all(parent[pos] == value for pos, value in components)
                    for parent in parents
                ):
                    continue
                orphans.append({
                    "table": entry.name,
                    "id": row[id_i],
                    "fk": {
                        fk.child_columns[pos]: value
                        for pos, value in components
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
