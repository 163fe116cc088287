"""Client library for the repro wire server.

Speaks the length-prefixed JSON protocol of :mod:`repro.server.wire`;
SQL NULL is plain ``None`` on this side of the wire::

    from repro.server import ReproClient

    with ReproClient("127.0.0.1", port) as client:
        client.execute("BEGIN")
        client.insert("booking", [1001, "BRT", None, "Nov 21"])
        client.execute("COMMIT")

**Exactly-once mutations.**  Every mutating request is stamped with this
client's ``client_id`` and a monotonic ``request_id``.  When a send or a
reply tears (server killed, proxy dropped the frame), the outcome of
that exchange is *unknown*, so the client reconnects — patiently, to
ride out a server restart — and re-sends the **same** stamped message;
the server's result ledger replays the original acknowledgement if the
first attempt committed, and executes normally if it never arrived.
Only when every redelivery fails does :class:`DeliveryUnknown` surface,
and it is never retried under a fresh stamp.

Server-side failures surface as :class:`ServerError`; its ``retryable``
flag mirrors the server's judgement (deadlock victim, lock timeout,
admission rejection) and an error response proves the request did *not*
commit — :meth:`ReproClient.retrying` may therefore re-issue the call
under a new request id, honouring the server's ``retry_after`` hint
when one is given (admission control scales it with queue depth).
"""

from __future__ import annotations

import re
import socket
import time
import uuid
import zlib
from collections.abc import Callable, Iterator, Sequence
from typing import Any, TypeVar

from ..errors import ReproError
from . import wire

T = TypeVar("T")


def _uniform_stream(seed: int) -> Iterator[float]:
    """Seeded uniform(0, 1) stream via xorshift64* — the ``random``
    module is banned in engine code (lint rule RPR003), but retry
    jitter must still be reproducible under a test-provided seed."""
    state = (seed ^ 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF or 1
    while True:
        state ^= state >> 12
        state ^= (state << 25) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 27
        yield ((state * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF) / 2.0**64


def decorrelated_backoff(
    seed: int, base: float, cap: float
) -> Iterator[float]:
    """Decorrelated-jitter delays: ``next = min(cap, base + u * (prev*3
    - base))`` with ``u`` uniform in [0, 1).

    Unlike plain capped doubling, N clients bounced by the same
    overloaded server do not return in lockstep — each client's schedule
    spreads over ``[base, cap]`` and decorrelates further every step.
    Every delay is within ``[base, cap]``.
    """
    uniforms = _uniform_stream(seed)
    delay = base
    while True:
        delay = min(cap, base + next(uniforms) * max(0.0, delay * 3.0 - base))
        yield delay

#: Ops the server ledgers: stamped with (client, req) automatically.
_STAMPED_OPS = frozenset(
    {"insert", "delete", "update", "execute", "commit", "batch"}
)

_TXN_TOKEN = re.compile(r"\b(begin|commit|rollback)\b", re.IGNORECASE)


def _txn_effect(sql: str) -> str | None:
    """Net transaction-control effect of a SQL batch.

    Returns ``"begin"`` when the batch leaves a transaction open,
    ``"end"`` when it closes one, ``None`` when it contains no
    transaction control.  Decided by the *last* BEGIN/COMMIT/ROLLBACK
    token outside string literals — a client-side heuristic mirror of
    the server's real parse, used only to pick the redelivery policy
    and track :attr:`ReproClient._in_txn` for SQL-text transactions.
    """
    tokens = _TXN_TOKEN.findall(re.sub(r"'[^']*'", " ", sql))
    if not tokens:
        return None
    return "begin" if tokens[-1].lower() == "begin" else "end"


class ServerError(ReproError):
    """An error response from the server.

    Receiving one proves the request was *not* committed (the server
    answered after deciding), so callers may retry under a new stamp.
    """

    def __init__(
        self,
        message: str,
        error_type: str,
        retryable: bool,
        retry_after: float | None = None,
        rolled_back: bool = False,
    ) -> None:
        super().__init__(message)
        self.error_type = error_type
        self.retryable = retryable
        #: Server-suggested backoff (admission control sets it from the
        #: queue depth); ``None`` when the server offered no hint.
        self.retry_after = retry_after
        #: True when the server rolled the session's transaction back
        #: before answering (deadlock victims, lock timeouts).
        self.rolled_back = rolled_back


def error_reply_from(exc: ServerError) -> dict[str, Any]:
    """The error reply *exc* was raised from, rebuilt for passing on."""
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


class DeliveryUnknown(ReproError):
    """Every delivery attempt tore; the request's outcome is unknown.

    The one error an exactly-once client must *not* retry under a fresh
    request id — the original stamp may still commit server-side.
    Re-issue the same operation on a recovered connection (the ledger
    disambiguates) or surface the uncertainty to the application.
    """


class TransactionTorn(ReproError):
    """The connection died inside an explicit transaction.

    The server rolls an open transaction back when its connection dies,
    so nothing of the transaction survives — re-run it from ``begin``.
    The client has closed its socket by the time this is raised; the
    rollback happens when the server reads that close, so for a moment a
    plain (non-snapshot) read on the next connection can still see the
    doomed rows, as it sees any other session's uncommitted work.
    Raised instead of redelivering, because a mid-transaction statement
    replayed onto a fresh session would execute as its own autocommit
    statement, outside the transaction it belonged to.
    """


class ReproClient:
    """One connection to a :class:`~repro.server.server.ReproServer`.

    Not thread-safe: a connection is one session, and sessions (like SQL
    connections everywhere) are single-threaded.  Open one client per
    worker thread.

    With ``auto_reconnect`` (the default), a torn exchange triggers
    transparent reconnect-and-redeliver under the same idempotency
    stamp.  Note a reconnect lands on a *fresh server session*: an open
    explicit transaction was already rolled back when the old connection
    died, so a redelivered ``commit`` correctly reports "no transaction
    to commit" unless the original commit made it (then the ledger
    replays its acknowledgement).
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        client_id: str | None = None,
        auto_reconnect: bool = True,
        redeliveries: int = 6,
        reconnect_attempts: int = 30,
        reconnect_delay: float = 0.05,
    ) -> None:
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        #: Stable identity for the server's result ledger.
        self.client_id = client_id if client_id is not None else uuid.uuid4().hex
        self.auto_reconnect = auto_reconnect
        self.redeliveries = redeliveries
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_delay = reconnect_delay
        self._request_id = 0
        #: How many times this client re-established its connection.
        self.reconnects = 0
        #: Tracks ``begin``/``commit``/``rollback`` — structured ops and
        #: SQL-text batches alike — so a torn statement inside an
        #: explicit transaction raises TransactionTorn instead of being
        #: redelivered out of context.
        self._in_txn = False
        self._sock: socket.socket | None = None
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), self._connect_timeout
        )
        self._sock.settimeout(None)
        # Replies are read through one buffer per connection: a drained
        # pipeline costs a recv or two, not two per reply.  The reader
        # is handed ``self._sock`` on every read and dies with it.
        self._reader = wire.FrameReader()

    # ------------------------------------------------------------------

    def request(self, op: str, **payload: Any) -> dict[str, Any]:
        """One (redelivered-if-torn) exchange; :class:`ServerError` on
        failure responses, :class:`DeliveryUnknown` when no attempt
        completed, :class:`TransactionTorn` when the connection died
        mid-transaction on a non-commit statement."""
        message = {"op": op, **payload}
        if op in _STAMPED_OPS and "client" not in message:
            self._request_id += 1
            message["client"] = self.client_id
            message["req"] = self._request_id
        # SQL-text transactions (execute("BEGIN") ... execute("COMMIT"))
        # get the same taxonomy as the structured ops: a batch that ends
        # the transaction is redeliverable (the server ledgers it), one
        # that does not must not be replayed out of context.
        effect = None
        if op == "execute" and isinstance(payload.get("sql"), str):
            effect = _txn_effect(payload["sql"])
        ends_txn = op in ("commit", "rollback") or effect == "end"
        # A non-commit statement inside an explicit transaction must not
        # be redelivered: the server rolled the transaction back when the
        # connection died, and a replay on a fresh session would commit
        # the statement on its own, outside the dead transaction.
        redeliver = not (self._in_txn and not ends_txn)
        try:
            response = self._deliver(message, redeliver)
        except (wire.WireError, OSError) as exc:
            if redeliver:
                raise  # auto_reconnect disabled: surface the raw failure
            self._in_txn = False
            # A garbled reply tears the exchange but not the socket: left
            # open, the next autocommit statement would run inside the
            # abandoned server-side transaction and be rolled back with
            # it.  Closing makes the server roll back now.
            self.close()
            raise TransactionTorn(
                f"connection died inside an explicit transaction (on "
                f"{op!r}); the server rolls it back — re-run from begin"
            ) from exc
        except DeliveryUnknown:
            if ends_txn:
                self._in_txn = False  # the disconnected session's txn died
            raise
        except ServerError as exc:
            if exc.rolled_back or ends_txn:
                self._in_txn = False
            raise
        if op == "begin" or effect == "begin":
            self._in_txn = True
        elif ends_txn:
            self._in_txn = False
        return response

    def _deliver(
        self, message: dict[str, Any], redeliver: bool = True
    ) -> dict[str, Any]:
        try:
            return self._roundtrip(message)
        except (wire.WireError, OSError) as exc:
            if not self.auto_reconnect or not redeliver:
                raise
            last: Exception = exc
        # The exchange tore mid-flight: reconnect (patiently — the
        # server may be restarting) and re-send the SAME message, marked
        # ``redelivered``.  The idempotency stamp makes this safe: if the
        # first attempt committed, the ledger replays its acknowledged
        # result; the mark tells a router that the stamp may have
        # committed before, whatever it has seen of this client.  The
        # backoff between redeliveries matters when a proxy or load
        # balancer accepts connections a dead upstream can't serve —
        # reconnecting then succeeds instantly but the exchange still
        # tears, so the reconnect loop's own patience never engages.
        delay = self.reconnect_delay
        message = {**message, "redelivered": True}
        for attempt in range(self.redeliveries):
            if attempt:
                time.sleep(min(delay, 1.0))
                delay *= 2
            try:
                self._reconnect()
                return self._roundtrip(message)
            except (wire.WireError, OSError) as exc:
                last = exc
        raise DeliveryUnknown(
            f"request {message.get('op')!r} outcome unknown after "
            f"{self.redeliveries} redeliveries: {last}"
        ) from last

    def _roundtrip(self, message: dict[str, Any]) -> dict[str, Any]:
        if self._sock is None:
            raise wire.WireError("client is closed")
        wire.send_frame(self._sock, message)
        response = self._reader.read(self._sock)
        if response is None:
            raise wire.WireError("server closed the connection")
        if not response.get("ok"):
            retry_after = response.get("retry_after")
            raise ServerError(
                response.get("error", "unknown server error"),
                response.get("error_type", "ReproError"),
                bool(response.get("retryable")),
                float(retry_after) if retry_after is not None else None,
                bool(response.get("rolled_back")),
            )
        return response

    def _reconnect(self) -> None:
        self.close()
        delay = self.reconnect_delay
        last: Exception | None = None
        for __ in range(self.reconnect_attempts):
            try:
                self._connect()
                self.reconnects += 1
                return
            except OSError as exc:
                last = exc
                time.sleep(min(delay, 1.0))
                delay *= 2
        raise wire.WireError(
            f"could not reconnect to {self._host}:{self._port} after "
            f"{self.reconnect_attempts} attempts"
        ) from last

    def retrying(
        self,
        fn: Callable[[], T],
        attempts: int = 6,
        base_delay: float = 0.005,
        max_delay: float = 0.25,
        sleep: Callable[[float], None] = time.sleep,
        jitter_seed: int | None = None,
    ) -> T:
        """Run *fn*, retrying retryable server errors with decorrelated
        jitter (:func:`decorrelated_backoff`).

        An error response proves nothing committed, so each retry runs
        under a fresh request id (``fn`` re-stamps).  Jitter matters
        here precisely because many clients fail *together* — an
        ``Overloaded`` rejection storm retried in lockstep re-creates
        the storm; decorrelated schedules drain it.  The server's
        ``retry_after`` hint, when present, is honoured as a **floor**
        under the jittered delay, never shortened.  The jitter stream is
        seeded from the client id and request counter (reproducible
        runs); tests pin it with *jitter_seed*.  :class:`DeliveryUnknown`
        is deliberately *not* retried here — its outcome is undecided,
        not failed.
        """
        if jitter_seed is None:
            jitter_seed = (
                zlib.crc32(self.client_id.encode("utf-8"))
                ^ (self._request_id << 16)
            )
        delays = decorrelated_backoff(jitter_seed, base_delay, max_delay)
        for attempt in range(attempts):
            try:
                return fn()
            except ServerError as exc:
                if not exc.retryable or attempt == attempts - 1:
                    raise
                wait = next(delays)
                if exc.retry_after is not None:
                    wait = max(exc.retry_after, wait)
                sleep(wait)
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Ops

    def ping(self) -> int:
        """Round-trip liveness check; returns the server-side session id."""
        return self.request("ping")["session_id"]

    def execute(self, sql: str) -> list[dict[str, Any]]:
        # A redelivered COMMIT batch may replay as the ledger's
        # ``result_lost`` marker, which carries no per-statement results.
        return self.request("execute", sql=sql).get("results", [])

    def insert(self, table: str, values: Sequence[Any]) -> int:
        return self.request("insert", table=table, values=list(values))["rid"]

    def batch_insert(
        self, table: str, rows: Sequence[Sequence[Any]]
    ) -> list[int]:
        """Insert many rows as ONE stamped request: one exactly-once
        ledger entry covers the whole batch, and the server runs the
        vectorized enforcement path (one index walk per key run)."""
        return self.request(
            "batch", table=table, rows=[list(r) for r in rows]
        )["rids"]

    def pipeline(self) -> "Pipeline":
        """Start a pipelined request stream on this connection.

        Requests are stamped and written eagerly without awaiting
        replies; :meth:`Pipeline.drain` collects the replies, which the
        server returns strictly in send order (each echoes its request
        ``id``).  Not allowed inside an explicit transaction: a torn
        pipeline would have to replay mid-transaction statements out of
        context (the same reason :meth:`request` refuses to redeliver
        them).
        """
        if self._in_txn:
            raise ReproError(
                "pipeline() inside an explicit transaction is not "
                "supported; commit or roll back first"
            )
        return Pipeline(self)

    def delete(self, table: str, equals: dict[str, Any] | None = None) -> int:
        return self.request("delete", table=table, equals=equals)["rowcount"]

    def update(
        self,
        table: str,
        assignments: dict[str, Any],
        equals: dict[str, Any] | None = None,
    ) -> int:
        return self.request(
            "update", table=table, assignments=assignments, equals=equals
        )["rowcount"]

    def select(
        self,
        table: str,
        equals: dict[str, Any] | None = None,
        columns: Sequence[str] | None = None,
        limit: int | None = None,
        snapshot: bool = False,
    ) -> list[list[Any]]:
        """Read rows.  With ``snapshot=True`` the server runs the read as
        a lock-free MVCC snapshot at the latest committed LSN — it never
        waits on writers, at the price of not seeing this connection's
        own open transaction."""
        payload: dict[str, Any] = {
            "table": table, "equals": equals,
            "columns": list(columns) if columns else None, "limit": limit,
        }
        if snapshot:
            payload["snapshot"] = True
        return self.request("select", **payload)["rows"]

    def begin(self) -> int:
        return self.request("begin")["txn_id"]

    def commit(self) -> dict[str, Any]:
        return self.request("commit")

    def rollback(self) -> None:
        self.request("rollback")

    def verify(self) -> dict[str, Any]:
        return self.request("verify")

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Pipeline:
    """One pipelined request stream on a :class:`ReproClient`.

    :meth:`send` stamps and writes each request immediately — no waiting
    for replies — and tags it with a connection-local ``id``.
    :meth:`drain` then collects every reply; the server answers one
    connection strictly in request order, and each reply echoes its
    request's ``id``, which drain verifies.

    Error replies do **not** stop the stream: the server keeps executing
    the later pipelined requests, so drain returns one response dict per
    request (``ok`` False for the failures) instead of raising on the
    first error.

    **Exactly-once across tears.**  Mutating requests carry the same
    ``(client, req)`` idempotency stamps as the unpipelined path, and
    they are assigned at *send* time.  When the stream tears (server
    killed mid-pipeline, proxy dropped a frame), every request whose
    reply never arrived is redelivered under its **original** stamp on
    a fresh connection — the server's result ledger replays the ones
    that committed and executes the ones that never arrived.  A batch
    acknowledged once is never applied twice.
    """

    def __init__(self, client: ReproClient) -> None:
        self._client = client
        self._sent: list[dict[str, Any]] = []
        self._next_id = 0
        self._torn = False
        self._drained = False

    def __len__(self) -> int:
        return len(self._sent)

    def send(self, op: str, **payload: Any) -> int:
        """Stamp and write one request without awaiting its reply.

        Returns the pipeline-local ``id`` the reply will echo.  A write
        failure does not raise: the request joins the unacknowledged
        tail and :meth:`drain` redelivers it under its original stamp.
        """
        if self._drained:
            raise ReproError("pipeline already drained")
        if op in ("begin", "commit", "rollback"):
            # A pipeline is an autocommit stream: transaction control
            # would tie later requests to session state a redelivery
            # (which lands on a fresh session) cannot reproduce.
            raise ReproError(f"{op!r} cannot be pipelined")
        client = self._client
        message: dict[str, Any] = {"op": op, **payload}
        if op in _STAMPED_OPS and "client" not in message:
            client._request_id += 1
            message["client"] = client.client_id
            message["req"] = client._request_id
        self._next_id += 1
        message["id"] = self._next_id
        self._sent.append(message)
        if not self._torn and client._sock is not None:
            try:
                wire.send_frame(client._sock, message)
            except (wire.WireError, OSError):
                self._torn = True
        else:
            self._torn = True
        return message["id"]

    def drain(self) -> list[dict[str, Any]]:
        """Collect one reply per sent request, in send order.

        Replies already in flight are read off the connection and their
        ``id`` pairing verified.  If the stream tore, the
        unacknowledged tail is redelivered request-by-request under the
        original stamps (``auto_reconnect`` permitting); error replies
        are returned as their response dicts, never raised.
        """
        if self._drained:
            raise ReproError("pipeline already drained")
        self._drained = True
        client = self._client
        responses: list[dict[str, Any]] = []
        pending = list(self._sent)
        while pending and not self._torn:
            try:
                response = client._reader.read(client._sock)  # type: ignore[arg-type]
            except (wire.WireError, OSError):
                self._torn = True
                break
            if response is None:
                self._torn = True
                break
            expected = pending[0]["id"]
            if response.get("id") != expected:
                raise wire.WireError(
                    f"pipelined reply out of order: expected id "
                    f"{expected}, got {response.get('id')!r}"
                )
            responses.append(response)
            pending.pop(0)
        if pending:
            if not client.auto_reconnect:
                raise DeliveryUnknown(
                    f"pipeline tore with {len(pending)} replies "
                    "outstanding and auto_reconnect disabled"
                )
            for message in pending:
                responses.append(self._redeliver(message))
        return responses

    def _redeliver(self, message: dict[str, Any]) -> dict[str, Any]:
        try:
            return self._client._deliver({**message, "redelivered": True})
        except ServerError as exc:
            return {**error_reply_from(exc), "id": message["id"]}
