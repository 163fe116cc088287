"""An asyncio pipelined wire server over one shared, session-managed
database.

Architecture::

    asyncio event loop (background thread)
        │  one reader task + one worker task per connection
        │     reader: decodes frames as fast as they arrive and queues
        │             them — clients may *pipeline* (stream stamped
        │             requests without awaiting replies)
        │     worker: executes the queue strictly in order, one at a
        │             time (a connection is one Session), and replies
        │             in order, echoing each request's ``id``
        └─ dispatch runs on a thread pool: blocking engine work (locks,
           the statement latch, admission waits) never blocks the loop.
           Admission control is unchanged: at most ``max_inflight``
           statements execute at once; the rest queue, and a queue wait
           longer than ``admission_timeout`` is rejected with a
           retryable "overloaded" error (backpressure, not collapse).

Request ops (all JSON, see :mod:`repro.server.wire` for framing):

``ping`` · ``execute`` (SQL text, incl. BEGIN/COMMIT/ROLLBACK) ·
``insert`` / ``delete`` / ``update`` / ``select`` (structured DML) ·
``batch`` (vectorized multi-row insert) · ``begin`` / ``commit`` /
``rollback`` · ``verify`` (integrity report) · ``stats`` (server +
lock-manager counters).

**Pipelining.**  Replies on one connection are always in request order;
a request carrying an ``id`` field gets it echoed on its reply, so a
pipelining client can additionally assert the pairing.  Ordering is per
connection only — concurrent connections interleave at the engine's
discretion, exactly as before.

Error responses carry ``retryable``: deadlock victims, lock timeouts,
injected transient faults and admission rejections are safe to retry
after the automatic rollback; integrity vetoes are semantic and are not.
``Overloaded`` rejections additionally carry a ``retry_after`` hint
derived from the admission-queue depth, which well-behaved clients honor
instead of blind backoff.

**Fault tolerance** (DESIGN.md §5g): started with a ``data_dir``, the
server attaches a file-backed WAL (:func:`repro.storage.wal.open_durable`)
and replays the pre-crash database on start, so ``kill -9`` loses no
acknowledged commit.  Mutating requests stamped with a monotonic
``(client, req)`` pair get exactly-once semantics: the result is
persisted *inside* the WAL commit record and a reconnect-and-retry
replays the acknowledged answer from the
:class:`~repro.server.ledger.ResultLedger` instead of re-executing the
triggers.

Graceful shutdown (:meth:`ReproServer.shutdown`) stops accepting, lets
in-flight requests finish, rolls back every open session transaction
and only then returns — clients see clean connection closes, never a
torn transaction.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any

from ..concurrency.locks import DEFAULT_LOCK_TIMEOUT
from ..errors import (
    DeadlockError,
    LockTimeoutError,
    ReproError,
    SerializationError,
    TransientFault,
)
from ..query.predicate import And, Eq, IsNull, Predicate
from ..sql import ast as sql_ast
from ..sql import parse
from ..sql.interpreter import SqlSession
from ..storage.database import Database
from ..storage.wal import open_durable
from ..testing.faults import fire
from . import wire
from .ledger import LedgerEntry, LedgerError, ResultLedger

if TYPE_CHECKING:  # pragma: no cover
    from ..concurrency.session import Session
    from ..storage.wal import RecoveryReport

#: Granted to admission-queue waits before the request is bounced.
DEFAULT_ADMISSION_TIMEOUT = 2.0

#: A reply send blocked longer than this disconnects the (stalled)
#: reader instead of pinning a worker thread forever.
DEFAULT_SEND_TIMEOUT = 10.0

#: Ledgered commits between durable checkpoints (log compaction) — or,
#: on a server without a durable log, between MVCC version collections.
DEFAULT_CHECKPOINT_EVERY = 256

_RETRYABLE = (DeadlockError, LockTimeoutError, SerializationError, TransientFault)

#: Ops that may commit under an idempotency key.  ``begin`` is absent on
#: purpose: retrying it on a fresh connection is inherently safe (the
#: torn connection's transaction was rolled back at disconnect).
#: ``txn`` is the shard coordinator's one-phase batch: it autocommits,
#: so a redelivered batch must replay rather than re-execute.  ``batch``
#: is the vectorized multi-row insert: one stamp covers the whole batch.
_LEDGERED_OPS = frozenset(
    {"insert", "delete", "update", "execute", "commit", "txn", "batch"}
)

#: Sentinel a connection's reader task enqueues when its stream ends
#: (clean EOF, torn frame, injected fault): tells the worker to stop.
_EOF = object()


class Overloaded(ReproError):
    """Admission control rejected the request; retry after the hint."""

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServerStats:
    """Thread-safe counters exposed by the ``stats`` op."""

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self.connections_total = 0
        self.requests = 0
        self.errors = 0
        self.rejected = 0
        self.rolled_back_on_shutdown = 0
        self.send_timeouts = 0
        self.idempotent_replays = 0
        self.accept_faults = 0
        self.checkpoints = 0
        self.read_faults = 0

    def bump(self, field: str, by: int = 1) -> None:
        with self._mu:
            setattr(self, field, getattr(self, field) + by)

    def snapshot(self) -> dict[str, int]:
        with self._mu:
            return {
                "connections_total": self.connections_total,
                "requests": self.requests,
                "errors": self.errors,
                "rejected": self.rejected,
                "rolled_back_on_shutdown": self.rolled_back_on_shutdown,
                "send_timeouts": self.send_timeouts,
                "idempotent_replays": self.idempotent_replays,
                "accept_faults": self.accept_faults,
                "checkpoints": self.checkpoints,
                "read_faults": self.read_faults,
            }


class ReproServer:
    """Serve a database over the length-prefixed JSON protocol."""

    def __init__(
        self,
        db: Database | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 8,
        admission_timeout: float = DEFAULT_ADMISSION_TIMEOUT,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
        send_timeout: float = DEFAULT_SEND_TIMEOUT,
        data_dir: str | None = None,
        checkpoint_every: int | None = None,
        ledger_capacity: int = 1024,
        resolve_after: float | None = None,
        presume_abort_after: float | None = None,
    ) -> None:
        self.db = db if db is not None else Database("served")
        if self.db.session_manager is None:
            self.db.enable_sessions(lock_timeout=lock_timeout)
        self.sessions = self.db.session_manager
        self.host = host
        self._requested_port = port
        self.stats = ServerStats()
        self.max_inflight = max_inflight
        self.admission_timeout = admission_timeout
        self.send_timeout = send_timeout
        self._admission = threading.Semaphore(max_inflight)
        self._admission_mu = threading.Lock()
        self._admission_waiting = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._aserver: asyncio.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_queues: set[asyncio.Queue] = set()
        self._stopping = threading.Event()
        self._started = False
        # Durability: a data_dir makes the WAL file-backed and replays
        # the pre-crash database (plus the exactly-once ledger) on start.
        self.ledger = ResultLedger(capacity=ledger_capacity)
        self.data_dir = data_dir
        self.recovery_report: "RecoveryReport | None" = None
        if checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        self.checkpoint_every = checkpoint_every
        self._commits_since_checkpoint = 0
        # 2PC participant (lazy import: sharding imports this module).
        from ..sharding.twophase import TwoPhaseParticipant

        twophase_opts = {}
        if resolve_after is not None:
            twophase_opts["resolve_after"] = resolve_after
        if presume_abort_after is not None:
            twophase_opts["presume_abort_after"] = presume_abort_after
        self.twophase = TwoPhaseParticipant(self, **twophase_opts)
        if data_dir is not None:
            wal, self.recovery_report = open_durable(self.db, data_dir)
            self.ledger.restore(
                wal.checkpoint_extras.get("ledger"), wal.durable_records
            )
            # Reinstate in-doubt 2PC transactions before serving: their
            # re-acquired locks must be in place when the first client
            # statement arrives.
            self.twophase.reinstate()

    # ------------------------------------------------------------------
    # Lifecycle

    @property
    def port(self) -> int:
        if self._aserver is None:
            raise ReproError("server is not started")
        return self._aserver.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "ReproServer":
        """Bind, listen and start serving on a background event loop."""
        if self._started:
            raise ReproError("server already started")
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="repro-loop", daemon=True
        )
        self._loop_thread.start()
        # Dispatch blocks (locks, latch, admission waits); each serial
        # connection worker holds at most one pool thread at a time, so
        # sizing generously above max_inflight keeps admission control —
        # not pool starvation — the thing that sheds load.
        self._executor = ThreadPoolExecutor(
            max_workers=max(32, self.max_inflight * 4),
            thread_name_prefix="repro-dispatch",
        )
        try:
            self._aserver = asyncio.run_coroutine_threadsafe(
                self._start_serving(), self._loop
            ).result()
        except BaseException:
            self._stop_loop()
            raise
        self._started = True
        return self

    async def _start_serving(self) -> asyncio.Server:
        return await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port
        )

    def _stop_loop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(5.0)
                self._loop_thread = None
            self._loop.close()
            self._loop = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def shutdown(self, timeout: float = 10.0) -> int:
        """Drain and stop.  Returns how many open transactions were
        rolled back on behalf of their (now disconnected) sessions."""
        if not self._started:
            return 0
        before = self.stats.rolled_back_on_shutdown
        self.twophase.stop()
        self._stopping.set()
        assert self._loop is not None
        asyncio.run_coroutine_threadsafe(
            self._drain(timeout), self._loop
        ).result(timeout + 5.0)
        self._aserver = None
        self._stop_loop()
        # Draining workers roll back their own sessions; close_all picks
        # up whatever was left (e.g. sessions created outside a handler).
        self.stats.bump("rolled_back_on_shutdown", self.sessions.close_all())
        if self.data_dir is not None and self.db.wal is not None:
            self.db.wal.close()  # the log this server opened on data_dir
        self._started = False
        return self.stats.rolled_back_on_shutdown - before

    async def _drain(self, timeout: float) -> None:
        """Stop accepting, let each worker finish its in-flight request
        (and send its reply), discard queued pipeline tail, close."""
        if self._aserver is not None:
            self._aserver.close()
            await self._aserver.wait_closed()
        # Wake workers blocked on an idle queue; workers re-check the
        # stopping flag after every dequeue, so anything still queued
        # behind the in-flight request is discarded, not executed.
        for queue in list(self._conn_queues):
            queue.put_nowait(_EOF)
        tasks = list(self._conn_tasks)
        if tasks:
            __, pending = await asyncio.wait(tasks, timeout=timeout)
            for task in pending:
                task.cancel()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Per-connection tasks

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            try:
                fire("wire.accept")
            except ReproError:
                # Injected accept fault: shed the connection at the door.
                self.stats.bump("accept_faults")
                writer.close()
                return
            self.stats.bump("connections_total")
            await self._connection_loop(reader, writer)
        finally:
            self._conn_tasks.discard(task)

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        # Session creation can block on the manager latch: off the loop.
        session = await loop.run_in_executor(
            self._executor, self.sessions.session
        )
        sql_session = SqlSession(self.db)
        queue: asyncio.Queue = asyncio.Queue()
        self._conn_queues.add(queue)
        reader_task = asyncio.create_task(self._read_loop(reader, queue))
        try:
            while not self._stopping.is_set():
                request = await queue.get()
                if request is _EOF or self._stopping.is_set():
                    break
                response = await loop.run_in_executor(
                    self._executor, self._dispatch_safely,
                    session, sql_session, request,
                )
                if "id" in request:
                    # Copy before tagging: the dict may be a ledger-cached
                    # reply, and the stamp's recorded result must not grow
                    # connection-local fields.
                    response = {**response, "id": request["id"]}
                # Replies must not be torn, but a stalled reader must
                # not pin this connection forever either: bound the
                # drain and disconnect the offender on timeout.
                try:
                    await asyncio.wait_for(
                        wire.write_frame(writer, response), self.send_timeout
                    )
                except asyncio.TimeoutError:
                    self.stats.bump("send_timeouts")
                    break
                except (ConnectionError, OSError):
                    break
        finally:
            reader_task.cancel()
            self._conn_queues.discard(queue)
            await loop.run_in_executor(
                self._executor, self._release_session, session
            )
            writer.close()

    async def _read_loop(
        self, reader: asyncio.StreamReader, queue: asyncio.Queue
    ) -> None:
        """Decode frames as fast as the client pipelines them.

        Any read failure — clean EOF, torn frame, injected wire fault —
        ends the connection's intake; the worker finishes what is already
        queued (replies stay in order), then tears down.
        """
        try:
            while True:
                request = await wire.read_frame(reader)
                if request is None:
                    break  # clean EOF
                queue.put_nowait(request)
        except (wire.WireError, ReproError, OSError, EOFError):
            # A torn frame or injected wire fault ends intake for this
            # connection only; the client's redelivery protocol recovers.
            self.stats.bump("read_faults")
        finally:
            queue.put_nowait(_EOF)

    def _dispatch_safely(
        self,
        session: "Session",
        sql_session: SqlSession,
        request: dict[str, Any],
    ) -> dict[str, Any]:
        try:
            return self._dispatch(session, sql_session, request)
        except Exception as exc:  # noqa: BLE001 - boundary
            return self._error_response(session, exc)

    def _release_session(self, session: "Session") -> None:
        if session.in_transaction:
            if self._stopping.is_set():
                self.stats.bump("rolled_back_on_shutdown")
            session.rollback()
        session.close()

    # ------------------------------------------------------------------
    # Dispatch

    def _dispatch(
        self,
        session: "Session",
        sql_session: SqlSession,
        request: dict[str, Any],
    ) -> dict[str, Any]:
        fire("server.request")
        self.stats.bump("requests")
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ReproError(f"unknown op {op!r}")

        # Exactly-once: a stamped mutating request first consults the
        # ledger (a hit replays the acknowledged result without touching
        # the database), then executes with a LedgerEntry annotated onto
        # the session so the commit record persists its result.
        entry = self._ledger_entry_for(session, op, request)
        if entry is not None:
            cached = self.ledger.replay(entry.client_id, entry.request_id)
            if cached is not None:
                self.stats.bump("idempotent_replays")
                return cached
            session.annotate_next_commit(entry)
        try:
            response = handler(session, sql_session, request, entry)
        finally:
            committed = entry is not None and session._commit_note is None
            session.annotate_next_commit(None)
        if entry is not None and committed:
            self.ledger.record(entry.client_id, entry.request_id, entry.result)
            self._commits_since_checkpoint += 1
            self._maybe_checkpoint()
        return response

    def _ledger_entry_for(
        self, session: "Session", op: Any, request: dict[str, Any]
    ) -> LedgerEntry | None:
        if op not in _LEDGERED_OPS:
            return None
        client, req = request.get("client"), request.get("req")
        if not isinstance(client, str) or not isinstance(req, int):
            return None
        if op != "commit" and session.in_transaction:
            # A statement inside an explicit transaction commits nothing
            # by itself; only the final commit earns a ledger entry.  The
            # exception is an ``execute`` batch whose SQL itself contains
            # COMMIT — it ends the transaction, so its stamp must be
            # ledgered for the same torn-ack disambiguation as the
            # structured commit op.
            if not (op == "execute" and self._sql_commits(request.get("sql"))):
                return None
        return LedgerEntry(client, req)

    @staticmethod
    def _sql_commits(sql: Any) -> bool:
        if not isinstance(sql, str):
            return False
        return any(isinstance(s, sql_ast.Commit) for s in parse(sql))

    def _maybe_checkpoint(self) -> None:
        """Compact the durable log once enough commits accumulated — or,
        without a durable log, just collect the MVCC versions no snapshot
        can reach any more (a checkpoint does that on its way; a server
        that never checkpoints would otherwise keep every version).

        Runs opportunistically on a handler thread after its own
        statement finished.  The statement latch excludes concurrent
        statements; any *idle* open transaction defers the checkpoint to
        a later commit (a checkpoint must snapshot a committed state).
        """
        if (
            self.checkpoint_every <= 0
            or self._commits_since_checkpoint < self.checkpoint_every
        ):
            return
        wal = self.db.wal
        with self.sessions.latch:
            if wal is not None and wal.is_durable:
                if any(s.in_transaction for s in self.sessions.open_sessions):
                    return
                wal.checkpoint(
                    self.db, extras={"ledger": self.ledger.snapshot()}
                )
                self.stats.bump("checkpoints")
            else:
                self.sessions.versions.prune()
            self._commits_since_checkpoint = 0

    @staticmethod
    def _fill(
        entry: LedgerEntry | None, response: dict[str, Any]
    ) -> dict[str, Any]:
        """Record *response* as the entry's result — called inside the
        transaction, i.e. before the commit flush serialises the entry
        into the durable commit record."""
        if entry is not None:
            entry.result = response
        return response

    def _error_response(self, session: "Session", exc: Exception) -> dict[str, Any]:
        self.stats.bump("errors")
        retryable = isinstance(exc, (_RETRYABLE, Overloaded))
        if isinstance(exc, Overloaded):
            self.stats.bump("rejected")
        # A deadlock victim / timed-out statement leaves the transaction
        # holding its locks; the only sane continuation is rollback, so
        # do it server-side and tell the client.
        rolled_back = False
        if isinstance(exc, _RETRYABLE) and session.in_transaction:
            session.rollback()
            rolled_back = True
        response = {
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "retryable": retryable,
            "rolled_back": rolled_back,
        }
        if isinstance(exc, Overloaded):
            response["retry_after"] = exc.retry_after
        return response

    def _admitted(self, fn):
        """Run *fn* under admission control (bounded in-flight work).

        A rejection's ``retry_after`` hint scales with how many other
        requests were queued at that moment — the deeper the queue, the
        longer a well-behaved client should stay away.
        """
        with self._admission_mu:
            self._admission_waiting += 1
        try:
            admitted = self._admission.acquire(timeout=self.admission_timeout)
        finally:
            with self._admission_mu:
                self._admission_waiting -= 1
                depth = self._admission_waiting
        if not admitted:
            raise Overloaded(
                f"more than {self.max_inflight} statements in flight; "
                "retry after backoff",
                retry_after=min(2.0, 0.05 * (depth + 1)),
            )
        try:
            return fn()
        finally:
            self._admission.release()

    # ------------------------------------------------------------------
    # Ops.  Mutating handlers fill their LedgerEntry *inside* the
    # transaction closure, so the acknowledged result is serialised into
    # the durable commit record before the commit is acknowledged.

    def _op_ping(self, session, sql_session, request, entry) -> dict[str, Any]:
        return {"ok": True, "pong": True, "session_id": session.session_id}

    def _op_execute(self, session, sql_session, request, entry) -> dict[str, Any]:
        sql = request.get("sql")
        if not isinstance(sql, str):
            raise ReproError("execute needs a 'sql' string")
        statements = parse(sql)
        txn_control = any(
            isinstance(s, (sql_ast.Begin, sql_ast.Commit, sql_ast.Rollback))
            for s in statements
        )

        def run() -> list[dict[str, Any]]:
            results = []
            for statement in statements:
                result = sql_session._run(statement)
                results.append({
                    "message": result.message,
                    "columns": list(result.columns),
                    "rows": [wire.encode_row(r) for r in result.rows],
                    "rowcount": result.rowcount,
                })
            return results

        def statement() -> list[dict[str, Any]]:
            if txn_control or session.in_transaction:
                # BEGIN/COMMIT manage the session transaction themselves;
                # inside an explicit transaction nothing auto-commits.
                # A COMMIT in here fires before the batch's results are
                # assembled, so a replay of this request returns the
                # ledger's ``result_lost`` marker instead of the rows.
                with session.use():
                    with session.db_latch():
                        return run()

            def work() -> list[dict[str, Any]]:
                results = run()
                self._fill(entry, {"ok": True, "results": results})
                return results

            return session.execute(work)

        return {"ok": True, "results": self._admitted(statement)}

    def _op_insert(self, session, sql_session, request, entry) -> dict[str, Any]:
        table = request["table"]
        values = wire.decode_values(request["values"])

        def work() -> dict[str, Any]:
            rid = self.db.insert(table, values)
            return self._fill(entry, {"ok": True, "rid": rid})

        return self._admitted(lambda: session.execute(work))

    def _op_batch(self, session, sql_session, request, entry) -> dict[str, Any]:
        """Vectorized multi-row insert: one stamp, one transaction, one
        index walk per run of adjacent keys (repro.core.batch)."""
        table = request["table"]
        rows_field = request.get("rows")
        if not isinstance(rows_field, list):
            raise ReproError("batch needs a 'rows' list")
        rows = [wire.decode_values(r) for r in rows_field]

        def work() -> dict[str, Any]:
            rids = self.db.batch_insert(table, rows)
            return self._fill(
                entry, {"ok": True, "rids": rids, "rowcount": len(rids)}
            )

        return self._admitted(lambda: session.execute(work))

    def _op_delete(self, session, sql_session, request, entry) -> dict[str, Any]:
        table = request["table"]
        predicate = _predicate_from(request.get("equals"))

        def work() -> dict[str, Any]:
            count = self.db.delete_where(table, predicate)
            return self._fill(entry, {"ok": True, "rowcount": count})

        return self._admitted(lambda: session.execute(work))

    def _op_update(self, session, sql_session, request, entry) -> dict[str, Any]:
        table = request["table"]
        assignments = {
            column: wire.decode_value(value)
            for column, value in request["assignments"].items()
        }
        predicate = _predicate_from(request.get("equals"))

        def work() -> dict[str, Any]:
            count = self.db.update_where(table, assignments, predicate)
            return self._fill(entry, {"ok": True, "rowcount": count})

        return self._admitted(lambda: session.execute(work))

    def _op_select(self, session, sql_session, request, entry) -> dict[str, Any]:
        table = request["table"]
        predicate = _predicate_from(request.get("equals"))
        columns = request.get("columns")
        limit = request.get("limit")
        if request.get("snapshot"):
            # Lock-free MVCC read at the latest committed LSN: shared
            # statement latch only, zero lock-manager traffic.
            rows = self._admitted(
                lambda: session.snapshot_select(table, predicate, columns, limit)
            )
        else:
            rows = self._admitted(
                lambda: session.select(table, predicate, columns, limit)
            )
        return {"ok": True, "rows": [wire.encode_row(r) for r in rows]}

    def _op_begin(self, session, sql_session, request, entry) -> dict[str, Any]:
        txn = session.begin()
        return {"ok": True, "txn_id": txn.txn_id}

    def _op_commit(self, session, sql_session, request, entry) -> dict[str, Any]:
        # Fill before committing: the commit flush serialises the entry.
        response = self._fill(entry, {"ok": True})
        session.commit()
        return response

    def _op_rollback(self, session, sql_session, request, entry) -> dict[str, Any]:
        session.rollback()
        return {"ok": True}

    def _op_verify(self, session, sql_session, request, entry) -> dict[str, Any]:
        def run():
            with session.use():
                with session.db_latch():
                    return self.db.verify_integrity()

        report = self._admitted(run)
        return {
            "ok": True,
            "clean": report.ok,
            "problem_count": len(report.problems()),
            "report": report.render(),
        }

    def _op_stats(self, session, sql_session, request, entry) -> dict[str, Any]:
        return {
            "ok": True,
            "server": self.stats.snapshot(),
            "locks": self.sessions.stats(),
            "ledger": {
                "entries": len(self.ledger),
                "evictions": self.ledger.evictions,
            },
            "twophase": self.twophase.stats_snapshot(),
        }

    # ------------------------------------------------------------------
    # Sharding ops (coordinator-facing; see repro.sharding)

    def _op_txn(self, session, sql_session, request, entry) -> dict[str, Any]:
        """One-phase shard batch: the coordinator's co-located ops run
        as a single autocommit transaction under the client's stamp."""
        from ..sharding.twophase import apply_shard_op

        ops = request.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ReproError("txn needs a non-empty 'ops' list")

        def work() -> dict[str, Any]:
            results = [apply_shard_op(self, session, op) for op in ops]
            return self._fill(entry, {"ok": True, "results": results})

        return self._admitted(lambda: session.execute(work))

    def _op_prepare(self, session, sql_session, request, entry) -> dict[str, Any]:
        gtid = request.get("gtid")
        if not isinstance(gtid, str):
            raise ReproError("prepare needs a 'gtid' string")
        ops = request.get("ops") or []
        seq = int(request.get("seq") or 0)
        resolve = request.get("resolve")
        resolve_addr = (resolve[0], int(resolve[1])) if resolve else None
        results = self._admitted(
            lambda: self.twophase.prepare(
                gtid, ops, seq=seq, resolve_addr=resolve_addr
            )
        )
        # The vote is out: from here on an unreachable coordinator must
        # be survivable, so the resolver watches the in-doubt window.
        self.twophase.ensure_resolver()
        return {"ok": True, "vote": "prepared", "results": results}

    def _op_decide(self, session, sql_session, request, entry) -> dict[str, Any]:
        # No admission gate: a decide releases locks others wait on;
        # queueing it behind the very statements it would unblock
        # inverts the dependency.
        gtid = request.get("gtid")
        verdict = request.get("verdict")
        if not isinstance(gtid, str) or not isinstance(verdict, str):
            raise ReproError("decide needs 'gtid' and 'verdict' strings")
        return {"ok": True, "state": self.twophase.decide(gtid, verdict)}

    def _op_ledger_peek(self, session, sql_session, request, entry) -> dict[str, Any]:
        """Read-only ledger probe: lets a restarted coordinator ask
        whether a client stamp already committed here, without the
        side effects of redelivering the op itself."""
        client, req = request.get("peek_client"), request.get("peek_req")
        if not isinstance(client, str) or not isinstance(req, int):
            raise ReproError("ledger_peek needs 'peek_client' and 'peek_req'")
        try:
            cached = self.ledger.replay(client, req)
        except LedgerError:
            # The stamp is behind this client's high-water mark: the
            # original ack exists but was evicted.  Report a miss with
            # the superseded flag so the caller can distinguish.
            return {"ok": True, "hit": False, "superseded": True}
        if cached is None:
            return {"ok": True, "hit": False}
        return {"ok": True, "hit": True, "result": cached}


def _predicate_from(equals: dict[str, Any] | None) -> Predicate | None:
    """Column=value conjunction; JSON null means IS NULL."""
    if not equals:
        return None
    parts: list[Predicate] = [
        IsNull(column) if value is None else Eq(column, value)
        for column, value in equals.items()
    ]
    return parts[0] if len(parts) == 1 else And(*parts)
