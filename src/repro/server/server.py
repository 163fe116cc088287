"""The database server: the :mod:`~repro.server.core` role that serves
one shared, session-managed database.

The core gives every connection its own serial thread; this module
gives that thread a :class:`~repro.concurrency.session.Session` (one
connection = one in-order statement stream) and the op table.  The four
row ops are defined once (:func:`run_row_op`): a client's ``insert``, a
row of the coordinator's one-phase ``txn`` and a row of a 2PC prepare —
live or re-executed by recovery — run the same code.
Statements block — on the statement latch, on locks, a 2PC vote or a
checkpoint on fsync — so admission control bounds how many run at once:
at most ``max_inflight`` execute; the rest queue, and a queue wait longer
than ``admission_timeout`` is rejected with a retryable "overloaded" error
(backpressure, not collapse).

Request ops (all JSON, see :mod:`repro.server.wire` for framing):

``ping`` · ``execute`` (SQL text, incl. BEGIN/COMMIT/ROLLBACK) ·
``insert`` / ``delete`` / ``update`` / ``select`` (structured DML) ·
``batch`` (vectorized multi-row insert) · ``begin`` / ``commit`` /
``rollback`` · ``verify`` (integrity report) · ``stats`` (server +
lock-manager counters) · ``provision`` (create the named indexes that
are missing; idempotent).

**Pipelining.**  Replies on one connection are always in request order;
a request carrying an ``id`` field gets it echoed on its reply, so a
pipelining client can additionally assert the pairing.  Ordering is per
connection only — concurrent connections interleave at the engine's
discretion.  The requests one ``recv`` brought in run back to back and
share one log flush and one send (:mod:`repro.server.core`): a commit
made on a connection releases its locks without waiting for the disk,
and no reply of any kind leaves the server while the log buffer holds a
record older than the reply.  Each request is its own statement, except
that consecutive autocommit ``insert``/``batch`` requests on one table
execute as one vectorized statement with one commit
(:meth:`ReproServer.handle_run`); their replies and the table state are
those the requests would have produced one by one.

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

import threading
from typing import TYPE_CHECKING, Any

from ..concurrency.locks import DEFAULT_LOCK_TIMEOUT
from ..errors import ReproError, TransactionStateError
from ..indexes.definition import IndexDefinition
from ..query.predicate import And, Eq, IsNull, Predicate
from ..sql import ast as sql_ast
from ..sql import parse
from ..sql.interpreter import SqlSession
from ..storage.database import Database
from ..storage.wal import open_durable
from ..testing.faults import fire
from . import wire
from .core import _RETRYABLE, Overloaded, WireServer, error_response, stamp_of
from .ledger import LedgerEntry, LedgerError, ResultLedger

if TYPE_CHECKING:  # pragma: no cover
    from ..concurrency.session import Session
    from ..storage.wal import RecoveryReport

#: Granted to admission-queue waits before the request is bounced.
DEFAULT_ADMISSION_TIMEOUT = 2.0

#: A reply send blocked longer than this disconnects the (stalled)
#: reader instead of pinning its connection thread forever.
DEFAULT_SEND_TIMEOUT = 10.0

#: Ledgered commits between durable checkpoints (log compaction) — a
#: pipelined run or a ``batch`` is one commit, however many rows or
#: stamps it carries.  MVCC version collection keeps its own cadence of
#: this many ledgered requests, with or without a durable log.
DEFAULT_CHECKPOINT_EVERY = 256

#: Ops that may commit under an idempotency key.  ``begin`` is absent on
#: purpose: retrying it on a fresh connection is inherently safe (the
#: torn connection's transaction was rolled back at disconnect).
#: ``txn`` is the shard coordinator's one-phase batch: it autocommits,
#: so a redelivered batch must replay rather than re-execute.  ``batch``
#: is the vectorized multi-row insert: one stamp covers the whole batch.
_LEDGERED_OPS = frozenset(
    {"insert", "delete", "update", "execute", "commit", "txn", "batch"}
)


class ReproServer(WireServer):
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
        resolve_after: float | None = None,
        presume_abort_after: float | None = None,
    ) -> None:
        super().__init__(
            host, port, send_timeout,
            "rejected", "rolled_back_on_shutdown", "idempotent_replays",
            "checkpoints",
        )
        self.db = db if db is not None else Database("served")
        if self.db.session_manager is None:
            self.db.enable_sessions(lock_timeout=lock_timeout)
        self.sessions = self.db.session_manager
        self.max_inflight = max_inflight
        self.admission_timeout = admission_timeout
        self._admission = threading.Semaphore(max_inflight)
        self._admission_mu = threading.Lock()
        self._admission_waiting = 0
        # Durability: a data_dir makes the WAL file-backed and replays
        # the pre-crash database (plus the exactly-once ledger) on start.
        self.ledger = ResultLedger()
        self.data_dir = data_dir
        self.recovery_report: "RecoveryReport | None" = None
        if checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        self.checkpoint_every = checkpoint_every
        self._commits_since_checkpoint = 0
        self._requests_since_prune = 0
        #: The transaction a coordinator's ``txn`` op left open on a
        #: session, with that op's reply: the stamped ``commit`` that
        #: ends it ledgers and answers those results (:meth:`_op_txn`).
        self._opened: dict["Session", tuple[Any, dict[str, Any]]] = {}
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
            # The records recovery read serve the ledger and the 2PC pass
            # too: a restart reads the log once (none on a fresh dir).
            report = self.recovery_report
            records = () if report is None else report.take_records()
            self.ledger.restore(wal.checkpoint_extras.get("ledger"), records)
            # Reinstate in-doubt 2PC transactions before serving: their
            # re-acquired locks must be in place when the first client
            # statement arrives.
            self.twophase.reinstate(records)

    # ------------------------------------------------------------------
    # Lifecycle and per-connection state (the core's role hooks)

    def shutdown(self, timeout: float = 10.0) -> int:
        """Drain and stop.  Returns how many open transactions were
        rolled back on behalf of their (now disconnected) sessions."""
        if self._listener is None:
            return 0
        self.twophase.stop()
        self.stop_serving(timeout)
        # Draining connections roll back their own sessions; close_all
        # picks up whatever was left (e.g. sessions created outside a
        # connection, or one whose statement outlived the deadline).
        self.stats.bump("rolled_back_on_shutdown", self.sessions.close_all())
        wal = self.db.wal
        if wal is not None:
            # A connection cut off at the deadline, or one whose replies
            # could not be sent, may have left commits in the buffer.
            wal.flush()
            if self.data_dir is not None:
                wal.close()  # the log this server opened on data_dir
        return self.stats.snapshot()["rolled_back_on_shutdown"]

    def open_connection(self, conn_id: int) -> "tuple[Session, SqlSession]":
        session = self.sessions.session()
        session.on_commit = self._record_commit
        # Commits append and release their locks; settle() pays the
        # flush once per burst, before any reply is written.
        session.flush_on_commit = False
        return session, SqlSession(self.db)

    def close_connection(self, state: "tuple[Session, SqlSession]") -> None:
        session = state[0]
        if session.in_transaction and self._stopping.is_set():
            self.stats.bump("rolled_back_on_shutdown")
        self._opened.pop(session, None)
        session.close()  # rolls an open transaction back

    def handle(
        self, state: "tuple[Session, SqlSession]", request: dict[str, Any]
    ) -> dict[str, Any]:
        fire("server.request")
        return self._dispatch(*state, request)

    def run_length(
        self,
        state: "tuple[Session, SqlSession]",
        requests: list[dict[str, Any]],
        start: int,
    ) -> int:
        """Consecutive autocommit ``insert``/``batch`` requests on one
        table, no stamp twice: :meth:`handle_run` executes them as one
        statement.  Anything else — another op or table, an open
        transaction, a repeated stamp — ends the run."""
        table = _insert_table(requests[start])
        if table is None or state[0].in_transaction:
            return 1
        stamps: set[tuple[str, int]] = set()
        end = start
        for request in requests[start:]:
            stamp = stamp_of(request)
            if _insert_table(request) != table or stamp in stamps:
                break
            if stamp is not None:
                stamps.add(stamp)
            end += 1
        return end - start

    def handle_run(
        self,
        state: "tuple[Session, SqlSession]",
        run: list[dict[str, Any]],
    ) -> list[dict[str, Any] | Exception]:
        """A run of autocommit inserts on one table (:meth:`run_length`)
        as one :func:`~repro.core.batch.batch_insert_rows` statement in
        one implicit transaction, whose commit record carries the ledger
        entry of every stamp in it.

        Each request first crosses the fault point and the ledger as a
        lone one would (:meth:`handle`): one that fails there, or
        replays, is answered in place.  The rest execute together; if
        that raises anything — a veto, a lock wait gone wrong, a failed
        witness re-check — the statement is rolled back whole and they
        re-run one by one through :meth:`_dispatch`, so every reply and
        the table state are what the requests alone would have made."""
        session, sql_session = state
        outcomes: list[Any] = []
        pending: list[tuple[int, LedgerEntry | None]] = []
        for position, request in enumerate(run):
            try:
                fire("server.request")
                entry, cached = self._ledger_lookup(session, request)
            except Exception as exc:  # noqa: BLE001 - this request's outcome
                outcomes.append(exc)
                continue
            outcomes.append(cached)
            if cached is None:
                pending.append((position, entry))
        if len(pending) > 1:
            try:
                responses = self._insert_run(session, run, pending)
            except Exception:  # noqa: BLE001 - rolled back; re-run one by one
                pass
            else:
                for (position, __), response in zip(pending, responses):
                    outcomes[position] = response
                pending = []
        for position, __ in pending:
            try:
                outcomes[position] = self._dispatch(
                    session, sql_session, run[position]
                )
            except Exception as exc:  # noqa: BLE001 - this request's outcome
                outcomes[position] = exc
        return outcomes

    def _insert_run(
        self,
        session: "Session",
        run: list[dict[str, Any]],
        pending: list[tuple[int, LedgerEntry | None]],
    ) -> list[dict[str, Any]]:
        """Insert the rows of ``run[position]`` for every pending
        position as one statement; one response per pending request,
        each filled into its ledger entry before the commit."""
        requests = [run[position] for position, __ in pending]
        row_lists = [_insert_rows(request) for request in requests]

        def work() -> list[dict[str, Any]]:
            rids = self.db.batch_insert(
                requests[0]["table"], [row for rows in row_lists for row in rows]
            )
            responses = []
            end = 0
            for request, rows, (__, entry) in zip(requests, row_lists, pending):
                start, end = end, end + len(rows)
                responses.append(self._fill(
                    entry, {"ok": True, **_inserted(request, rids[start:end])}
                ))
            return responses

        notes = tuple(entry for __, entry in pending if entry is not None)
        session.annotate_next_commit(notes or None)
        try:
            responses = self._admitted(lambda: session.execute(work))
        finally:
            session.annotate_next_commit(None)
        if notes:
            self._maybe_checkpoint()
        return responses

    def settle(self, state: "tuple[Session, SqlSession]") -> None:
        """Flush the log, always: whatever a queued reply reflects — this
        connection's commits, another's that a read or a ledger replay
        saw — was appended before the reply was built, and a flush that
        returns has made all of that durable.  An empty buffer proves
        nothing (another thread's flush may hold the record and still be
        inside its fsync), so there is no shortcut to take."""
        if self.db.wal is not None:
            self.db.wal.flush()

    # ------------------------------------------------------------------
    # Dispatch

    def _dispatch(
        self,
        session: "Session",
        sql_session: SqlSession,
        request: dict[str, Any],
    ) -> dict[str, Any]:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ReproError(f"unknown op {op!r}")

        # Exactly-once: a stamped mutating request first consults the
        # ledger (a hit replays the acknowledged result without touching
        # the database), then executes with a LedgerEntry annotated onto
        # the session so the commit record persists its result and the
        # commit itself enters it into the ledger (_record_commit).
        entry, cached = self._ledger_lookup(session, request)
        if cached is not None:
            return cached
        session.annotate_next_commit(entry)
        try:
            response = handler(session, sql_session, request, entry)
        finally:
            session.annotate_next_commit(None)
        if entry is not None:
            self._maybe_checkpoint()
        return response

    def _record_commit(self, note: Any) -> None:
        """Enter a committed request — or each request of a committed
        run, whose note is a tuple of entries — into the ledger, and
        count the commit once toward the next checkpoint and each entry
        toward the next version collection (:meth:`_maybe_checkpoint`).

        Runs inside the commit (``Session.on_commit``), under the
        committing statement's latch.  A checkpoint takes that latch, so
        the ledger it snapshots holds every stamp whose commit record it
        truncates; recorded any later, a checkpoint from another
        connection could slip in between, and after a crash the
        redelivered stamp would execute a second time.
        """
        entries = [
            entry for entry in (note if isinstance(note, tuple) else (note,))
            if isinstance(entry, LedgerEntry)
        ]
        for entry in entries:
            self.ledger.record(entry.client_id, entry.request_id, entry.result)
        if entries:
            self._commits_since_checkpoint += 1
            self._requests_since_prune += len(entries)

    def _ledger_lookup(
        self, session: "Session", request: dict[str, Any]
    ) -> tuple[LedgerEntry | None, dict[str, Any] | None]:
        """The request's ledger entry (None when it earns none) and, if
        its stamp already committed, the acknowledged reply to replay."""
        entry = self._ledger_entry_for(session, request.get("op"), request)
        if entry is None:
            return None, None
        cached = self.ledger.replay(entry.client_id, entry.request_id)
        if cached is not None:
            self.stats.bump("idempotent_replays")
        return entry, cached

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
        """Collect the MVCC versions no snapshot can reach any more once
        ``checkpoint_every`` ledgered requests accumulated, and compact
        the durable log once ``checkpoint_every`` ledgered commits did.

        The two cadences differ only for pipelined runs, whose one
        commit carries many requests: the log they write is small, but
        every row still leaves a version behind.  Runs opportunistically
        on a handler thread after its own statement finished.  The
        statement latch excludes concurrent statements; any *idle* open
        transaction defers the checkpoint to a later commit (a
        checkpoint must snapshot a committed state), never the
        collection (an open transaction's snapshot bounds what it
        drops).
        """
        every = self.checkpoint_every
        if every <= 0 or (
            self._requests_since_prune < every
            and self._commits_since_checkpoint < every
        ):
            return
        wal = self.db.wal
        with self.sessions.latch:
            if self._requests_since_prune >= every:
                self.sessions.versions.prune()
                self._requests_since_prune = 0
            if self._commits_since_checkpoint < every:
                return
            if wal is None or not wal.is_durable:
                self._commits_since_checkpoint = 0
                return
            if any(s.in_transaction for s in self.sessions.open_sessions):
                return
            wal.checkpoint(self.db, extras={"ledger": self.ledger.snapshot()})
            self.stats.bump("checkpoints")
            self._commits_since_checkpoint = 0

    @staticmethod
    def _fill(
        entry: LedgerEntry | None, response: dict[str, Any]
    ) -> dict[str, Any]:
        """Record *response* as the entry's result — called inside the
        transaction, i.e. before the commit appends the entry to the log
        (the flush that carries it out serialises it as it is then)."""
        if entry is not None:
            entry.result = response
        return response

    def error_reply(
        self, state: "tuple[Session, SqlSession]", exc: Exception
    ) -> dict[str, Any]:
        if isinstance(exc, Overloaded):
            self.stats.bump("rejected")
        # A deadlock victim / timed-out statement leaves the transaction
        # holding its locks; the only sane continuation is rollback, so
        # do it server-side and tell the client.
        session = state[0]
        rolled_back = isinstance(exc, _RETRYABLE) and session.in_transaction
        if rolled_back:
            self._opened.pop(session, None)
            session.rollback()
        return error_response(exc, rolled_back)

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

    def _op_row(self, session, sql_session, request, entry) -> dict[str, Any]:
        """``insert`` / ``batch`` / ``delete`` / ``update``: one statement
        (autocommit, or part of the session's open transaction) running
        the request as its own :func:`run_row_op`."""

        def work() -> dict[str, Any]:
            return self._fill(entry, {"ok": True, **run_row_op(self.db, request)})

        return self._admitted(lambda: session.execute(work))

    _op_insert = _op_batch = _op_delete = _op_update = _op_row

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
        # Fill before committing: the commit record carries the entry.
        # Ending a transaction a ``txn`` op left open answers — and
        # ledgers — the results of the ops that transaction ran.
        txn, opened = self._opened.pop(session, (None, None))
        if txn is None or txn is not session.transaction:
            opened = {"ok": True}
        response = self._fill(entry, opened)
        session.commit()
        return response

    def _op_rollback(self, session, sql_session, request, entry) -> dict[str, Any]:
        self._opened.pop(session, None)
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
        """A write's whole share on its one writing shard: witness pins,
        then row ops, in one transaction under the client's stamp.

        When every pin hits, it commits on the spot — the write's one
        phase.  When a partial pin misses, the transaction stays open,
        holding its rows' X locks, and the reply says ``open``: the
        coordinator pins the witness on another shard by a read-only
        ``probe``, then ends this transaction with a ``commit`` under
        the same stamp (which ledgers these results) or a ``rollback``.
        """
        from ..sharding.twophase import apply_shard_op

        ops = request.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ReproError("txn needs a non-empty 'ops' list")
        if session.in_transaction:
            raise TransactionStateError(
                "txn inside an explicit transaction is not supported"
            )

        def run() -> dict[str, Any]:
            with session.use(), session.db_latch():
                txn = self.db.begin()
                try:
                    results = [apply_shard_op(self, session, op) for op in ops]
                    response = {"ok": True, "results": results}
                    if any(
                        item["op"] == "pin" and item["pinned"] is None
                        for item in results
                    ):
                        self._opened[session] = (txn, response)
                        return {**response, "open": True}
                    self._fill(entry, response)
                    txn.commit()
                except BaseException:
                    if txn.is_open:
                        txn.rollback()
                    raise
                return response

        return self._admitted(run)

    def _op_probe(self, session, sql_session, request, entry) -> dict[str, Any]:
        """Pin the witnesses of a write homed on other shards: each of
        ``pins`` (:func:`repro.sharding.twophase.probe`) in one
        transaction that commits at once.  The commit releases the
        S-locks and, writing nothing, appends no log record.  Answers
        the pinned key, or None, per pin."""
        from ..sharding.twophase import probe

        pins = request.get("pins")
        if not isinstance(pins, list) or not pins:
            raise ReproError("probe needs a non-empty 'pins' list")
        pinned = self._admitted(lambda: session.execute(
            lambda: [probe(self, session, pin) for pin in pins]
        ))
        return {"ok": True, "pinned": pinned}

    def _op_provision(self, session, sql_session, request, entry) -> dict[str, Any]:
        """Create whichever of the named indexes this database lacks.

        The coordinator sends its catalog's index design before the
        first request it routes here (DESIGN.md §5i).  A table's missing
        indexes are built in one heap scan and each logged as WAL DDL
        under the exclusive statement latch, so restart and recovery
        rebuild them; a repeat creates nothing.
        """
        wanted = request.get("indexes")
        if not isinstance(wanted, dict):
            raise ReproError("provision needs an 'indexes' object")
        if session.in_transaction:
            raise TransactionStateError(
                "provision inside an explicit transaction is not supported"
            )

        def run() -> list[str]:
            created = []
            with session.use(), session.db_latch():
                for table_name, specs in wanted.items():
                    present = self.db.table(table_name).indexes
                    missing: dict[str, IndexDefinition] = {}
                    for spec in specs:
                        definition = IndexDefinition(
                            spec["name"], tuple(spec["columns"])
                        )
                        if definition.name in present:
                            known = present.get(definition.name).definition
                        else:
                            known = missing.setdefault(definition.name, definition)
                        if known.columns != definition.columns:
                            raise ReproError(
                                f"index {definition.name!r} exists on other "
                                f"columns than {definition.columns}"
                            )
                    self.db.create_indexes(table_name, list(missing.values()))
                    created += list(missing)
            return created

        return {"ok": True, "created": self._admitted(run)}

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


def run_row_op(db: Database, op: dict[str, Any]) -> dict[str, Any]:
    """Decode and execute one row op — the single definition behind the
    client-facing ``insert``/``batch``/``delete``/``update`` handlers,
    the coordinator's ``txn`` op and the 2PC participant's prepare and
    recovery (:func:`repro.sharding.twophase.apply_shard_op`).  Values
    arrive wire-encoded; the caller supplies the statement context."""
    kind = op.get("op")
    if kind not in ("insert", "batch", "delete", "update"):
        raise ReproError(f"unknown row op {kind!r}")
    table = op["table"]
    if kind == "insert":
        return _inserted(op, [db.insert(table, wire.decode_values(op["values"]))])
    if kind == "batch":
        # Vectorized: one transaction, one index walk per run of
        # adjacent keys (repro.core.batch).
        return _inserted(op, db.batch_insert(table, _insert_rows(op)))
    # Raw wire equals: _predicate_from turns JSON null into IS NULL.
    predicate = _predicate_from(op.get("equals"))
    if kind == "delete":
        return {"rowcount": db.delete_where(table, predicate)}
    assignments = {
        column: wire.decode_value(value)
        for column, value in op["assignments"].items()
    }
    return {"rowcount": db.update_where(table, assignments, predicate)}


def _insert_rows(op: dict[str, Any]) -> list[list[Any]]:
    """The decoded rows an ``insert`` (one) or ``batch`` op carries."""
    if op["op"] == "insert":
        return [wire.decode_values(op["values"])]
    rows = op.get("rows")
    if not isinstance(rows, list):
        raise ReproError("batch needs a 'rows' list")
    return [wire.decode_values(row) for row in rows]


def _inserted(op: dict[str, Any], rids: list[int]) -> dict[str, Any]:
    """What an ``insert`` or ``batch`` op answers for its rows' rids."""
    if op["op"] == "insert":
        return {"rid": rids[0]}
    return {"rids": rids, "rowcount": len(rids)}


def _insert_table(request: dict[str, Any]) -> str | None:
    """The table of a well-formed ``insert``/``batch`` request, the only
    ops a run (:meth:`ReproServer.run_length`) is made of; else None."""
    op, table = request.get("op"), request.get("table")
    if op == "insert":
        rows = request.get("values")
    elif op == "batch":
        rows = request.get("rows")
    else:
        return None
    return table if isinstance(table, str) and isinstance(rows, list) else None


def _predicate_from(equals: dict[str, Any] | None) -> Predicate | None:
    """Column=value conjunction; JSON null means IS NULL."""
    if not equals:
        return None
    parts: list[Predicate] = [
        IsNull(column) if value is None else Eq(column, value)
        for column, value in equals.items()
    ]
    return parts[0] if len(parts) == 1 else And(*parts)
