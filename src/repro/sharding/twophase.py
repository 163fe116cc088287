"""The two-phase-commit participant living inside a shard server.

Presumed-abort 2PC, participant side (DESIGN.md §5i).  The coordinator
(:mod:`repro.sharding.coordinator`) sends ``prepare`` batches — witness
``pin``s and the server's own row ops (:func:`apply_shard_op`).  The
participant executes the batch inside an open transaction (acquiring its
2PL locks, including the FK witness S-pins), writes a durable ``prepare``
record through the shard's WAL, and only then votes.  A later ``decide``
first appends a ``decide`` record, then commits the data transaction
(with a :class:`TwoPhaseMarker` riding the commit record; the commit's
one flush makes both durable, in that order) or rolls it back (after
flushing the abort record on its own).

In-doubt state machine, as recovery sees the durable log::

    nothing            -> the txn never voted: it died with the crash,
                          the coordinator presumes abort
    prepare            -> IN DOUBT: re-execute the batch, re-acquire the
                          locks, hold them, and ask the coordinator
    prepare + decide(abort)  -> resolved abort: nothing to redo
    prepare + decide(commit) -> the decision outran the data commit:
                          re-execute and commit now (recovery window)
    prepare + decide(commit) + marker -> fully committed: redo replay
                          already restored the rows

An in-doubt transaction keeps its session (and therefore its locks)
open: conflicting writers block on the prepared keys exactly as they
would have blocked on the live transaction, which is what makes the
window safe rather than merely short.  Open prepared sessions also hold
off WAL checkpoints (a checkpoint requires no open transaction), so
``prepare`` records can never be truncated out from under an in-doubt
transaction.

Resolution is pull-based and coordinator-authoritative: a resolver
thread asks the coordinator's decision log (``resolve`` op) after
``resolve_after`` seconds.  A logged decision is final; no log entry and
not in flight means presumed abort.  Only when the coordinator stays
*unreachable* past ``presume_abort_after`` does the participant abort
unilaterally — the timeout must comfortably exceed any coordinator
restart, because a prepared vote is a promise.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..concurrency import hooks
from ..errors import ReferentialIntegrityViolation, ReproError
from ..server import wire
from ..server.core import Counters
from ..server.server import run_row_op
from ..testing.faults import fire

if TYPE_CHECKING:  # pragma: no cover
    from ..concurrency.session import Session
    from ..server.server import ReproServer
    from ..storage.wal import WalRecord

#: Ask the coordinator about an in-doubt transaction after this long.
DEFAULT_RESOLVE_AFTER = 1.0

#: Abort unilaterally only after the coordinator has been *unreachable*
#: this long.  Deliberately far above any restart time: a prepared vote
#: promised the coordinator it may still commit.
DEFAULT_PRESUME_ABORT_AFTER = 120.0

#: Resolver wake-up cadence.
_POLL_S = 0.25

#: Decided gtids remembered for duplicate-decide idempotency.
_RESOLVED_MEMORY = 4096


class TwoPhaseError(ReproError):
    """A 2PC protocol violation (mismatched decide, pin outside txn...)."""


@dataclass(frozen=True)
class TwoPhaseMarker:
    """Commit-record note marking a data commit as the outcome of global
    transaction *gtid*.

    Rides the WAL commit record the same way the result ledger's entries
    do (:meth:`~repro.storage.wal.WriteAheadLog.commit`); the ledger's
    restore ignores it (it only interprets ``LedgerEntry``), while
    :meth:`TwoPhaseParticipant.reinstate` uses it to tell "decided and
    committed" apart from "decided, crashed before the data commit".
    """

    gtid: str


@dataclass
class PreparedTxn:
    """One voted-but-undecided transaction and its open session."""

    gtid: str
    session: "Session"
    resolve_addr: tuple[str, int] | None
    #: seq -> the ops of that prepare batch (idempotent redelivery key).
    batches: dict[int, list[dict[str, Any]]] = field(default_factory=dict)
    #: seq -> the acknowledged per-op results of that batch.
    results: dict[int, list[dict[str, Any]]] = field(default_factory=dict)
    prepared_at: float = 0.0
    reinstated: bool = False
    #: The verdict a :meth:`TwoPhaseParticipant.decide` is applying.  The
    #: transaction stays prepared (``holds`` answers True) until that
    #: decide has remembered the verdict; a duplicate answers with it.
    deciding: str | None = None
    #: Serialises batch execution per transaction, so a redelivered
    #: prepare (torn reply) waits for the original instead of racing it.
    mu: threading.Lock = field(default_factory=threading.Lock)


def apply_shard_op(
    server: "ReproServer", session: "Session", op: dict[str, Any]
) -> dict[str, Any]:
    """Execute one shard-level sub-operation of a distributed transaction:
    a witness ``pin`` (:func:`probe`), or one of the server's row ops
    (:func:`repro.server.server.run_row_op`, values wire-encoded exactly
    as the coordinator forwarded them).

    A pin names the exact parent key, or only a child row's non-NULL
    components plus the parent ``key`` columns.  An exact key is the
    only possible witness, so its miss vetoes the write here; a partial
    pin that misses answers ``pinned: None`` and the coordinator looks
    on the other shards.

    Must run inside a statement context of *session* (the caller wraps
    the batch in :meth:`Session.execute`).
    """
    kind = op.get("op")
    if kind == "pin":
        pinned = probe(server, session, op)
        if pinned is None and "key" not in op:
            raise ReferentialIntegrityViolation(
                f"no row of {op['table']!r} matches {op['equals']!r}; "
                "insert vetoed"
            )
        return {"op": "pin", "pinned": pinned}
    return {"op": kind, **run_row_op(server.db, op)}


def _decoded_equals(op: dict[str, Any]) -> dict[str, Any] | None:
    equals = op.get("equals")
    if not equals:
        return None
    return {column: wire.decode_value(value) for column, value in equals.items()}


def probe(
    server: "ReproServer", session: "Session", op: dict[str, Any]
) -> list[Any] | None:
    """Pin a witness parent on this shard: the (wire-encoded) full key
    of a parent matching ``op["equals"]``, S-locked by *session*'s open
    transaction; None when none matches.

    The shard side of a remote witness is the engine's one witness pin,
    :func:`repro.concurrency.hooks.verify_parent_exists`, on the parent
    ``table``: an exact key (no ``key`` field) is locked and then
    checked, a partial match (``key`` names the parent's key columns) is
    found, locked and re-checked, and found again when it vanished.

    Runs as a local pin inside a ``txn`` or ``prepare`` batch (held to
    that transaction's end), and as the coordinator's read-only
    ``probe`` request on a shard the write does not touch, whose
    transaction commits — and releases the lock — at once.
    """
    equals = _decoded_equals(op) or {}
    if not equals:
        raise TwoPhaseError("witness pin needs a non-empty 'equals' key")
    txn = session.transaction
    if txn is None or not txn.is_open:
        raise TwoPhaseError("witness pin outside an open transaction")
    columns = list(equals)
    pinned = hooks.verify_parent_exists(
        server.db, op["table"], op.get("key") or columns, columns,
        list(equals.values()),
    )
    return None if pinned is None else wire.encode_row(pinned)


class TwoPhaseParticipant:
    """Shard-side 2PC state: prepared transactions, decisions, recovery."""

    def __init__(
        self,
        server: "ReproServer",
        resolve_after: float = DEFAULT_RESOLVE_AFTER,
        presume_abort_after: float = DEFAULT_PRESUME_ABORT_AFTER,
    ) -> None:
        self.server = server
        self.resolve_after = resolve_after
        self.presume_abort_after = presume_abort_after
        self._mu = threading.Lock()
        self._prepared: dict[str, PreparedTxn] = {}
        #: gtid -> final verdict, bounded memory for duplicate decides.
        self._resolved: OrderedDict[str, str] = OrderedDict()
        self._stop = threading.Event()
        self._resolver: threading.Thread | None = None
        #: Exposed via the server's stats op (:meth:`stats_snapshot`).
        self.stats = Counters(
            "prepares", "commits", "aborts", "presumed_aborts", "recommitted",
            "reinstated", "forgotten_decides", "resolve_errors",
        )

    # ------------------------------------------------------------------
    # Phase one

    def prepare(
        self,
        gtid: str,
        ops: list[dict[str, Any]],
        seq: int = 0,
        resolve_addr: tuple[str, int] | None = None,
    ) -> list[dict[str, Any]]:
        """Execute a batch, write the durable prepare record, vote yes.

        Idempotent per ``(gtid, seq)``: a redelivered prepare (torn
        reply, coordinator retry onto a restarted shard) returns the
        original batch results without re-executing — a reinstated
        in-doubt transaction serves the vote it already gave.
        """
        fire("shard.prepare")
        with self._mu:
            verdict = self._resolved.get(gtid)
            if verdict is not None:
                raise TwoPhaseError(
                    f"transaction {gtid!r} was already decided ({verdict}); "
                    "it cannot be re-prepared"
                )
            txn = self._prepared.get(gtid)
            if txn is not None and seq in txn.batches:
                return txn.results[seq]
            if txn is not None and txn.deciding is not None:
                raise TwoPhaseError(
                    f"transaction {gtid!r} is being decided "
                    f"({txn.deciding}); it cannot be re-prepared"
                )
            if txn is None:
                session = self.server.sessions.session()
                session.begin()
                txn = PreparedTxn(
                    gtid, session, resolve_addr, prepared_at=time.monotonic()
                )
                self._prepared[gtid] = txn
        with txn.mu:
            with self._mu:
                if seq in txn.batches:  # redelivery raced the original
                    return txn.results[seq]
            try:
                results = self._execute_batch(txn, seq, ops, vote=True)
            except BaseException:
                self._drop_failed(gtid, txn)
                raise
        self.stats.bump("prepares")
        return results

    def _execute_batch(
        self, txn: PreparedTxn, seq: int, ops: list[dict[str, Any]], vote: bool
    ) -> list[dict[str, Any]]:
        """Run batch *seq* inside *txn*'s open transaction and file it
        under its idempotency key.  *vote* writes the durable prepare
        record first; recovery re-executes batches whose record it read."""
        results = txn.session.execute(
            lambda: [apply_shard_op(self.server, txn.session, op) for op in ops]
        )
        wal = self.server.db.wal
        if vote and wal is not None:
            # The vote is a durable promise: the prepare record must
            # survive a crash *before* the coordinator hears "yes".
            wal.log_two_phase(
                "prepare", (txn.gtid, seq, list(ops), txn.resolve_addr)
            )
        with self._mu:
            txn.batches[seq] = list(ops)
            txn.results[seq] = results
        return results

    def _drop_failed(self, gtid: str, txn: PreparedTxn) -> None:
        """A batch failed to execute: release everything and (if an
        earlier batch already voted) record the abort durably."""
        with self._mu:
            self._prepared.pop(gtid, None)
            voted_before = bool(txn.batches)
            if voted_before:
                self._remember_locked(gtid, "abort")
        if voted_before:
            wal = self.server.db.wal
            if wal is not None:
                wal.log_two_phase("decide", (gtid, "abort"))
        if txn.session.is_open:
            txn.session.close()  # rolls the open transaction back

    # ------------------------------------------------------------------
    # Phase two

    def decide(self, gtid: str, verdict: str) -> str:
        """Apply the coordinator's decision.  Decide record first, then
        the data commit/rollback — the log order recovery relies on; a
        commit costs one flush for both.  Idempotent; unknown gtids
        answer ``"forgotten"`` (safe under presumed abort: a voted
        transaction is never forgotten, so "forgotten" proves nothing
        was prepared here).  The transaction stays prepared until its
        verdict is remembered, so a duplicate decide racing this one
        answers ``already-<verdict>``, never "forgotten"."""
        fire("shard.decide")
        if verdict not in ("commit", "abort"):
            raise TwoPhaseError(f"unknown 2PC verdict {verdict!r}")
        with self._mu:
            txn = self._prepared.get(gtid)
            prior = self._resolved.get(gtid) if txn is None else txn.deciding
            if prior is not None:
                if prior != verdict:
                    raise TwoPhaseError(
                        f"transaction {gtid!r} already resolved "
                        f"{prior!r}; conflicting decide {verdict!r}"
                    )
                return f"already-{prior}"
            if txn is None:
                self.stats.bump("forgotten_decides")
                return "forgotten"
            txn.deciding = verdict
        decided = False
        try:
            self._apply_locked_decision(txn, verdict)
            decided = True
        finally:
            with self._mu:
                if self._prepared.get(gtid) is txn:
                    del self._prepared[gtid]
                if decided:
                    self._remember_locked(gtid, verdict)
        return verdict

    def _apply_locked_decision(self, txn: PreparedTxn, verdict: str) -> None:
        """:meth:`decide`'s work under ``txn.mu``: the decide record,
        then the data commit or rollback."""
        gtid = txn.gtid
        # txn.mu serialises against a still-executing prepare batch (the
        # coordinator can race an abort onto a torn prepare): the
        # decision waits for the batch rather than yanking its session.
        with txn.mu:
            if not txn.session.is_open:
                # The racing batch failed and already released
                # everything (and durably recorded the abort).
                if verdict == "commit":
                    raise TwoPhaseError(
                        f"commit decision for {gtid!r} arrived after its "
                        "prepare failed"
                    )
            else:
                wal = self.server.db.wal
                if wal is not None:
                    # A commit decision is appended unflushed: the data
                    # commit's flush below carries both out, decide first
                    # (a crash tearing them apart leaves "prepare +
                    # decide(commit), no marker", which reinstate
                    # finishes).  An abort has no data commit to ride.
                    wal.log_two_phase(
                        "decide", (gtid, verdict), sync=verdict != "commit"
                    )
                if verdict == "commit":
                    txn.session.annotate_next_commit(TwoPhaseMarker(gtid))
                    txn.session.commit()
                    self.stats.bump("commits")
                else:
                    txn.session.rollback()
                    self.stats.bump("aborts")
                txn.session.close()

    def _remember_locked(self, gtid: str, verdict: str) -> None:
        self._resolved[gtid] = verdict
        self._resolved.move_to_end(gtid)
        while len(self._resolved) > _RESOLVED_MEMORY:
            self._resolved.popitem(last=False)

    # ------------------------------------------------------------------
    # Restart recovery

    def reinstate(self, records: Iterable["WalRecord"]) -> int:
        """Rebuild 2PC state from the durable log's *records* after a
        restart.

        Redo replay already restored fully-committed work; this pass
        interprets the coordination records: finish commit-decided
        transactions whose data commit never landed, remember resolved
        verdicts, and *re-execute and hold* every in-doubt transaction so
        its locks block conflicting writers until resolution.  Must run
        before the server starts accepting connections.
        """
        prepares: dict[str, list[tuple[int, list[dict[str, Any]], Any]]] = {}
        order: list[str] = []
        decides: dict[str, str] = {}
        done: set[str] = set()
        for record in records:
            if record.kind == "prepare":
                gtid, seq, ops, resolve_addr = record.payload
                if gtid not in prepares:
                    prepares[gtid] = []
                    order.append(gtid)
                prepares[gtid].append((seq, ops, resolve_addr))
            elif record.kind == "decide":
                gtid, verdict = record.payload
                decides[gtid] = verdict
            elif (
                record.kind == "commit"
                and record.payload
                and isinstance(record.payload[0], TwoPhaseMarker)
            ):
                done.add(record.payload[0].gtid)

        in_doubt = 0
        for gtid in order:
            batches = sorted(prepares[gtid], key=lambda b: b[0])
            verdict = decides.get(gtid)
            if gtid in done or verdict == "abort":
                self._remember_locked(gtid, verdict or "commit")
                continue
            # Re-execute the voted batches in a fresh transaction.  The
            # locks re-acquire without contention: recovery runs before
            # serving, and coexisting in-doubt transactions never
            # conflict (2PL admitted them together before the crash).
            session = self.server.sessions.session()
            session.begin()
            txn = PreparedTxn(
                gtid,
                session,
                tuple(batches[0][2]) if batches[0][2] else None,
                prepared_at=time.monotonic(),
                reinstated=True,
            )
            for seq, ops, __ in batches:
                self._execute_batch(txn, seq, ops, vote=False)
            if verdict == "commit":
                # The decision was durable but the data commit was not:
                # finish it now (the decide record needs no re-logging).
                session.annotate_next_commit(TwoPhaseMarker(gtid))
                session.commit()
                session.close()
                with self._mu:
                    self._remember_locked(gtid, "commit")
                self.stats.bump("recommitted")
                continue
            with self._mu:
                self._prepared[gtid] = txn
            in_doubt += 1
        self.stats.bump("reinstated", in_doubt)
        if in_doubt:
            self.ensure_resolver()
        return in_doubt

    # ------------------------------------------------------------------
    # In-doubt resolution

    def ensure_resolver(self) -> None:
        """Start the background resolver thread (idempotent)."""
        if self._resolver is not None and self._resolver.is_alive():
            return
        self._stop.clear()
        self._resolver = threading.Thread(
            target=self._resolve_loop, name="repro-2pc-resolver", daemon=True
        )
        self._resolver.start()

    def _resolve_loop(self) -> None:
        while not self._stop.wait(_POLL_S):
            self.resolve_pass()

    def resolve_pass(self) -> None:
        """One resolution sweep over the in-doubt transactions."""
        now = time.monotonic()
        with self._mu:
            candidates = [
                txn
                for txn in self._prepared.values()
                if now - txn.prepared_at >= self.resolve_after
            ]
        for txn in candidates:
            try:
                fire("shard.resolve")
                verdict = self._ask_coordinator(txn)
                if verdict in ("commit", "abort"):
                    self.decide(txn.gtid, verdict)
                elif verdict is None and (
                    time.monotonic() - txn.prepared_at
                    >= self.presume_abort_after
                ):
                    # The coordinator has been unreachable for so long it
                    # is presumed dead for good; release the locks.
                    self.stats.bump("presumed_aborts")
                    self.decide(txn.gtid, "abort")
            except ReproError:
                # An injected resolve fault or a decide race: this sweep
                # skips the transaction, the next one retries.
                self.stats.bump("resolve_errors")

    def _ask_coordinator(self, txn: PreparedTxn) -> str | None:
        """``commit``/``abort``/``pending`` from the coordinator's
        decision log, or ``None`` when it is unreachable."""
        if txn.resolve_addr is None:
            return None
        from ..server.client import ReproClient, ServerError

        host, port = txn.resolve_addr
        try:
            with ReproClient(
                host, int(port), connect_timeout=1.0, auto_reconnect=False
            ) as coordinator:
                response = coordinator.request("resolve", gtid=txn.gtid)
        except (ServerError, wire.WireError, OSError):
            return None
        verdict = response.get("verdict")
        return verdict if isinstance(verdict, str) else None

    # ------------------------------------------------------------------

    def in_doubt(self) -> list[str]:
        with self._mu:
            return sorted(self._prepared)

    def holds(self, gtid: str) -> bool:
        with self._mu:
            return gtid in self._prepared

    def stats_snapshot(self) -> dict[str, int]:
        with self._mu:
            in_doubt = len(self._prepared)
        return {"in_doubt": in_doubt, **self.stats.snapshot()}

    def stop(self) -> None:
        """Stop the resolver thread (in-doubt sessions are left to the
        server's shutdown draining; their prepare records are durable)."""
        self._stop.set()
        if self._resolver is not None:
            self._resolver.join(timeout=5.0)
            self._resolver = None
