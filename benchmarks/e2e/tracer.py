"""Span tracer the benchmark's launcher installs around the engine's
public functions — no file under ``src/`` knows about it.

A *span* is one call of a wrapped function: name, start, end and the
span that caused it.  Every thread keeps its own span stack, so a span's
**self time** is its duration minus the time its direct child spans
cover, and the self times of everything below one outermost span (one
statement) add up to that statement's duration exactly.  Aggregates
(calls, total, self) are kept per thread and merged when the trace is
written; the first ``KEEP_TREES`` outermost spans are also kept whole,
each with an id its children share.

The hot path of a wrapper is two ``perf_counter`` reads, a list push/pop
and three additions.  ``loadgen.trace_overhead_share`` prices it per
workload; end-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable

#: Outermost spans kept as whole trees in the trace file.
KEEP_TREES = 200

#: Spans whose individual durations are kept (for a median), not just
#: their sum: the statement boundary the served metrics subtract from.
KEEP_DURATIONS = ("concurrency.session.execute",)


class _ThreadState:
    __slots__ = ("stack", "agg", "counters", "durations", "roots", "tree")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.agg: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.roots: dict[str, float] = {}
        #: Spans of the outermost span being recorded, or None.
        self.tree: list[tuple[str, int, float, float]] | None = None


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._mu = threading.Lock()
        self._states: list[_ThreadState] = []
        self._trees: list[dict[str, Any]] = []
        self._epoch = time.perf_counter()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._mu:
                self._states.append(state)
            return state

    def bump(self, name: str, amount: float = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    def reset(self) -> None:
        """Forget everything recorded so far (set-up work); call only
        while no span is open."""
        with self._mu:
            for state in self._states:
                state.agg.clear()
                state.counters.clear()
                state.durations.clear()
                state.roots.clear()
            self._trees.clear()

    # ------------------------------------------------------------------
    # Wrapping

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* recorded as a span called *name*."""
        perf = time.perf_counter
        get_state = self._state
        keep = name in KEEP_DURATIONS

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            stack = state.stack
            if not stack and state.tree is None and len(self._trees) < KEEP_TREES:
                state.tree = []
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                duration = end - start
                stack.pop()
                record = state.agg.get(name)
                if record is None:
                    record = state.agg[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                if keep:
                    state.durations.setdefault(name, []).append(duration)
                if state.tree is not None:
                    state.tree.append((name, len(stack), start, end))
                if stack:
                    stack[-1][0] += duration
                else:
                    state.roots[name] = state.roots.get(name, 0.0) + duration
                    if state.tree is not None:
                        self._finish_tree(state)

        return span

    def count_calls(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count calls of *fn* without opening a span (its time stays in
        the caller's self time)."""
        bump = self.bump

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            bump(name)
            return fn(*args, **kwargs)

        return counted

    def _finish_tree(self, state: _ThreadState) -> None:
        """Close the outermost span being recorded: spans arrive in exit
        order, so a span's parent is the next later one a level up."""
        spans = state.tree or []
        state.tree = None
        parents: list[int | None] = [None] * len(spans)
        open_at_depth: dict[int, list[int]] = {}
        for index, (__, depth, __s, __e) in enumerate(spans):
            for child in open_at_depth.pop(depth + 1, ()):
                parents[child] = index
            open_at_depth.setdefault(depth, []).append(index)
        with self._mu:
            if len(self._trees) >= KEEP_TREES:
                return
            self._trees.append({
                "id": len(self._trees) + 1,
                "thread": threading.current_thread().name,
                "spans": [
                    {
                        "name": name,
                        "start_us": round((start - self._epoch) * 1e6, 1),
                        "end_us": round((end - self._epoch) * 1e6, 1),
                        "parent": parents[index],
                    }
                    for index, (name, __, start, end) in enumerate(spans)
                ],
            })

    # ------------------------------------------------------------------
    # Reporting

    def report(self) -> dict[str, Any]:
        """Merged aggregates of every thread, JSON-ready."""
        with self._mu:
            states = list(self._states)
            trees = list(self._trees)
        agg: dict[str, list[float]] = {}
        counters: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        roots: dict[str, float] = {}
        for state in states:
            for name, (calls, total, own) in list(state.agg.items()):
                record = agg.setdefault(name, [0, 0.0, 0.0])
                record[0] += calls
                record[1] += total
                record[2] += own
            for name, amount in list(state.counters.items()):
                counters[name] = counters.get(name, 0) + amount
            for name, values in list(state.durations.items()):
                durations.setdefault(name, []).extend(values)
            for name, total in list(state.roots.items()):
                roots[name] = roots.get(name, 0.0) + total
        return {
            "spans": {
                name: {"calls": int(calls), "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(agg.items())
            },
            "counters": counters,
            "durations": {
                name: _summary(values) for name, values in durations.items()
            },
            "roots_s": roots,
            "trees": trees,
        }


def _summary(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)
    n = len(ordered)
    return {
        "count": n,
        "mean_ms": sum(ordered) / n * 1e3,
        "p50_ms": ordered[n // 2] * 1e3,
        "p95_ms": ordered[min(n - 1, int(n * 0.95))] * 1e3,
    }


# ----------------------------------------------------------------------
# Installation: which public functions become spans


def _replace_everywhere(module: Any, attr: str, wrapped: Any) -> None:
    """Rebind a module function in its home module and at every
    ``from x import f`` site among the loaded ``repro`` modules."""
    original = getattr(module, attr)
    for name, other in list(sys.modules.items()):
        if other is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapped)


def installed() -> bool:
    """Whether :func:`install` ran in this process.  It cannot be
    undone, so nothing measured untraced may share a process with it."""
    from repro.query import dml

    return hasattr(dml.insert, "__wrapped__")


def install(tracer: Tracer) -> None:
    """Wrap the engine's layer boundaries, once per process.  Must run
    before the first database is built: prepared probes and triggers
    bind late, but a reference taken earlier would bypass the span."""
    if installed():
        raise RuntimeError("a tracer is already installed in this process")
    from repro.concurrency import hooks
    from repro.concurrency.locks import LockManager, StatementLatch
    from repro.concurrency.session import Session
    from repro.core import batch
    from repro.indexes.btree import BPlusTree
    from repro.indexes.manager import IndexManager
    from repro.query import dml, probes
    from repro.server.ledger import ResultLedger
    from repro.sharding.catalog import ShardCatalog
    from repro.sharding.coordinator import DecisionLog
    from repro.sharding.twophase import TwoPhaseParticipant
    from repro.storage import wal
    from repro.storage.segments import SegmentStore
    from repro.storage.versions import ReadView, VersionStore
    from repro.triggers.framework import TriggerRegistry

    methods: list[tuple[str, type, str]] = [
        ("concurrency.session.execute", Session, "execute"),
        ("concurrency.session.snapshot_select", Session, "snapshot_select"),
        ("concurrency.locks.acquire", LockManager, "acquire"),
        ("concurrency.locks.release_all", LockManager, "release_all"),
        ("concurrency.locks.latch", StatementLatch, "acquire"),
        ("concurrency.locks.latch", StatementLatch, "acquire_shared"),
        ("server.ledger", ResultLedger, "replay"),
        ("server.ledger", ResultLedger, "record"),
        ("server.ledger", ResultLedger, "snapshot"),
        ("server.ledger", ResultLedger, "restore"),
        ("triggers.framework.fire", TriggerRegistry, "fire"),
        ("indexes.manager", IndexManager, "insert_row"),
        ("indexes.manager", IndexManager, "insert_rows"),
        ("indexes.manager", IndexManager, "delete_row"),
        ("indexes.manager", IndexManager, "update_row"),
        ("query.probes", probes.PreparedProbe, "exists"),
        ("query.probes", probes.PreparedProbe, "find"),
        ("storage.versions", VersionStore, "on_mutation"),
        ("storage.versions", VersionStore, "on_commit"),
        ("storage.versions", VersionStore, "on_rollback"),
        ("storage.versions", VersionStore, "open_snapshot"),
        ("storage.versions", VersionStore, "committed_view"),
        ("storage.versions", ReadView, "row"),
        ("storage.versions", ReadView, "divergent_rids"),
        ("storage.versions.prune", VersionStore, "prune"),
        ("storage.wal.log", wal.WriteAheadLog, "begin"),
        ("storage.wal.log", wal.WriteAheadLog, "log_mutation"),
        ("storage.wal.log", wal.WriteAheadLog, "log_autocommit"),
        ("storage.wal.log", wal.WriteAheadLog, "log_two_phase"),
        ("storage.wal.commit", wal.WriteAheadLog, "commit"),
        ("storage.wal.flush", wal.WriteAheadLog, "flush"),
        ("storage.wal.checkpoint", wal.WriteAheadLog, "checkpoint"),
        ("sharding.twophase.prepare", TwoPhaseParticipant, "prepare"),
        ("sharding.twophase.decide", TwoPhaseParticipant, "decide"),
        ("sharding.catalog.route", ShardCatalog, "shard_for"),
        ("sharding.catalog.route", ShardCatalog, "route"),
        ("sharding.coordinator.decision_log", DecisionLog, "record_decision"),
    ]
    for name, cls, attr in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    # Storage writes also report their size, for bytes per user byte.
    append = tracer.wrap("storage.segments.append", SegmentStore.append)
    write_checkpoint = tracer.wrap(
        "storage.segments.write_checkpoint", SegmentStore.write_checkpoint
    )

    def counted_append(self: Any, payloads: Any) -> None:
        tracer.bump("segment_bytes", sum(len(p) + 8 for p in payloads))
        append(self, payloads)

    def counted_checkpoint(self: Any, blob: bytes) -> None:
        tracer.bump("checkpoint_bytes", len(blob))
        write_checkpoint(self, blob)

    SegmentStore.append = counted_append  # type: ignore[method-assign]
    SegmentStore.write_checkpoint = counted_checkpoint  # type: ignore[method-assign]
    BPlusTree.insert_run = tracer.count_calls(  # type: ignore[method-assign]
        "btree_insert_run_calls", BPlusTree.insert_run
    )

    functions: list[tuple[str, Any, str]] = [
        ("query.dml.update", dml, "update_where"),
        ("query.dml.update", dml, "update_rid"),
        ("query.dml.delete_rid", dml, "delete_rid"),
        ("query.probes", probes, "exists_eq"),
        ("query.probes", probes, "find_eq"),
        ("query.probes", probes, "exists_eq_many"),
        ("concurrency.hooks.verify", hooks, "verify_parent_exists"),
        ("concurrency.hooks.verify", hooks, "verify_parent_exists_many"),
        ("concurrency.hooks.revalidate", hooks, "revalidate_witnesses"),
        ("core.batch", batch, "batch_insert_rows"),
        ("storage.wal.recover", wal, "recover"),
    ]
    for name, module, attr in functions:
        _replace_everywhere(module, attr, tracer.wrap(name, getattr(module, attr)))

    # The two statement kinds the paper prices also report the logical
    # cost they caused, so reads per insert and entries scanned per
    # delete are ratios taken where the work happens.
    def with_cost(name: str, fn: Any, counter: str) -> Any:
        inner = tracer.wrap(name, fn)

        @functools.wraps(fn)
        def costed(db: Any, *args: Any, **kwargs: Any) -> Any:
            counters = db.tracker.counters
            before = counters[counter]
            try:
                return inner(db, *args, **kwargs)
            finally:
                tracer.bump(f"{name}.{counter}", counters[counter] - before)

        return costed

    _replace_everywhere(
        dml, "insert", with_cost("query.dml.insert", dml.insert, "index_node_reads")
    )
    _replace_everywhere(
        dml, "delete_where",
        with_cost("query.dml.delete", dml.delete_where, "index_entries_scanned"),
    )
