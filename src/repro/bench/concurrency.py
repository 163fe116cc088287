"""Concurrent-enforcement throughput: Bounded vs Hybrid under load.

The paper measures enforcement cost one statement at a time; this
experiment asks what the same trigger + index machinery costs when many
sessions hammer it at once.  Worker threads run a mixed stream of child
inserts (partially NULL-marked foreign keys, so the MATCH PARTIAL
subsumption probes and their witness locks are exercised) and parent
deletes (SET NULL enforcement) through isolated
:class:`~repro.concurrency.session.Session` objects sharing one strict-2PL
lock manager.  Reported per cell: throughput, mean statement latency,
total lock-wait time, and how often the deadlock detector or the timeout
backstop had to abort a statement.

A second experiment (:func:`read_mix_scaling`) measures the MVCC side:
read:write mixes of 90:10 and 99:1 where every read is a lock-free
snapshot read (:meth:`Session.snapshot_select`) while writers keep the
strict-2PL protocol.  Reader lock traffic is measured over a pure-read
tail phase and must be exactly zero — snapshot reads never touch the
lock manager.

Run via ``python -m repro experiment concurrency`` (or ``read_mix``).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from ..core.strategies import IndexStructure
from ..errors import (
    DeadlockError,
    LockTimeoutError,
    ReferentialIntegrityViolation,
    RestrictViolation,
    SerializationError,
)
from ..query.predicate import equalities
from ..workloads import synthetic
from . import harness, report
from .scale import ScalePlan

#: Structures worth contrasting under concurrency: the paper's overall
#: recommendation and its strongest rival for low column counts.
STRUCTURES = (IndexStructure.BOUNDED, IndexStructure.HYBRID)

#: Statement-level retries per worker before an op is abandoned.
_RETRIES = 6

_RETRYABLE = (DeadlockError, LockTimeoutError, SerializationError)
_VETOES = (ReferentialIntegrityViolation, RestrictViolation)

#: Read percentages of the snapshot-read scaling experiment: a
#: read-mostly OLTP shape and a nearly-read-only one.
READ_MIXES = (90, 99)

#: Snapshot reads per worker in the pure-read tail of a read-mix cell.
_TAIL_READS = 25


def thread_counts(plan: ScalePlan) -> tuple[int, ...]:
    return (1, 2, 4) if plan.quick else (1, 2, 4, 8, 16)


@dataclass
class CellResult:
    """One (structure, thread count) measurement."""

    structure: str
    threads: int
    ops: int
    elapsed_s: float
    latency_ms: float
    lock_waits: int
    lock_wait_s: float
    deadlocks: int
    timeouts: int
    vetoed: int
    clean: bool

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _session_cell(structure: IndexStructure, plan: ScalePlan):
    """A fresh 3-column cell (600 parents in a quick plan, else 1,500)
    and its session manager."""
    config = synthetic.SyntheticConfig(
        n_columns=3, parent_rows=600 if plan.quick else 1500
    )
    cell = harness.prepare_cell(config, structure)
    return cell, cell.db.enable_sessions(lock_timeout=5.0)


def run_cell(
    structure: IndexStructure, n_threads: int, plan: ScalePlan
) -> CellResult:
    """Measure one mixed workload cell on a freshly built database."""
    cell, manager = _session_cell(structure, plan)

    inserts = synthetic.insert_stream(cell.dataset, plan.insert_ops, seed=7)
    deletes = synthetic.delete_stream(cell.dataset, plan.delete_ops, seed=17)
    ops: list[tuple[str, object]] = (
        [("insert", row) for row in inserts]
        + [("delete", key) for key in deletes]
    )
    random.Random(3).shuffle(ops)
    shards: list[list[tuple[str, object]]] = [[] for __ in range(n_threads)]
    for index, op in enumerate(ops):
        shards[index % n_threads].append(op)

    child = cell.fk.child_table
    parent = cell.fk.parent_table
    key_columns = cell.fk.key_columns
    vetoed = [0] * n_threads
    latency_s = [0.0] * n_threads
    errors: list[BaseException] = []

    def worker(worker_id: int, shard: list[tuple[str, object]]) -> None:
        session = manager.session()
        try:
            for kind, payload in shard:
                started = time.perf_counter()
                for attempt in range(_RETRIES):
                    try:
                        if kind == "insert":
                            session.insert(child, payload)
                        else:
                            session.delete_where(
                                parent, equalities(key_columns, payload)
                            )
                        break
                    except _RETRYABLE:
                        if attempt == _RETRIES - 1:
                            vetoed[worker_id] += 1  # gave up; counted apart
                    except _VETOES:
                        vetoed[worker_id] += 1
                        break
                latency_s[worker_id] += time.perf_counter() - started
        except BaseException as exc:  # noqa: BLE001 - reported by caller
            errors.append(exc)
        finally:
            session.close()

    threads = [
        threading.Thread(target=worker, args=(i, shard), daemon=True)
        for i, shard in enumerate(shards)
    ]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - wall_started
    if errors:
        raise errors[0]

    stats = manager.locks.stats.snapshot()
    clean = cell.db.verify_integrity().ok
    total_ops = len(ops)
    return CellResult(
        structure=harness.structure_label(structure, False),
        threads=n_threads,
        ops=total_ops,
        elapsed_s=elapsed,
        latency_ms=sum(latency_s) / total_ops * 1000.0,
        lock_waits=int(stats["waits"]),
        lock_wait_s=stats["wait_time_s"],
        deadlocks=int(stats["deadlocks"]),
        timeouts=int(stats["timeouts"]),
        vetoed=sum(vetoed),
        clean=clean,
    )


@dataclass
class ReadMixResult:
    """One (structure, read %, thread count) snapshot-read measurement."""

    structure: str
    read_pct: int
    threads: int
    reads: int
    writes: int
    elapsed_s: float
    #: Lock-manager traffic attributed to snapshot readers, measured
    #: over a pure-read tail phase: MVCC reads take zero logical locks,
    #: so both deltas must be exactly 0.
    reader_lock_acquires: int
    reader_lock_waits: int
    serialization_aborts: int
    clean: bool

    @property
    def reads_per_s(self) -> float:
        return self.reads / self.elapsed_s if self.elapsed_s > 0 else 0.0


def run_read_mix_cell(
    structure: IndexStructure,
    n_threads: int,
    plan: ScalePlan,
    read_pct: int = 99,
) -> ReadMixResult:
    """Measure a read:write mix where every read is an MVCC snapshot read.

    Each worker thread runs ``plan.insert_ops`` operations: with
    probability ``read_pct``% a lock-free :meth:`Session.snapshot_select`
    of a random parent key, otherwise a write (child insert, or
    occasionally a parent delete + re-insert, so the SET NULL cascade
    and commit-time witness re-validation stay exercised).  After the
    mixed phase, all threads run a pure-read tail while the lock-manager
    counters are snapshotted around it — snapshot reads acquire zero
    logical locks, so the reader deltas are expected to be exactly 0.
    """
    cell, manager = _session_cell(structure, plan)
    parent = cell.fk.parent_table
    child = cell.fk.child_table
    key_columns = cell.fk.key_columns
    parent_keys = cell.dataset.parent_keys
    ops_per_thread = max(40, plan.insert_ops)

    reads = [0] * n_threads
    writes = [0] * n_threads
    aborts = [0] * n_threads
    errors: list[BaseException] = []
    #: Two rendezvous: mixed phase done -> main snapshots the lock
    #: counters -> pure-read tail runs between the snapshots.
    barrier = threading.Barrier(n_threads + 1)

    def write_op(session, rng, insert_iter) -> bool:
        if rng.random() < 0.85:
            row = next(insert_iter, None)
            if row is None:
                return False
            session.insert(child, row)
        else:
            key = parent_keys[rng.randrange(len(parent_keys))]
            session.delete_where(parent, equalities(key_columns, key))
            session.insert(parent, tuple(key) + (0,))
        return True

    def worker(worker_id: int) -> None:
        rng = random.Random((read_pct << 10) | worker_id)
        insert_iter = iter(synthetic.insert_stream(
            cell.dataset, ops_per_thread, seed=1_000 + worker_id
        ))
        session = manager.session()
        try:
            for __ in range(ops_per_thread):
                if rng.randrange(100) < read_pct:
                    key = parent_keys[rng.randrange(len(parent_keys))]
                    session.snapshot_select(parent, equalities(key_columns, key))
                    reads[worker_id] += 1
                else:
                    for attempt in range(_RETRIES):
                        try:
                            if write_op(session, rng, insert_iter):
                                writes[worker_id] += 1
                            break
                        except SerializationError:
                            aborts[worker_id] += 1
                        except _RETRYABLE:
                            pass
                        except _VETOES:
                            break
            barrier.wait()  # mixed phase complete everywhere
            barrier.wait()  # main thread snapshotted the lock counters
            for __ in range(_TAIL_READS):
                key = parent_keys[rng.randrange(len(parent_keys))]
                session.snapshot_select(parent, equalities(key_columns, key))
        except BaseException as exc:  # noqa: BLE001 - reported by caller
            errors.append(exc)
            barrier.abort()
        finally:
            session.close()

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(n_threads)
    ]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
        elapsed = time.perf_counter() - wall_started
        before = manager.locks.stats.snapshot()
        barrier.wait()
    except threading.BrokenBarrierError:
        elapsed = time.perf_counter() - wall_started
        before = manager.locks.stats.snapshot()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    after = manager.locks.stats.snapshot()

    clean = cell.db.verify_integrity().ok
    return ReadMixResult(
        structure=harness.structure_label(structure, False),
        read_pct=read_pct,
        threads=n_threads,
        reads=sum(reads),
        writes=sum(writes),
        elapsed_s=elapsed,
        reader_lock_acquires=int(after["acquired"] - before["acquired"]),
        reader_lock_waits=int(after["waits"] - before["waits"]),
        serialization_aborts=sum(aborts),
        clean=clean,
    )


def read_mix_scaling(plan: ScalePlan) -> "ExperimentResult":
    """Snapshot-read scaling: 90:10 and 99:1 mixes across 1..16 sessions."""
    from .experiments import ExperimentResult

    cells = [
        run_read_mix_cell(IndexStructure.BOUNDED, n, plan, read_pct=pct)
        for pct in READ_MIXES
        for n in thread_counts(plan)
    ]
    rows = [
        [
            c.structure,
            f"{c.read_pct}:{100 - c.read_pct}",
            c.threads,
            c.reads,
            c.writes,
            f"{c.reads_per_s:.0f}",
            c.reader_lock_acquires,
            c.reader_lock_waits,
            c.serialization_aborts,
        ]
        for c in cells
    ]
    text = report.format_table(
        "Snapshot-read scaling (MVCC reads + 2PL writes, MATCH PARTIAL)",
        ["Structure", "Mix", "Threads", "Reads", "Writes", "reads/s",
         "Reader lock acquires", "Reader lock waits", "Serial. aborts"],
        rows,
    )
    result = ExperimentResult(
        "read_mix",
        "Snapshot-read scaling",
        text,
        [c.__dict__ | {"reads_per_s": c.reads_per_s} for c in cells],
    )
    locked = [c for c in cells if c.reader_lock_acquires or c.reader_lock_waits]
    result.expect(
        not locked,
        "snapshot readers acquired zero logical locks in every cell",
        f"READER LOCK TRAFFIC in {len(locked)} cell(s)!",
    )
    dirty = [c for c in cells if not c.clean]
    result.expect(
        not dirty,
        "every cell ends with a clean integrity report",
        f"INTEGRITY VIOLATIONS in {len(dirty)} cell(s)!",
    )
    return result


def concurrency_throughput(plan: ScalePlan) -> "ExperimentResult":
    """Insert+delete enforcement throughput, 1..16 concurrent sessions."""
    from .experiments import ExperimentResult

    cells = [
        run_cell(structure, n, plan)
        for structure in STRUCTURES
        for n in thread_counts(plan)
    ]
    rows = [
        [
            c.structure,
            c.threads,
            c.ops,
            f"{c.ops_per_s:.0f}",
            f"{c.latency_ms:.2f}",
            c.lock_waits,
            f"{c.lock_wait_s:.3f}",
            c.deadlocks,
            c.timeouts,
            c.vetoed,
        ]
        for c in cells
    ]
    text = report.format_table(
        f"Concurrent enforcement ({plan.insert_ops} inserts + "
        f"{plan.delete_ops} parent deletes per cell, MATCH PARTIAL)",
        ["Structure", "Threads", "Ops", "ops/s", "avg ms/op",
         "Lock waits", "Wait (s)", "Deadlocks", "Timeouts", "Vetoed"],
        rows,
    )
    result = ExperimentResult(
        "concurrency",
        "Concurrent enforcement throughput",
        text,
        [c.__dict__ | {"ops_per_s": c.ops_per_s} for c in cells],
    )
    dirty = [c for c in cells if not c.clean]
    result.expect(
        not dirty,
        "every cell ends with a clean integrity report",
        f"INTEGRITY VIOLATIONS in {len(dirty)} cell(s)!",
    )
    result.notes.append(
        "vetoed = inserts refused because a concurrent delete removed the "
        "last supporting parent (legitimate under strict 2PL)"
    )
    return result
