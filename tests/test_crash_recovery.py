"""The crash-recovery property: crash at every fault point, recover,
and the database is (a) internally consistent and (b) at a transaction
boundary of the fault-free execution.

The workload below is a sequence of steps, each one transaction (the
batch helpers open their own).  A fault-free twin run records the state
at every step boundary; the sweep then re-runs the workload once per
registered fault point with a :class:`CrashInjector` installed, recovers
from the write-ahead log, and asserts the recovered state equals the
boundary state before the crashed step — atomicity — while
``verify_integrity`` vouches for heap/index/statistics agreement.
"""

import pytest

from repro import (
    Column,
    Database,
    EnforcedForeignKey,
    ForeignKey,
    IndexStructure,
    MatchSemantics,
    NULL,
    SimulatedCrash,
    simulate_crash,
)
from repro.core import batch
from repro.query import dml
from repro.query.predicate import Eq
from repro.storage.wal import WriteAheadLog
from repro.testing import faults

MATCHES = [MatchSemantics.SIMPLE, MatchSemantics.PARTIAL]
STRUCTURES = [IndexStructure.BOUNDED, IndexStructure.HYBRID]


def build_db(match: MatchSemantics, structure: IndexStructure) -> Database:
    # Tiny B+ tree order so the workload actually splits and unlinks
    # leaves, reaching the structural fault points.
    db = Database("crashy", index_order=4)
    db.create_table("p", [
        Column("k1", nullable=False), Column("k2", nullable=False),
    ])
    db.create_table("c", [Column("x"), Column("f1"), Column("f2")])
    fk = ForeignKey("fk", "c", ("f1", "f2"), "p", ("k1", "k2"), match=match)
    EnforcedForeignKey.create(db, fk, structure)
    db.attach_wal(WriteAheadLog())
    return db, fk


def workload_steps(db: Database, fk: ForeignKey):
    """One transaction per step: inserts, updates, deletes, both batch
    paths, and enough churn to split and shrink the B+ trees."""

    def parents():
        with db.begin():
            for k1 in range(4):
                for k2 in range(4):
                    dml.insert(db, "p", (k1, k2))

    def children():
        with db.begin():
            dml.insert(db, "c", (1, 0, 0))
            dml.insert(db, "c", (2, 1, NULL))
            dml.insert(db, "c", (3, NULL, 2))
            dml.insert(db, "c", (4, 3, 3))
            dml.insert(db, "c", (5, NULL, NULL))

    def update_child():
        with db.begin():
            dml.update_where(db, "c", {"f1": 2}, Eq("x", 2))

    def delete_parent():
        with db.begin():
            dml.delete_where(db, "p", Eq("k1", 3) & Eq("k2", 3))

    def batch_inserts():
        rows = [(10 + i, i % 2, 1) for i in range(6)]
        batch.batch_insert_rows(db, "c", rows)

    def batch_deletes():
        batch.batch_delete_parents(db, fk, [(0, 0), (0, 1), (0, 2), (0, 3)])

    def shrink():
        with db.begin():
            dml.delete_where(db, "c", Eq("f2", 1))
            dml.delete_where(db, "p", Eq("k1", 2))

    return [parents, children, update_child, delete_parent,
            batch_inserts, batch_deletes, shrink]


def state(db: Database):
    return {
        name: sorted(table.heap.scan())
        for name, table in sorted(db.tables.items())
    }


def fault_free_run(match, structure):
    """Boundary states + the fault points this workload crosses."""
    db, fk = build_db(match, structure)
    boundaries = [state(db)]
    with faults.tracing() as hits:
        for step in workload_steps(db, fk):
            step()
            boundaries.append(state(db))
    return boundaries, hits


@pytest.mark.parametrize("match", MATCHES, ids=lambda m: m.value)
@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.value)
def test_workload_crosses_the_interesting_points(match, structure):
    """The sweep is only meaningful if the workload reaches the engine's
    crash windows; pin the points it must cross."""
    __, hits = fault_free_run(match, structure)
    expected = {
        "btree.split", "btree.unlink",
        "dml.insert.pre", "dml.insert.post",
        "dml.delete.pre", "dml.delete.post",
        "dml.update.pre", "dml.update.post",
        "enforce.apply_action",
    }
    if match is MatchSemantics.PARTIAL:
        expected |= {
            "trigger.child_check", "trigger.parent_delete",
            "enforce.state_probe",
        }
    assert expected <= set(hits)


@pytest.mark.parametrize("match", MATCHES, ids=lambda m: m.value)
@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.value)
def test_crash_at_every_point_recovers_to_a_boundary(match, structure):
    boundaries, __ = fault_free_run(match, structure)
    crashes = 0
    for point in faults.names():
        db, fk = build_db(match, structure)
        injector = faults.CrashInjector(db)
        completed = 0
        with faults.injected(point, injector):
            try:
                for step in workload_steps(db, fk):
                    step()
                    completed += 1
            except SimulatedCrash:
                crashes += 1
        report = simulate_crash(db)
        integrity = db.verify_integrity()
        assert integrity.ok, (
            f"corrupt after crash at {point!r}:\n{integrity.render()}"
        )
        if injector.fired:
            # Atomicity: the crashed step's transaction left no trace.
            assert state(db) == boundaries[completed], (
                f"crash at {point!r} not at a transaction boundary"
            )
        else:
            assert state(db) == boundaries[-1]
        assert report.checkpoint_lsn == 0
    # The sweep is vacuous unless most points actually crashed.  Nine is
    # what a MATCH SIMPLE run can cross: the two B+ tree points, the six
    # dml.* points and enforce.apply_action (the trigger.* points and
    # enforce.state_probe need MATCH PARTIAL; the rest need locks, a
    # server or shards).
    assert crashes >= 9


@pytest.mark.parametrize("skip", [1, 3], ids=lambda s: f"skip{s}")
def test_crash_at_later_arrivals(skip):
    """Crashing the first crossing is the easy case; also die mid-stream
    (the N-th arrival), where earlier work of the same transaction is
    already in the log buffer."""
    match, structure = MatchSemantics.PARTIAL, IndexStructure.BOUNDED
    boundaries, hits = fault_free_run(match, structure)
    for point, count in hits.items():
        if count <= skip:
            continue
        db, fk = build_db(match, structure)
        injector = faults.CrashInjector(db, skip=skip)
        completed = 0
        with faults.injected(point, injector):
            try:
                for step in workload_steps(db, fk):
                    step()
                    completed += 1
            except SimulatedCrash:
                pass
        simulate_crash(db)
        assert db.verify_integrity().ok
        if injector.fired:
            assert state(db) == boundaries[completed]


@pytest.mark.parametrize("match", MATCHES, ids=lambda m: m.value)
@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.value)
def test_transient_faults_retried_to_completion(match, structure):
    """Acceptance: with a transient fault injected at each point the
    workload crosses, step-level retry under capped backoff completes the
    whole workload with the fault-free final state and no integrity
    violations (each failed step's transaction rolled back, then
    succeeded on retry)."""
    boundaries, hits = fault_free_run(match, structure)
    for point in sorted(hits):
        db, fk = build_db(match, structure)
        injector = faults.TransientInjector(times=1)
        with faults.injected(point, injector):
            for step in workload_steps(db, fk):
                faults.retry_transient(step, sleep=lambda __: None)
        assert injector.fired == 1
        assert state(db) == boundaries[-1], (
            f"transient fault at {point!r} changed the workload's outcome"
        )
        assert db.verify_integrity().ok


def test_workload_is_deterministic():
    a, __ = fault_free_run(MatchSemantics.PARTIAL, IndexStructure.BOUNDED)
    b, __ = fault_free_run(MatchSemantics.PARTIAL, IndexStructure.BOUNDED)
    assert a == b
