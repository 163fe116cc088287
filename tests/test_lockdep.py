"""Tests for the lock-order sanitizer (``repro.analysis.lockdep``).

Covers the ISSUE satellites end to end: a seeded lock-order inversion is
reported as a *potential* deadlock with no runtime deadlock or timeout
firing; the existing concurrency suite runs lockdep-clean under
``REPRO_SANITIZE=1``; and with the flag unset the sanitizer costs the
hot path nothing observable — not one logical counter.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import (
    Column,
    Database,
    DataType,
    EnforcedForeignKey,
    Eq,
    ForeignKey,
    IndexStructure,
    MatchSemantics,
    NULL,
    PrimaryKey,
)
from repro.analysis import lockdep
from repro.analysis.lockdep import LockdepObserver, classify
from repro.concurrency.locks import (
    LockManager,
    LockMode,
    key_resource,
    table_resource,
)
from repro.errors import AnalysisError, DeadlockError, LockTimeoutError

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

A = table_resource("A")
B = table_resource("B")


def _findings(observers, kind=None):
    out = [v for obs in observers for v in obs.findings()]
    return out if kind is None else [v for v in out if v.kind == kind]


# ----------------------------------------------------------------------
# Classification and graph units.


def test_classify_drops_key_values_keeps_tables():
    assert classify(table_resource("P")) == table_resource("P")
    r1 = key_resource("P", ("k1", "k2"), (1, 10))
    r2 = key_resource("P", ("k1", "k2"), (2, 20))
    assert classify(r1) == classify(r2) == ("key", "P", ("k1", "k2"))
    assert classify(r1) != classify(key_resource("Q", ("k1", "k2"), (1, 10)))


def test_x_inversion_reports_cycle_without_any_runtime_deadlock():
    """The tentpole property: both transactions run to completion — no
    deadlock fires — yet the accumulated orders expose the inversion."""
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        locks.acquire(1, A, LockMode.X)
        locks.acquire(1, B, LockMode.X)
        locks.release_all(1)
        locks.acquire(2, B, LockMode.X)
        locks.acquire(2, A, LockMode.X)
        locks.release_all(2)
        cycles = _findings(observers, "cycle")
    assert len(cycles) == 1
    assert "potential deadlock" in cycles[0].message
    assert "'A'" in cycles[0].message and "'B'" in cycles[0].message


def test_consistent_order_is_clean():
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        for txn in (1, 2):
            locks.acquire(txn, A, LockMode.X)
            locks.acquire(txn, B, LockMode.X)
            locks.release_all(txn)
        assert _findings(observers) == []


def test_ix_table_cycle_is_filtered_as_benign():
    """IX is self-compatible: an IX/IX order inversion at table level
    cannot block at either node, so no cycle is reported."""
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        locks.acquire(1, A, LockMode.IX)
        locks.acquire(1, B, LockMode.IX)
        locks.release_all(1)
        locks.acquire(2, B, LockMode.IX)
        locks.acquire(2, A, LockMode.IX)
        locks.release_all(2)
        assert _findings(observers, "cycle") == []


def test_mixed_cycle_blocks_only_if_every_node_conflicts():
    """X on one node, IX-vs-IX on the other: the cycle cannot block at
    the IX node, so it is filtered; strengthen that node to X and the
    same shape is reported."""
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        locks.acquire(1, A, LockMode.X)
        locks.acquire(1, B, LockMode.IX)
        locks.release_all(1)
        locks.acquire(2, B, LockMode.IX)
        locks.acquire(2, A, LockMode.X)
        locks.release_all(2)
        assert _findings(observers, "cycle") == []
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        locks.acquire(1, A, LockMode.X)
        locks.acquire(1, B, LockMode.X)
        locks.release_all(1)
        locks.acquire(2, B, LockMode.X)
        locks.acquire(2, A, LockMode.X)
        locks.release_all(2)
        assert len(_findings(observers, "cycle")) == 1


def test_same_key_class_inversion_not_reported():
    """Two values of one key class are the same node: value-crossing
    AB-BA within a class is data-dependent and left to the runtime
    waits-for detector."""
    r1 = key_resource("P", ("k",), (1,))
    r2 = key_resource("P", ("k",), (2,))
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        locks.acquire(1, r1, LockMode.X)
        locks.acquire(1, r2, LockMode.X)
        locks.release_all(1)
        locks.acquire(2, r2, LockMode.X)
        locks.acquire(2, r1, LockMode.X)
        locks.release_all(2)
        assert _findings(observers) == []


# ----------------------------------------------------------------------
# Discipline checks: 2PL, upgrades, witness.


def test_acquire_after_release_is_a_two_phase_violation():
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        locks.acquire(1, A, LockMode.S)
        locks.release_all(1)
        locks.acquire(1, B, LockMode.S)
        violations = _findings(observers, "two-phase")
    assert len(violations) == 1
    assert "strict 2PL" in violations[0].message


def test_two_txn_s_to_x_upgrade_is_reported():
    """S→X against S→X on one key class: the starts coexist but each
    target blocks on the other's start — reportable without firing."""
    r1 = key_resource("P", ("k",), (1,))
    r2 = key_resource("P", ("k",), (2,))
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        locks.acquire(1, r1, LockMode.S)
        locks.acquire(1, r1, LockMode.X)
        locks.release_all(1)
        locks.acquire(2, r2, LockMode.S)
        locks.acquire(2, r2, LockMode.X)
        locks.release_all(2)
        risks = _findings(observers, "upgrade")
    assert len(risks) == 1
    assert "S->X" in risks[0].message


def test_single_txn_upgrade_is_latent_not_a_finding():
    # test_locks upgrades S→X deliberately; one transaction alone
    # cannot deadlock with itself, so this must stay silent.
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        locks.acquire(1, A, LockMode.S)
        locks.acquire(1, A, LockMode.X)
        locks.release_all(1)
        assert _findings(observers) == []
        assert observers[0].graph.upgrades()  # recorded, just not escalated


def test_witness_pin_requires_a_covering_s_lock():
    resource = key_resource("P", ("k1", "k2"), (1, 10))
    observer = LockdepObserver()
    observer.on_acquired(7, resource, LockMode.S)
    observer.on_witness_pinned(7, resource)
    assert observer.findings() == []
    # X covers S: an exclusive holder is an acceptable witness pin too.
    observer.on_acquired(8, resource, LockMode.X)
    observer.on_witness_pinned(8, resource)
    assert observer.findings() == []
    observer.on_witness_pinned(9, resource)  # holds nothing
    violations = [v for v in observer.findings() if v.kind == "witness"]
    assert len(violations) == 1
    assert "witness S-lock" in violations[0].message


def test_intention_lock_is_not_a_witness():
    resource = key_resource("P", ("k",), (3,))
    observer = LockdepObserver()
    observer.on_acquired(1, resource, LockMode.IS)
    observer.on_witness_pinned(1, resource)
    assert [v.kind for v in observer.findings()] == ["witness"]


def test_lock_inside_snapshot_read_scope_is_a_violation():
    """RPR008's runtime twin: any lock-manager grant observed inside a
    snapshot-read scope is reported, whatever its mode."""
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        with lockdep.snapshot_read_scope():
            locks.acquire(1, A, LockMode.IS)
        locks.release_all(1)
        violations = _findings(observers, "snapshot")
    assert len(violations) == 1
    assert "lock-free" in violations[0].message


def test_snapshot_scope_off_the_read_path_is_clean():
    # The same grant outside the scope is ordinary 2PL traffic.
    with lockdep.scoped() as observers:
        locks = LockManager(sanitize=True)
        locks.acquire(1, A, LockMode.IS)
        locks.release_all(1)
        assert _findings(observers, "snapshot") == []
    assert not lockdep.in_snapshot_read()


def test_snapshot_reads_through_sessions_are_lockdep_clean(monkeypatch):
    """A real MVCC snapshot read under the armed sanitizer: zero lock
    traffic, zero findings — the legitimate no-read-locks state."""
    monkeypatch.setenv(lockdep.ENV_FLAG, "1")
    with lockdep.scoped() as observers:
        db = _two_table_db()
        db.enable_mvcc()
        manager = db.enable_sessions(lock_timeout=5.0)
        s1, s2 = manager.session(), manager.session()
        try:
            with s1.snapshot():
                assert s1.select("P", Eq("id", 0))
                s2.insert("C", (99, "w"))
                assert not s1.select("C", Eq("id", 99))
        finally:
            s1.close()
            s2.close()
        assert _findings(observers) == []


# ----------------------------------------------------------------------
# The seeded session-level inversion (ISSUE satellite).


def _two_table_db() -> Database:
    db = Database("inversion")
    for name in ("P", "C"):
        db.create_table(name, [
            Column("id", DataType.INTEGER, nullable=False),
            Column("v", DataType.TEXT),
        ])
        db.add_candidate_key(PrimaryKey(name, ("id",)))
        for i in range(4):
            db.table(name).insert_row((i, f"{name}{i}"))
    return db


def test_session_level_inversion_reported_without_deadlock(monkeypatch):
    """Two sessions, one updating P-then-C, the other C-then-P, run
    sequentially: no interleaving exists, nothing blocks, and still the
    sanitizer reports the key-class cycle the pattern could deadlock on."""
    monkeypatch.setenv(lockdep.ENV_FLAG, "1")
    with lockdep.scoped() as observers:
        db = _two_table_db()
        manager = db.enable_sessions(lock_timeout=5.0)
        s1, s2 = manager.session(), manager.session()
        try:
            s1.begin()
            s1.update_where("P", {"v": "x"}, Eq("id", 0))
            s1.update_where("C", {"v": "x"}, Eq("id", 0))
            s1.commit()
            s2.begin()
            s2.update_where("C", {"v": "y"}, Eq("id", 1))
            s2.update_where("P", {"v": "y"}, Eq("id", 1))
            s2.commit()
        finally:
            s1.close()
            s2.close()
        cycles = _findings(observers, "cycle")
        others = [v for v in _findings(observers) if v.kind != "cycle"]
    assert cycles, "seeded P/C inversion must be reported"
    message = cycles[0].message
    assert "'key'" in message and "'P'" in message and "'C'" in message
    assert others == [], f"inversion seeding must not trip discipline: {others}"


def test_runtime_detected_deadlock_self_suppresses():
    """When the deadlock actually fires, the victim aborts before its
    blocking grant materialises — its half-edge never enters the graph,
    so the *runtime-handled* case is not re-reported as potential."""
    with lockdep.scoped() as observers:
        locks = LockManager(timeout=5.0, sanitize=True)
        barrier = threading.Barrier(2, timeout=10.0)
        errors: list[BaseException] = []

        def worker(txn_id: int, first, second) -> None:
            locks.acquire(txn_id, first, LockMode.X)
            barrier.wait()
            try:
                locks.acquire(txn_id, second, LockMode.X)
            except (DeadlockError, LockTimeoutError) as exc:
                errors.append(exc)
            finally:
                locks.release_all(txn_id)

        threads = [
            threading.Thread(target=worker, args=(1, A, B)),
            threading.Thread(target=worker, args=(2, B, A)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors, "the AB-BA interleaving must fire at runtime here"
        assert isinstance(errors[0], DeadlockError)
        assert _findings(observers, "cycle") == []


def test_existing_concurrency_suite_is_lockdep_clean():
    """The acceptance criterion: the whole concurrency suite under
    ``REPRO_SANITIZE=1`` (the conftest gate raises AnalysisError on any
    run-wide violation) — zero findings across every interleaving."""
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_SANITIZE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_locks.py", "tests/test_sessions.py",
         "tests/test_concurrent_enforcement.py"],
        cwd=str(TESTS.parent),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# Arming, registry, and reporting plumbing.


def test_env_flag_arms_constructed_managers(monkeypatch):
    monkeypatch.setenv(lockdep.ENV_FLAG, "1")
    with lockdep.scoped():
        assert lockdep.env_enabled()
        assert LockManager().sanitizer is not None
        assert LockManager(sanitize=False).sanitizer is None  # explicit wins
    for off in ("", "0", "false", "no"):
        monkeypatch.setenv(lockdep.ENV_FLAG, off)
        assert not lockdep.env_enabled()
        assert LockManager().sanitizer is None


def test_assert_clean_raises_on_seeded_violation():
    with lockdep.scoped():
        locks = LockManager(sanitize=True)
        locks.acquire(1, A, LockMode.X)
        locks.acquire(1, B, LockMode.X)
        locks.release_all(1)
        locks.acquire(2, B, LockMode.X)
        locks.acquire(2, A, LockMode.X)
        locks.release_all(2)
        with pytest.raises(AnalysisError) as excinfo:
            lockdep.assert_clean()
        assert "[lockdep:cycle]" in str(excinfo.value)
    # outside the scope, the run-wide registry is unaffected
    report = lockdep.report()
    assert all("'A'" not in v.message for v in report.violations)


def test_report_aggregates_across_managers():
    with lockdep.scoped():
        m1 = LockManager(sanitize=True)
        m2 = LockManager(sanitize=True)
        m1.acquire(1, A, LockMode.S)
        m1.release_all(1)
        m2.acquire(1, B, LockMode.S)
        m2.release_all(1)
        report = lockdep.assert_clean()
    assert report.ok
    assert report.observers == 2
    assert report.acquisitions == 2
    assert "2 lock manager(s)" in report.render()


# ----------------------------------------------------------------------
# Sanitizer-off overhead (ISSUE satellite): the fast path is untouched.


def test_sanitizer_off_by_default_and_fast_path_untouched(monkeypatch):
    monkeypatch.delenv(lockdep.ENV_FLAG, raising=False)
    before = len(lockdep.observers())
    locks = LockManager()
    assert locks.sanitizer is None
    # Grants leave no observer behind and do not grow the registry.
    locks.acquire(1, A, LockMode.X)
    locks.acquire(1, key_resource("P", ("k",), (1,)), LockMode.X)
    locks.release_all(1)
    assert len(lockdep.observers()) == before


def _run_enforced_workload(db: Database) -> None:
    manager = db.enable_sessions(lock_timeout=10.0)
    session = manager.session()
    try:
        for i in range(20):
            session.insert("C", (i, i % 8, (i % 8) * 10))
        session.insert("C", (97, 3, NULL))
        session.delete_where("P", Eq("k1", 7) & Eq("k2", 70))
        session.delete_where("C", Eq("id", 5))
    finally:
        session.close()


def _enforced_counters(sanitize: bool, monkeypatch) -> dict:
    if sanitize:
        monkeypatch.setenv(lockdep.ENV_FLAG, "1")
    else:
        monkeypatch.delenv(lockdep.ENV_FLAG, raising=False)
    db = Database("overhead")
    db.create_table("P", [
        Column("k1", DataType.INTEGER, nullable=False),
        Column("k2", DataType.INTEGER, nullable=False),
    ])
    db.add_candidate_key(PrimaryKey("P", ("k1", "k2")))
    db.create_table("C", [
        Column("id", DataType.INTEGER, nullable=False),
        Column("k1", DataType.INTEGER),
        Column("k2", DataType.INTEGER),
    ])
    for i in range(8):
        db.table("P").insert_row((i, i * 10))
    fk = ForeignKey("fk_c_p", "C", ("k1", "k2"), "P", ("k1", "k2"),
                    match=MatchSemantics.PARTIAL)
    fk.validate_against(db)
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    db.tracker.reset()
    _run_enforced_workload(db)
    return db.tracker.snapshot().as_dict()


def test_logical_counters_identical_with_and_without_sanitizer(monkeypatch):
    """Bit-identical cost counters: observing lock grants must not add,
    remove, or reorder one probe, node visit, or comparison."""
    with lockdep.scoped():
        on = _enforced_counters(True, monkeypatch)
    off = _enforced_counters(False, monkeypatch)
    assert on == off


@pytest.mark.slow
def test_bench_check_passes_with_sanitizer_off(monkeypatch):
    """With ``REPRO_SANITIZE`` unset the counters match the committed
    ``bench --check`` baseline: here for one experiment that reads no
    sweep cache, the full registry run is CI's."""
    from repro.bench import hotpath

    monkeypatch.delenv(lockdep.ENV_FLAG, raising=False)
    snapshots = hotpath.record(["fig9"])
    assert hotpath.compare(snapshots, hotpath.load_baseline(["fig9"])) == []
