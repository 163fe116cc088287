"""Concurrent enforcement races (an ISSUE satellite).

N writer threads insert child rows whose foreign-key values are
partially NULL-marked while a deleter thread removes parents out from
under them.  Whatever interleaving the scheduler produces, the database
must end the run consistent: every surviving child reference is
supported by a parent under the declared match semantics
(``Database.verify_integrity``), for MATCH SIMPLE and MATCH PARTIAL,
under both the Bounded and Hybrid index structures.
"""

from __future__ import annotations

import random

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
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    ReferentialIntegrityViolation,
    SerializationError,
)

from .conftest import run_threads

N_PARENTS = 24
N_WRITERS = 4
OPS_PER_WRITER = 25
#: Parent keys the deleter removes; writers reference the full range, so
#: some of their probes race exactly these deletions.
DELETED_KEYS = range(N_PARENTS - 8, N_PARENTS)

RETRYABLE = (DeadlockError, LockTimeoutError, SerializationError)


def build(match: MatchSemantics, structure: IndexStructure) -> tuple:
    db = Database("race")
    db.create_table("P", [
        Column("k1", DataType.INTEGER, nullable=False),
        Column("k2", DataType.INTEGER, nullable=False),
        Column("payload", DataType.TEXT),
    ])
    db.add_candidate_key(PrimaryKey("P", ("k1", "k2")))
    db.create_table("C", [
        Column("id", DataType.INTEGER, nullable=False),
        Column("k1", DataType.INTEGER),
        Column("k2", DataType.INTEGER),
    ])
    for i in range(N_PARENTS):
        db.table("P").insert_row((i, i * 10, f"p{i}"))
    fk = ForeignKey(
        "fk_c_p", "C", ("k1", "k2"), "P", ("k1", "k2"), match=match
    )
    fk.validate_against(db)
    efk = EnforcedForeignKey.create(db, fk, structure)
    return db, fk, efk


def writer_task(manager, writer_id: int, vetoed: list) -> None:
    rng = random.Random(1000 + writer_id)
    session = manager.session()
    try:
        for op in range(OPS_PER_WRITER):
            i = rng.randrange(N_PARENTS)
            values = [i, i * 10]
            # NULL-mark one component half the time: the MATCH PARTIAL
            # subsumption probe (and its witness lock) is the race under
            # test; total values exercise the plain existence check.
            if rng.random() < 0.5:
                values[rng.randrange(2)] = NULL
            row = (writer_id * 1000 + op, values[0], values[1])
            for attempt in range(8):
                try:
                    session.insert("C", row)
                    break
                except RETRYABLE:
                    continue
                except ReferentialIntegrityViolation:
                    vetoed.append(row)  # parent gone: a legitimate veto
                    break
    finally:
        session.close()


def deleter_task(manager) -> None:
    session = manager.session()
    try:
        for i in DELETED_KEYS:
            for attempt in range(8):
                try:
                    session.delete_where("P", Eq("k1", i) & Eq("k2", i * 10))
                    break
                except RETRYABLE:
                    continue
    finally:
        session.close()


@pytest.mark.parametrize("match", [MatchSemantics.SIMPLE, MatchSemantics.PARTIAL])
@pytest.mark.parametrize(
    "structure", [IndexStructure.BOUNDED, IndexStructure.HYBRID]
)
def test_writers_vs_parent_deleter(match, structure):
    db, fk, efk = build(match, structure)
    manager = db.enable_sessions(lock_timeout=10.0)
    vetoed: list = []

    tasks = [
        (lambda w=w: writer_task(manager, w, vetoed))
        for w in range(N_WRITERS)
    ]
    tasks.append(lambda: deleter_task(manager))
    run_threads(tasks, timeout=120.0)

    report = db.verify_integrity()
    assert report.ok, report.render()
    manager.locks.assert_idle()
    # the deleter finished: none of its keys remain
    for i in DELETED_KEYS:
        assert db.select("P", Eq("k1", i)) == []
    # sanity: the run did real work (some inserts survived)
    survivors = db.select("C")
    assert len(survivors) + len(vetoed) > 0


def test_concurrent_writers_alone_never_violate():
    """Writers only (no deleter): every insert must land or veto; the
    child table afterwards contains exactly the successful inserts."""
    db, fk, efk = build(MatchSemantics.PARTIAL, IndexStructure.BOUNDED)
    manager = db.enable_sessions(lock_timeout=10.0)
    vetoed: list = []
    run_threads(
        [(lambda w=w: writer_task(manager, w, vetoed)) for w in range(N_WRITERS)],
        timeout=120.0,
    )
    assert vetoed == []  # nothing deletes parents, so nothing vetoes
    assert len(db.select("C")) == N_WRITERS * OPS_PER_WRITER
    assert db.verify_integrity().ok
    manager.locks.assert_idle()
