"""Concurrent enforcement races.

N writer threads insert child rows whose foreign-key values are
partially NULL-marked while a deleter thread removes parents out from
under them.  Whatever interleaving the scheduler produces, the database
must end the run consistent: every surviving child reference is
supported by a parent under the declared match semantics
(``Database.verify_integrity``), for MATCH SIMPLE and MATCH PARTIAL,
under both the Bounded and Hybrid index structures.

The second half pins both sides of a partial key to one witness
protocol: a parent delete must not trust an *uncommitted* alternative
parent, a partial child must not adopt one, and a seeded soak mixes
parent inserts that roll back with deletes and partial children over a
parent grid where every partial child has several candidate parents.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import (
    Column,
    Database,
    DataType,
    EnforcedForeignKey,
    EnforcementMode,
    Eq,
    ForeignKey,
    IndexStructure,
    MatchSemantics,
    NULL,
    PrimaryKey,
    ReferentialAction,
)
from repro.errors import (
    DeadlockError,
    KeyViolation,
    LockTimeoutError,
    ReferentialIntegrityViolation,
    RestrictViolation,
    SerializationError,
)
from repro.server import ReproClient, ReproServer
from repro.triggers import partial_ri

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


# ----------------------------------------------------------------------
# An uncommitted parent is no witness, from either side of the key.


def build_partial(
    on_delete: ReferentialAction = ReferentialAction.SET_NULL,
    on_update: ReferentialAction = ReferentialAction.SET_NULL,
    native: bool = False,
    structure: IndexStructure = IndexStructure.BOUNDED,
    primary_key: tuple[str, ...] = ("k1", "k2"),
) -> Database:
    """P(k1, k2) with the MATCH PARTIAL key C(k1, k2) → P(k1, k2),
    enforced by the §6.1 triggers or, when *native*, by the DML path."""
    db = Database("alternatives")
    db.create_table("P", [
        Column("k1", DataType.INTEGER, nullable=False),
        Column("k2", DataType.INTEGER, nullable=False),
    ])
    db.add_candidate_key(PrimaryKey("P", primary_key))
    db.create_table("C", [
        Column("id", DataType.INTEGER, nullable=False),
        Column("k1", DataType.INTEGER),
        Column("k2", DataType.INTEGER),
    ])
    fk = ForeignKey("fk_c_p", "C", ("k1", "k2"), "P", ("k1", "k2"),
                    match=MatchSemantics.PARTIAL,
                    on_delete=on_delete, on_update=on_update)
    EnforcedForeignKey.create(db, fk, structure)
    if native:
        partial_ri.uninstall(db, fk)
        fk.enforcement = EnforcementMode.NATIVE
    return db


class _Background:
    """One statement on its own thread, its outcome kept for the test."""

    def __init__(self, fn) -> None:
        self.outcome: object = None
        self.thread = threading.Thread(target=self._run, args=(fn,), daemon=True)

    def _run(self, fn) -> None:
        try:
            self.outcome = fn()
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            self.outcome = exc

    def start_blocked(self, locks) -> "_Background":
        """Start, and return once the statement waits for a lock."""
        waits = locks.stats.snapshot()["waits"]
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while locks.stats.snapshot()["waits"] == waits:
            assert self.thread.is_alive(), (
                f"finished without waiting for the open transaction: "
                f"{self.outcome!r}"
            )
            assert time.monotonic() < deadline, "never waited"
            time.sleep(0.002)
        return self

    def join(self) -> object:
        self.thread.join(10.0)
        assert not self.thread.is_alive(), "still waiting"
        return self.outcome


ACTIONS = [
    ReferentialAction.SET_NULL,
    ReferentialAction.CASCADE,
    ReferentialAction.RESTRICT,
]


@pytest.mark.parametrize("fate", ["rollback", "commit"])
@pytest.mark.parametrize("structure", [IndexStructure.BOUNDED, IndexStructure.HYBRID])
@pytest.mark.parametrize("native", [False, True], ids=["trigger", "native"])
@pytest.mark.parametrize("action", ACTIONS, ids=lambda a: a.name.lower())
def test_parent_delete_waits_for_an_uncommitted_alternative(
    action, native, structure, fate
):
    """B inserts P(1, 3) and leaves it open; A deletes P(1, 2), whose
    child C(10, 1, NULL) only B's row would keep subsumed.  A waits for
    B, then acts as if it ran after B: with B rolled back the child has
    no parent left (SET NULL nulls it, CASCADE deletes it, RESTRICT
    vetoes the delete); with B committed it keeps P(1, 3)."""
    db = build_partial(on_delete=action, native=native, structure=structure)
    db.insert("P", (1, 2))
    db.insert("C", (10, 1, NULL))
    manager = db.enable_sessions(lock_timeout=10.0)
    sa, sb = manager.session(), manager.session()
    try:
        sb.begin()
        sb.insert("P", (1, 3))
        delete = _Background(
            lambda: sa.delete_where("P", Eq("k1", 1) & Eq("k2", 2))
        ).start_blocked(manager.locks)
        getattr(sb, fate)()
        outcome = delete.join()
    finally:
        sa.close()
        sb.close()

    if fate == "commit":
        assert outcome == 1
        assert sorted(db.select("P")) == [(1, 3)]
        assert db.select("C") == [(10, 1, NULL)]
    elif action is ReferentialAction.RESTRICT:
        assert isinstance(outcome, RestrictViolation)
        assert db.select("P") == [(1, 2)]
        assert db.select("C") == [(10, 1, NULL)]
    else:
        assert outcome == 1
        assert db.select("P") == []
        expected = [(10, NULL, NULL)] if action is ReferentialAction.SET_NULL else []
        assert db.select("C") == expected
    report = db.verify_integrity()
    assert report.ok, report.render()
    manager.locks.assert_idle()


@pytest.mark.parametrize("fate", ["rollback", "commit"])
def test_restrict_update_pins_its_own_new_key_as_the_alternative(fate):
    """ON UPDATE RESTRICT reads the parent as the update will leave it.
    A moves P(1, 2) to P(1, 5) while B's P(1, 3) is open: the first
    alternative A finds is B's row, so A waits; if B rolls back, the
    alternative is A's own new key, which only the update's read view
    holds — the pin must re-check it there, not on the tip."""
    db = build_partial(on_update=ReferentialAction.RESTRICT)
    db.insert("P", (1, 2))
    db.insert("C", (10, 1, NULL))
    manager = db.enable_sessions(lock_timeout=10.0)
    sa, sb = manager.session(), manager.session()
    try:
        sb.begin()
        sb.insert("P", (1, 3))
        update = _Background(
            lambda: sa.update_where(
                "P", {"k2": 5}, Eq("k1", 1) & Eq("k2", 2)
            )
        ).start_blocked(manager.locks)
        getattr(sb, fate)()
        assert update.join() == 1
    finally:
        sa.close()
        sb.close()
    expected = [(1, 3), (1, 5)] if fate == "commit" else [(1, 5)]
    assert sorted(db.select("P")) == expected
    assert db.select("C") == [(10, 1, NULL)]
    assert db.verify_integrity().ok
    manager.locks.assert_idle()


def test_served_parent_delete_waits_for_an_uncommitted_alternative():
    """Item 10's reproduction through the wire server, two clients."""
    db = build_partial()
    db.insert("P", (1, 2))
    db.insert("C", (10, 1, NULL))
    with ReproServer(db) as server:
        with ReproClient(*server.address) as ca, \
                ReproClient(*server.address) as cb:
            cb.begin()
            cb.insert("P", [1, 3])
            delete = _Background(
                lambda: ca.delete("P", equals={"k1": 1, "k2": 2})
            ).start_blocked(server.sessions.locks)
            cb.rollback()
            assert delete.join() == 1
            assert ca.select("C") == [[10, None, None]]
            assert ca.verify()["clean"]


@pytest.mark.parametrize("fate", ["rollback", "commit"])
@pytest.mark.parametrize("write", ["insert", "update"])
def test_partial_child_waits_for_its_uncommitted_witness(write, fate):
    """The creator's X lock.  P's primary key is declared (k2, k1), the
    foreign key references (k1, k2): the write's candidate-key lock and
    the witness pin name different resources, so only the write's lock
    on the *referenced* key it creates makes A's partial child wait for
    B's open parent (1, 3).  Then A acts as if it ran after B: an
    inserted parent that rolled back leaves nothing to adopt (veto); an
    update that rolled back leaves P(1, 2), which A finds instead."""
    db = build_partial(primary_key=("k2", "k1"))
    if write == "update":
        db.insert("P", (1, 2))
    manager = db.enable_sessions(lock_timeout=10.0)
    sa, sb = manager.session(), manager.session()
    try:
        sb.begin()
        if write == "insert":
            sb.insert("P", (1, 3))
        else:
            sb.update_where("P", {"k2": 3}, Eq("k1", 1))
        sa.begin()
        insert = _Background(
            lambda: sa.insert("C", (10, 1, NULL))
        ).start_blocked(manager.locks)
        getattr(sb, fate)()
        outcome = insert.join()
        vetoed = write == "insert" and fate == "rollback"
        if vetoed:
            assert isinstance(outcome, ReferentialIntegrityViolation)
        else:
            assert not isinstance(outcome, Exception), outcome
        sa.commit()
    finally:
        sa.close()
        sb.close()
    assert db.select("C") == ([] if vetoed else [(10, 1, NULL)])
    assert db.verify_integrity().ok
    manager.locks.assert_idle()


def test_delete_skips_a_row_that_rolled_back_while_it_waited():
    """A delete's scan reads the tip, so it can pick B's uncommitted
    parent as a victim; its X lock then waits for B.  B rolls back: the
    row is gone, and the delete removes only the rows that remain."""
    db = build_partial()
    db.insert("P", (1, 2))
    manager = db.enable_sessions(lock_timeout=10.0)
    sa, sb = manager.session(), manager.session()
    try:
        sb.begin()
        sb.insert("P", (1, 3))
        delete = _Background(
            lambda: sa.delete_where("P", Eq("k1", 1))
        ).start_blocked(manager.locks)
        sb.rollback()
        assert delete.join() == 1
    finally:
        sa.close()
        sb.close()
    assert db.select("P") == []
    assert db.verify_integrity().ok
    manager.locks.assert_idle()


# ----------------------------------------------------------------------
# Seeded soak: partial children with several candidate parents.

SOAK_K1 = range(2)
SOAK_K2 = range(3)
SOAK_SESSIONS = 4
SOAK_ROUNDS = 10
SOAK_OPS = 5  # per session and round


def soak_task(manager, rng: random.Random, first_id: int) -> None:
    session = manager.session()
    try:
        for child_id in range(first_id, first_id + SOAK_OPS):
            k1, k2 = rng.choice(SOAK_K1), rng.choice(SOAK_K2)
            roll = rng.random()
            for attempt in range(8):
                try:
                    if roll < 0.4:
                        # explicit transaction, rolled back a third of the time
                        session.begin()
                        session.insert("P", (k1, k2))
                        time.sleep(0.02)  # let the others see it open
                        if rng.random() < 1 / 3:
                            session.rollback()
                        else:
                            session.commit()
                    elif roll < 0.7:
                        session.delete_where("P", Eq("k1", k1) & Eq("k2", k2))
                    else:
                        session.insert("C", (child_id, k1, NULL))
                    break
                except RETRYABLE:
                    continue
                except (KeyViolation, ReferentialIntegrityViolation):
                    break  # duplicate parent, or no parent: legitimate
                finally:
                    if session.in_transaction:
                        session.rollback()
    finally:
        session.close()


@pytest.mark.parametrize("seed", range(1, 9))
def test_seeded_soak_with_rolled_back_alternatives(seed):
    """Four sessions mix parent inserts that stay open a moment and roll
    back a third of the time, parent deletes under SET NULL, and partial
    children with several candidate parents.  Integrity is checked
    whenever the sessions are quiet, before later parent inserts can
    hide an orphan again."""
    db = build_partial()
    for k1 in SOAK_K1:
        db.insert("P", (k1, 0))
    manager = db.enable_sessions(lock_timeout=10.0)
    rngs = [random.Random(seed * 100 + w) for w in range(SOAK_SESSIONS)]
    for round_ in range(SOAK_ROUNDS):
        run_threads(
            [
                (lambda w=w: soak_task(
                    manager, rngs[w], (round_ * SOAK_SESSIONS + w) * SOAK_OPS
                ))
                for w in range(SOAK_SESSIONS)
            ],
            timeout=120.0,
        )
        report = db.verify_integrity()
        assert report.ok, f"round {round_}:\n{report.render()}"
    manager.locks.assert_idle()
