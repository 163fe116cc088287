"""Shared fixtures: the paper's running example and small synthetic DBs."""

from __future__ import annotations

import threading

import pytest

from repro import (
    Column,
    Database,
    DataType,
    EnforcedForeignKey,
    ForeignKey,
    IndexStructure,
    MatchSemantics,
    NULL,
)

#: The TOUR table of Example 1 (tour_id, site_code, site_name).
TOUR_ROWS = [
    ("GCG", "OR", "O'Reilly's"),
    ("BRT", "OR", "O'Reilly's"),
    ("BRT", "MV", "Movie World"),
    ("RF", "BB", "Binna Burra"),
    ("RF", "OR", "O'Reilly's"),
]

#: The BOOKING rows of Example 1 that satisfy partial semantics
#: (the paper's (BRF, null) and (null, BR) rows violate it).
BOOKING_ROWS_VALID = [
    (1001, "BRT", "OR", "Nov 21"),
    (1008, NULL, "BB", "Sep 5"),
    (1011, "RF", NULL, "Oct 5"),
]


def make_tourism_db() -> tuple[Database, ForeignKey]:
    """Example 1's schema and TOUR data; no enforcement installed yet."""
    db = Database("tourism")
    db.create_table("tour", [
        Column("tour_id", DataType.TEXT, nullable=False),
        Column("site_code", DataType.TEXT, nullable=False),
        Column("site_name", DataType.TEXT),
    ])
    db.create_table("booking", [
        Column("visitor_id", DataType.INTEGER, nullable=False),
        Column("tour_id", DataType.TEXT),
        Column("site_code", DataType.TEXT),
        Column("day", DataType.TEXT),
    ])
    for row in TOUR_ROWS:
        db.table("tour").insert_row(row)
    fk = ForeignKey(
        "fk_booking_tour",
        "booking", ("tour_id", "site_code"),
        "tour", ("tour_id", "site_code"),
        match=MatchSemantics.PARTIAL,
    )
    fk.validate_against(db)
    return db, fk


@pytest.fixture
def tourism():
    """(db, fk) for Example 1, without enforcement."""
    return make_tourism_db()


@pytest.fixture
def enforced_tourism():
    """(db, fk, efk) for Example 1 with Bounded enforcement and the valid
    BOOKING rows loaded."""
    db, fk = make_tourism_db()
    efk = EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    for row in BOOKING_ROWS_VALID:
        db.insert("booking", row)
    return db, fk, efk


@pytest.fixture
def empty_db():
    return Database("test")


class OneIndex:
    """One index under its own :class:`~repro.indexes.manager.IndexManager`.

    The manager builds it over *rows* (its one create path), row writes
    go through the manager's fan-out, the only maintenance path, and
    ``_tracker`` is the manager's; everything else (probes,
    ``entry_of``, the structure) is the
    :class:`~repro.indexes.manager.TableIndex`'s own.
    """

    def __init__(self, definition, positions, rows=()):
        from repro.indexes.cost import CostTracker
        from repro.indexes.manager import IndexManager

        self._tracker = CostTracker()
        self.manager = IndexManager(self._tracker)
        (self.index,) = self.manager.create([(definition, positions)], rows)
        self.insert_row = self.manager.insert_row
        self.delete_row = self.manager.delete_row
        self.update_row = self.manager.update_row

    def __getattr__(self, name):
        return getattr(self.index, name)

    def __len__(self):
        return len(self.index)


def run_threads(fns, timeout=30.0):
    """Run callables on daemon threads, join with a hard deadline, and
    re-raise the first exception any of them hit.

    The deadline matters: without pytest-timeout installed locally, a
    hung lock wait would otherwise hang the whole suite.
    """
    errors: list[BaseException] = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
        return runner

    threads = [threading.Thread(target=wrap(fn), daemon=True) for fn in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    stuck = [t for t in threads if t.is_alive()]
    assert not stuck, f"{len(stuck)} worker thread(s) still running after {timeout}s"
    if errors:
        raise errors[0]


@pytest.fixture(autouse=True)
def _clean_fault_registry():
    """Fault injection is process-global; never let it leak across tests."""
    from repro.testing import faults

    yield
    faults.reset()


@pytest.fixture(scope="session", autouse=True)
def _lockdep_run_report():
    """Under ``REPRO_SANITIZE=1``, fail the run if any lock manager saw a
    potential deadlock or a discipline violation.

    This is the CI ``analysis`` job's gate: the concurrency suites are
    re-run sanitized and must end lockdep-clean.  Tests that *seed*
    violations on purpose isolate themselves with ``lockdep.scoped()``.
    """
    from repro.analysis import lockdep

    yield
    if lockdep.env_enabled():
        lockdep.assert_clean()
