"""Unit tests for batched enforcement (§9 shared execution)."""

import pytest

from repro import (
    Column,
    Database,
    EnforcedForeignKey,
    ForeignKey,
    IndexStructure,
    LockTimeoutError,
    MatchSemantics,
    ReferentialAction,
    ReferentialIntegrityViolation,
    check_database,
)
from repro.core.batch import batch_delete_parents, batch_insert_rows
from repro.nulls import NULL
from repro.query import dml
from repro.query.predicate import equalities
from repro.workloads.synthetic import (
    SyntheticConfig,
    delete_stream,
    insert_stream,
)
from repro.workloads.synthetic import generate as generate_synthetic


def loaded(n=3, rows=300):
    ds = generate_synthetic(SyntheticConfig(n_columns=n, parent_rows=rows))
    EnforcedForeignKey.create(ds.db, ds.fk, IndexStructure.BOUNDED)
    return ds


class TestBatchInsert:
    def test_inserts_all_rows(self):
        ds = loaded()
        rows = insert_stream(ds, 50)
        before = ds.child_table.row_count
        rids = batch_insert_rows(ds.db, "C", rows)
        assert len(rids) == 50
        assert ds.child_table.row_count == before + 50
        assert check_database(ds.db) == []

    def test_violating_row_rejects_whole_batch(self):
        ds = loaded()
        rows = insert_stream(ds, 10)
        bad = (10**9, NULL, NULL, 0)
        before = ds.child_table.row_count
        with pytest.raises(ReferentialIntegrityViolation):
            batch_insert_rows(ds.db, "C", rows + [bad])
        assert ds.child_table.row_count == before  # atomic

    def test_matches_per_row_inserts(self):
        ds_a = loaded()
        ds_b = loaded()
        rows = insert_stream(ds_a, 60)
        batch_insert_rows(ds_a.db, "C", rows)
        for row in insert_stream(ds_b, 60):
            dml.insert(ds_b.db, "C", row)
        assert sorted(ds_a.child_table.rows(), key=repr) == sorted(
            ds_b.child_table.rows(), key=repr
        )

    def test_inside_existing_transaction(self):
        ds = loaded()
        rows = insert_stream(ds, 10)
        with pytest.raises(RuntimeError):
            with ds.db.begin():
                batch_insert_rows(ds.db, "C", rows)
                raise RuntimeError
        assert check_database(ds.db) == []


class TestNonAtomicBatchInsert:
    """A batch is all-or-nothing whichever of the table's foreign keys
    a row violates: every check precedes the first write."""

    @staticmethod
    def two_fk_db():
        db = Database("audit")
        db.create_table("p", [
            Column("k1", nullable=False), Column("k2", nullable=False),
        ])
        db.create_table("q", [Column("m", nullable=False)])
        db.create_table("c", [Column("x"), Column("f1"), Column("f2"),
                              Column("g")])
        fk = ForeignKey("fk_cp", "c", ("f1", "f2"), "p", ("k1", "k2"),
                        match=MatchSemantics.PARTIAL)
        fk2 = ForeignKey("fk_cq", "c", ("g",), "q", ("m",),
                         match=MatchSemantics.SIMPLE)
        EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
        EnforcedForeignKey.create(db, fk2, IndexStructure.BOUNDED)
        for k in (1, 2):
            dml.insert(db, "p", (k, k))
        dml.insert(db, "q", (5,))
        return db

    def test_atomic_batch_unwinds_everything(self):
        """Every row satisfies the first key; the third violates the
        second one: nothing survives."""
        db = self.two_fk_db()
        rows = [(1, 1, 1, 5), (2, 2, 2, 5), (3, 1, 1, 999), (4, 2, 2, 5)]
        with pytest.raises(ReferentialIntegrityViolation):
            batch_insert_rows(db, "c", rows)
        assert db.table("c").row_count == 0
        assert db.verify_integrity().ok

    def test_probe_pass_failure_inserts_nothing(self):
        db = self.two_fk_db()
        rows = [(1, 1, 1, 5), (2, 7, 7, 5)]  # (7, 7) has no parent
        with pytest.raises(ReferentialIntegrityViolation):
            batch_insert_rows(db, "c", rows)
        assert db.table("c").row_count == 0
        assert db.verify_integrity().ok


class TestVectorizedBatchInsert:
    """The vectorized K-row insert path (``batch_insert_rows``) must be
    *bit-for-bit* counter-identical to a loop of per-row ``dml.insert``
    calls — it shares descents and index walks but replays every logical
    charge the per-row path would have made."""

    @staticmethod
    def parity(rows_a, run_vectorized, rows_b=None, loaded_kwargs=None):
        ds_vec = loaded(**(loaded_kwargs or {}))
        ds_loop = loaded(**(loaded_kwargs or {}))
        ds_vec.db.tracker.reset()
        ds_loop.db.tracker.reset()
        run_vectorized(ds_vec.db, rows_a)
        with ds_loop.db.begin():
            for row in rows_b if rows_b is not None else rows_a:
                dml.insert(ds_loop.db, "C", row)
        assert ds_vec.db.tracker.counters == ds_loop.db.tracker.counters
        assert sorted(ds_vec.child_table.rows(), key=repr) == sorted(
            ds_loop.child_table.rows(), key=repr
        )
        assert check_database(ds_vec.db) == []

    def test_counter_parity_clustered_stream(self):
        from repro.workloads.synthetic import clustered_insert_stream

        ds = loaded()
        rows = clustered_insert_stream(ds, 200)
        self.parity(rows, lambda db, r: batch_insert_rows(db, "C", r))

    def test_counter_parity_scattered_stream(self):
        ds = loaded(n=4, rows=400)
        rows = insert_stream(ds, 150)
        self.parity(
            rows,
            lambda db, r: db.batch_insert("C", r),
            loaded_kwargs={"n": 4, "rows": 400},
        )

    def test_counter_parity_managed_session(self):
        from repro.workloads.synthetic import clustered_insert_stream

        ds_vec = loaded()
        ds_loop = loaded()
        rows = clustered_insert_stream(ds_vec, 120)
        s_vec = ds_vec.db.enable_sessions().session()
        s_loop = ds_loop.db.enable_sessions().session()
        ds_vec.db.tracker.reset()
        ds_loop.db.tracker.reset()
        s_vec.execute(lambda: batch_insert_rows(s_vec.db, "C", rows))
        s_loop.begin()
        for row in rows:
            s_loop.execute(lambda row=row: dml.insert(s_loop.db, "C", row))
        s_loop.commit()
        assert ds_vec.db.tracker.counters == ds_loop.db.tracker.counters
        assert sorted(ds_vec.child_table.rows(), key=repr) == sorted(
            ds_loop.child_table.rows(), key=repr
        )

    def test_first_violation_matches_per_row_message(self):
        ds = loaded()
        rows = insert_stream(ds, 10)
        bad = (10**9, 10**9 + 1, NULL, 0)
        mixed = rows[:4] + [bad] + rows[4:]
        before = ds.child_table.row_count
        with pytest.raises(ReferentialIntegrityViolation) as vec_info:
            batch_insert_rows(ds.db, "C", mixed)
        assert ds.child_table.row_count == before  # atomic
        with pytest.raises(ReferentialIntegrityViolation) as row_info:
            dml.insert(ds.db, "C", bad)
        assert str(vec_info.value) == str(row_info.value)

    def test_candidate_key_table_stays_per_row_but_vectorizes_probes(self):
        from repro import DataType, PrimaryKey
        from repro.errors import KeyViolation

        def build():
            db = Database("pkbatch")
            db.create_table("p", [
                Column("k1", DataType.INTEGER, nullable=False),
                Column("k2", DataType.INTEGER, nullable=False),
            ])
            db.create_table("c", [
                Column("cid", DataType.INTEGER, nullable=False),
                Column("f1"), Column("f2"),
            ])
            db.add_candidate_key(PrimaryKey("c", ("cid",)))
            fk = ForeignKey("fk_pk", "c", ("f1", "f2"), "p", ("k1", "k2"),
                            match=MatchSemantics.PARTIAL)
            EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
            for k in (1, 2, 3):
                dml.insert(db, "p", (k, k))
            return db

        rows = [(i, (i % 3) + 1, NULL) for i in range(30)]
        db_vec, db_loop = build(), build()
        db_vec.tracker.reset()
        db_loop.tracker.reset()
        batch_insert_rows(db_vec, "c", rows)
        with db_loop.begin():
            for row in rows:
                dml.insert(db_loop, "c", row)
        assert db_vec.tracker.counters == db_loop.tracker.counters
        assert sorted(db_vec.table("c").rows()) == sorted(db_loop.table("c").rows())
        # An in-batch duplicate key must be caught (the per-row physical
        # phase sees the batch's own earlier rows) and unwind everything.
        with pytest.raises(KeyViolation):
            batch_insert_rows(db_vec, "c", [(100, 1, NULL), (100, 2, NULL)])
        assert db_vec.table("c").row_count == 30

    def test_self_referential_fk_falls_back_to_per_row(self):
        def build():
            db = Database("selfref")
            db.create_table("t", [
                Column("k1", nullable=False), Column("k2", nullable=False),
                Column("f1"), Column("f2"),
            ])
            fk = ForeignKey("fk_self", "t", ("f1", "f2"), "t", ("k1", "k2"),
                            match=MatchSemantics.PARTIAL)
            EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
            dml.insert(db, "t", (1, 1, NULL, NULL))
            return db

        # Row 2 references row 1 *of the same batch*: only the per-row
        # fallback (which the self-referential plan forces) can see it.
        rows = [(7, 7, 1, 1), (8, 8, 7, 7)]
        db_vec, db_loop = build(), build()
        db_vec.tracker.reset()
        db_loop.tracker.reset()
        batch_insert_rows(db_vec, "t", rows)
        with db_loop.begin():
            for row in rows:
                dml.insert(db_loop, "t", row)
        assert db_vec.tracker.counters == db_loop.tracker.counters
        assert sorted(db_vec.table("t").rows()) == sorted(db_loop.table("t").rows())

    def test_empty_batch(self):
        ds = loaded()
        assert batch_insert_rows(ds.db, "C", []) == []

    def test_rollback_inside_explicit_transaction(self):
        ds = loaded()
        rows = insert_stream(ds, 15)
        before = ds.child_table.row_count
        with pytest.raises(RuntimeError):
            with ds.db.begin():
                batch_insert_rows(ds.db, "C", rows)
                raise RuntimeError
        assert ds.child_table.row_count == before
        assert check_database(ds.db) == []


class TestBatchDelete:
    def test_deletes_all_parents(self):
        ds = loaded()
        keys = delete_stream(ds, 20)
        deleted = batch_delete_parents(ds.db, ds.fk, keys)
        assert deleted == 20
        assert check_database(ds.db) == []

    def test_matches_per_row_deletes(self):
        ds_a = loaded()
        ds_b = loaded()
        keys = delete_stream(ds_a, 25)
        batch_delete_parents(ds_a.db, ds_a.fk, keys)
        for key in delete_stream(ds_b, 25):
            dml.delete_where(ds_b.db, "P", equalities(ds_b.fk.key_columns, key))
        assert sorted(ds_a.parent_table.rows()) == sorted(ds_b.parent_table.rows())
        assert sorted(ds_a.child_table.rows(), key=repr) == sorted(
            ds_b.child_table.rows(), key=repr
        )

    def test_shared_state_loop_fewer_checks(self):
        ds_batch = loaded(rows=500)
        ds_loop = loaded(rows=500)
        keys = delete_stream(ds_batch, 40)

        ds_batch.db.tracker.reset()
        batch_delete_parents(ds_batch.db, ds_batch.fk, keys)
        batched = ds_batch.db.tracker["state_checks"]

        ds_loop.db.tracker.reset()
        for key in delete_stream(ds_loop, 40):
            dml.delete_where(ds_loop.db, "P", equalities(ds_loop.fk.key_columns, key))
        looped = ds_loop.db.tracker["state_checks"]

        assert batched <= looped

    @pytest.mark.parametrize("match", [MatchSemantics.SIMPLE, MatchSemantics.PARTIAL])
    def test_native_key_counters_match_per_row_deletes(self, match):
        """A NATIVE key runs its referential action inside every delete:
        the batch must not run the state loop over the keys again."""

        def build():
            ds = generate_synthetic(SyntheticConfig(n_columns=3, parent_rows=400))
            fk = ForeignKey("fk_native", "C", ds.fk.fk_columns, "P",
                            ds.fk.key_columns, match=match,
                            on_delete=ReferentialAction.SET_NULL)
            if match is MatchSemantics.SIMPLE:
                EnforcedForeignKey.create(ds.db, fk, IndexStructure.FULL)
            else:
                ds.db.add_foreign_key(fk)  # natively enforced, no triggers
            ds.db.tracker.reset()
            return ds, fk

        (ds_batch, fk), (ds_loop, __) = build(), build()
        keys = delete_stream(ds_batch, 30)
        assert batch_delete_parents(ds_batch.db, fk, keys) == 30
        for key in keys:
            dml.delete_where(ds_loop.db, "P", equalities(fk.key_columns, key))
        assert ds_batch.db.tracker.counters == ds_loop.db.tracker.counters
        assert sorted(ds_batch.child_table.rows(), key=repr) == sorted(
            ds_loop.child_table.rows(), key=repr
        )
        assert check_database(ds_batch.db) == []

    def test_rollback_on_error_inside_batch(self):
        ds = loaded()
        keys = delete_stream(ds, 5)
        p_before = sorted(ds.parent_table.rows())
        with pytest.raises(RuntimeError):
            with ds.db.begin():
                batch_delete_parents(ds.db, ds.fk, keys)
                raise RuntimeError
        assert sorted(ds.parent_table.rows()) == p_before

    @pytest.mark.parametrize(
        "action", [ReferentialAction.CASCADE, ReferentialAction.SET_NULL]
    )
    def test_match_simple_leaves_partially_null_children_alone(self, action):
        """MATCH SIMPLE does not constrain a partially-NULL child, so a
        parent delete must not touch it — batched or per row."""

        def build():
            db = Database("simple")
            db.create_table("p", [
                Column("k1", nullable=False), Column("k2", nullable=False),
            ])
            db.create_table("c", [Column("id"), Column("f1"), Column("f2")])
            fk = ForeignKey("fk", "c", ("f1", "f2"), "p", ("k1", "k2"),
                            match=MatchSemantics.SIMPLE, on_delete=action)
            EnforcedForeignKey.create(db, fk, IndexStructure.FULL)
            for k in (1, 2, 3):
                dml.insert(db, "p", (k, k * 10))
            for row in [(1, 2, 20), (2, 2, NULL), (3, NULL, 20), (4, 1, 10)]:
                dml.insert(db, "c", row)
            return db, fk

        keys = [(2, 20), (3, 30)]
        db_batch, fk = build()
        db_loop, __ = build()
        assert batch_delete_parents(db_batch, fk, keys) == 2
        for key in keys:
            dml.delete_where(db_loop, "p", equalities(("k1", "k2"), key))
        survivors = sorted(db_batch.table("c").rows(), key=repr)
        assert survivors == sorted(db_loop.table("c").rows(), key=repr)
        assert (2, 2, NULL) in survivors and (3, NULL, 20) in survivors
        assert db_batch.verify_integrity().ok


def test_batch_insert_in_open_transaction_pins_its_witness():
    """A batch-inserted child adopts its parent like a per-row insert
    does: until the inserting transaction ends, another session's delete
    of that parent waits.  The child table has no candidate key (the
    synthetic datasets' shape), so the witness S-lock is the only thing
    between the delete's SET NULL and the uncommitted child."""
    db = Database("pin")
    db.create_table("p", [
        Column("k1", nullable=False), Column("k2", nullable=False),
    ])
    db.create_table("c", [Column("id"), Column("f1"), Column("f2")])
    fk = ForeignKey("fk", "c", ("f1", "f2"), "p", ("k1", "k2"),
                    match=MatchSemantics.PARTIAL)
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    for k in (1, 2, 3):
        dml.insert(db, "p", (k, k * 10))
    manager = db.enable_sessions(lock_timeout=0.2)
    sa, sb = manager.session(), manager.session()
    try:
        sa.begin()
        sa.execute(lambda: batch_insert_rows(db, "c", [(1, 2, NULL)]))
        with pytest.raises(LockTimeoutError):
            sb.delete_where("p", equalities(("k1", "k2"), (2, 20)))
        sa.commit()
        assert db.table("c").rows() == [(1, 2, NULL)]
        assert sorted(db.table("p").rows()) == [(1, 10), (2, 20), (3, 30)]
        assert db.verify_integrity().ok
    finally:
        sa.close()
        sb.close()
    manager.locks.assert_idle()
