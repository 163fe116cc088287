"""Unit tests for the §9 engine-level enforcement implementation."""

import pytest

from repro import (
    Column,
    Database,
    EnforcedForeignKey,
    ForeignKey,
    IndexStructure,
    MatchSemantics,
    ReferentialAction,
    ReferentialIntegrityViolation,
    check_database,
)
from repro.core.engine_level import (
    EngineLevelEnforcement,
    StatePartitionedChildIndex,
    SubsetCountingParentIndex,
)
from repro.errors import SchemaError
from repro.nulls import NULL
from repro.query import dml
from repro.query.predicate import Eq, equalities
from repro.workloads.synthetic import SyntheticConfig, delete_stream
from repro.workloads.synthetic import generate as generate_synthetic
from repro.workloads.synthetic import insert_stream


def make_db(n=3, **actions):
    db = Database()
    keys = tuple(f"k{i}" for i in range(n))
    fks = tuple(f"f{i}" for i in range(n))
    db.create_table("p", [Column(k, nullable=False) for k in keys])
    db.create_table("c", [Column(f) for f in fks])
    fk = ForeignKey("fk", "c", fks, "p", keys, match=MatchSemantics.PARTIAL,
                    **actions)
    db.add_foreign_key(fk)
    return db, fk


class TestChildIndex:
    def test_insert_probe_delete(self):
        db, fk = make_db(2)
        index = StatePartitionedChildIndex(fk, db.tracker)
        index.insert(1, (5, NULL))
        assert index.probe((1,), (5,))
        assert not index.probe((0,), (5,))
        assert index.rids((1,), (5,)) == {1}
        index.delete(1, (5, NULL))
        assert not index.probe((1,), (5,))
        assert len(index) == 0

    def test_update_moves_entry(self):
        db, fk = make_db(2)
        index = StatePartitionedChildIndex(fk, db.tracker)
        index.insert(1, (5, NULL))
        index.update(1, (5, NULL), (5, 7))
        assert not index.probe((1,), (5,))
        assert index.probe((), (5, 7))

    def test_update_same_key_noop(self):
        db, fk = make_db(2)
        index = StatePartitionedChildIndex(fk, db.tracker)
        index.insert(1, (5, NULL))
        before = db.tracker["index_maintenance_ops"]
        index.update(1, (5, NULL), (5, NULL))
        assert db.tracker["index_maintenance_ops"] == before


class TestParentIndex:
    def test_subset_probes(self):
        db, fk = make_db(3)
        index = SubsetCountingParentIndex(fk, db.tracker)
        index.insert((1, 2, 3))
        assert index.probe((0,), (1,))
        assert index.probe((0, 2), (1, 3))
        assert index.probe((0, 1, 2), (1, 2, 3))
        assert not index.probe((0, 2), (1, 4))

    def test_counting_with_duplicates(self):
        db, fk = make_db(2)
        index = SubsetCountingParentIndex(fk, db.tracker)
        index.insert((1, 2))
        index.insert((1, 3))  # shares k0 = 1
        index.delete((1, 2))
        assert index.probe((0,), (1,))  # (1, 3) still matches
        index.delete((1, 3))
        assert not index.probe((0,), (1,))


class TestEngineLevelEnforcement:
    def setup_engine(self):
        db, fk = make_db(3)
        engine = EngineLevelEnforcement(db, fk)
        dml.insert(db, "p", (1, 1, 1))
        dml.insert(db, "p", (1, 2, 1))
        return db, fk, engine

    def test_rejects_non_partial(self):
        db, fk = make_db(2)
        fk.match = MatchSemantics.SIMPLE
        with pytest.raises(SchemaError):
            EngineLevelEnforcement(db, fk)

    @pytest.mark.parametrize("event", ["on_delete", "on_update"])
    @pytest.mark.parametrize("action", [ReferentialAction.RESTRICT,
                                        ReferentialAction.NO_ACTION])
    def test_rejects_vetoing_actions(self, event, action):
        db, fk = make_db(2, **{event: action})
        with pytest.raises(SchemaError):
            EngineLevelEnforcement(db, fk)
        assert len(db.triggers) == 0

    def test_insert_veto_and_accept(self):
        db, __, __e = self.setup_engine()
        dml.insert(db, "c", (1, NULL, 1))
        with pytest.raises(ReferentialIntegrityViolation):
            dml.insert(db, "c", (9, NULL, NULL))

    def test_fully_null_accepted(self):
        db, __, __e = self.setup_engine()
        dml.insert(db, "c", (NULL, NULL, NULL))

    def test_delete_with_alternative_keeps_child(self):
        db, fk, __ = self.setup_engine()
        dml.insert(db, "c", (1, NULL, 1))
        dml.delete_where(db, "p", equalities(fk.key_columns, (1, 1, 1)))
        assert db.select("c") == [(1, NULL, 1)]
        assert check_database(db) == []

    def test_delete_last_parent_applies_action(self):
        db, fk, __ = self.setup_engine()
        dml.insert(db, "c", (1, NULL, 1))
        dml.delete_where(db, "p", equalities(fk.key_columns, (1, 1, 1)))
        dml.delete_where(db, "p", equalities(fk.key_columns, (1, 2, 1)))
        assert db.select("c") == [(NULL, NULL, NULL)]
        assert check_database(db) == []

    def test_child_update_checked(self):
        db, __, __e = self.setup_engine()
        dml.insert(db, "c", (1, 1, 1))
        with pytest.raises(ReferentialIntegrityViolation):
            dml.update_where(db, "c", {"f0": 9}, Eq("f0", 1))

    def test_parent_key_update_applies_action(self):
        db, fk, __ = self.setup_engine()
        dml.insert(db, "c", (1, 1, 1))
        dml.update_where(db, "p", {"k1": 9}, equalities(fk.key_columns, (1, 1, 1)))
        assert db.select("c") == [(NULL, NULL, NULL)]

    def test_parent_key_update_applies_on_update_action(self):
        db, fk = make_db(3, on_delete=ReferentialAction.SET_NULL,
                         on_update=ReferentialAction.CASCADE)
        EngineLevelEnforcement(db, fk)
        dml.insert(db, "p", (1, 1, 1))
        dml.insert(db, "p", (2, 2, 2))
        dml.insert(db, "c", (1, 1, 1))
        dml.insert(db, "c", (2, NULL, 2))
        dml.update_where(db, "p", {"k1": 9}, equalities(fk.key_columns, (1, 1, 1)))
        assert db.select("c") == [(2, NULL, 2)]  # CASCADE, as the triggers do
        dml.delete_where(db, "p", equalities(fk.key_columns, (2, 2, 2)))
        assert db.select("c") == [(NULL, NULL, NULL)]  # ON DELETE SET NULL
        assert check_database(db) == []

    def test_delete_applies_cascade(self):
        db, fk = make_db(3, on_delete=ReferentialAction.CASCADE)
        EngineLevelEnforcement(db, fk)
        dml.insert(db, "p", (1, 1, 1))
        dml.insert(db, "c", (1, 1, 1))
        dml.insert(db, "c", (1, NULL, 1))
        dml.delete_where(db, "p", equalities(fk.key_columns, (1, 1, 1)))
        assert db.select("c") == []

    def test_uninstall(self):
        db, fk, engine = self.setup_engine()
        engine.uninstall()
        dml.insert(db, "c", (9, NULL, NULL))  # unenforced now

    def test_creates_parent_pk_index(self):
        db, __, __e = self.setup_engine()
        assert "fk_engine_pk" in db.table("p").indexes


class TestEquivalenceWithTriggerEnforcement:
    """The §9 engine must produce byte-identical outcomes to the §6.1
    triggers — only the costs may differ."""

    def run_workload(self, kind: str):
        ds = generate_synthetic(SyntheticConfig(n_columns=3, parent_rows=300))
        if kind == "engine":
            EngineLevelEnforcement(ds.db, ds.fk)
        else:
            EnforcedForeignKey.create(ds.db, ds.fk, IndexStructure.BOUNDED)
        for row in insert_stream(ds, 40):
            dml.insert(ds.db, "C", row)
        for key in delete_stream(ds, 20):
            dml.delete_where(ds.db, "P", equalities(ds.fk.key_columns, key))
        assert check_database(ds.db) == []
        return (sorted(ds.parent_table.rows()),
                sorted(ds.child_table.rows(), key=repr))

    def test_same_final_state(self):
        assert self.run_workload("engine") == self.run_workload("triggers")

    def test_engine_never_scans_child_for_probes(self):
        ds = generate_synthetic(SyntheticConfig(n_columns=3, parent_rows=300))
        EngineLevelEnforcement(ds.db, ds.fk)
        ds.db.tracker.reset()
        for key in delete_stream(ds, 10):
            dml.delete_where(ds.db, "P", equalities(ds.fk.key_columns, key))
        # every probe is O(1); any full scan would be a regression
        assert ds.db.tracker["full_scans"] == 0

    def test_transaction_rollback_keeps_structures_consistent(self):
        """Rollback bypasses triggers; the engine subscribes to the
        physical-undo observer hook, so its structures resynchronise."""
        ds = generate_synthetic(SyntheticConfig(n_columns=3, parent_rows=200))
        engine = EngineLevelEnforcement(ds.db, ds.fk)
        size_before = len(engine.child_index)
        with pytest.raises(RuntimeError):
            with ds.db.begin():
                for row in insert_stream(ds, 10):
                    dml.insert(ds.db, "C", row)
                for key in delete_stream(ds, 5):
                    dml.delete_where(ds.db, "P",
                                     equalities(ds.fk.key_columns, key))
                raise RuntimeError
        assert len(engine.child_index) == size_before
        # probes still agree with reality after the rollback
        for row in insert_stream(ds, 10, seed=99):
            dml.insert(ds.db, "C", row)
        assert check_database(ds.db) == []

    def test_uninstall_removes_undo_observer(self):
        ds = generate_synthetic(SyntheticConfig(n_columns=3, parent_rows=100))
        engine = EngineLevelEnforcement(ds.db, ds.fk)
        engine.uninstall()
        assert engine._on_physical_undo not in ds.db.physical_undo_observers
