"""Deterministic cost-shape tests: the paper's claims as counter assertions.

Wall-clock comparisons are machine-dependent; the logical cost counters
are not.  These tests pin the *mechanisms* behind every headline result
of the paper: which structures full-scan, which probe, and who pays how
much maintenance.
"""

from dataclasses import replace

import pytest

from repro.core import IndexStructure
from repro.core.enforcement import EnforcedForeignKey
from repro.indexes.cost import CostSnapshot, CostTracker
from repro.indexes.definition import IndexKind
from repro.query import dml
from repro.query.predicate import equalities
from repro.workloads.synthetic import (
    SyntheticConfig,
    delete_stream,
    generate,
    insert_stream,
    total_insert_stream,
)

CFG = SyntheticConfig(n_columns=5, parent_rows=1500, seed=3)


def costs_for(
    structure, operation: str, kind=IndexKind.BTREE, null_fraction=CFG.null_fraction
) -> CostSnapshot:
    dataset = generate(replace(CFG, null_fraction=null_fraction))
    db = dataset.db
    EnforcedForeignKey.create(db, dataset.fk, structure, kind)
    if operation == "insert":
        rows = insert_stream(dataset, 40)
        db.tracker.reset()
        for row in rows:
            dml.insert(db, "C", row)
    elif operation == "insert_total":
        rows = total_insert_stream(dataset, 40)
        db.tracker.reset()
        for row in rows:
            dml.insert(db, "C", row)
    else:
        keys = delete_stream(dataset, 12)
        db.tracker.reset()
        for key in keys:
            dml.delete_where(db, "P", equalities(dataset.fk.key_columns, key))
    return db.tracker.snapshot()


def work(snapshot: CostSnapshot) -> int:
    return snapshot["rows_examined"] + snapshot["rows_fetched"]


@pytest.fixture(scope="module")
def cost():
    cache = {}

    def get(structure, operation, **variant):
        key = (structure, operation, *sorted(variant.items()))
        if key not in cache:
            cache[key] = costs_for(structure, operation, **variant)
        return cache[key]

    return get


class TestDeletionMechanisms:
    def test_hybrid_full_scans_on_delete(self, cost):
        """§7.5: Hybrid scans the child table for leading-null states."""
        assert cost(IndexStructure.HYBRID, "delete")["full_scans"] > 0

    def test_bounded_never_full_scans_on_delete(self, cost):
        """Not on hash indexes either (§7.1); they answer no prefix probe,
        so they do at least the B-trees' work."""
        btree = cost(IndexStructure.BOUNDED, "delete")
        hashed = cost(IndexStructure.BOUNDED, "delete", kind=IndexKind.HASH)
        assert btree["full_scans"] == hashed["full_scans"] == 0
        assert work(hashed) >= work(btree)

    def test_hybrid_nsingle_fixes_deletions(self, cost):
        """Figure 7: the deletion boost comes from adding nSingle."""
        assert cost(IndexStructure.HYBRID_NSINGLE, "delete")["full_scans"] == 0

    def test_hybrid_compound_does_not_fix_deletions(self, cost):
        assert cost(IndexStructure.HYBRID_COMPOUND, "delete")["full_scans"] > 0

    def test_full_scans_like_hybrid_on_delete(self, cost):
        """§7.2: Hybrid performs like Full under deletions."""
        full = cost(IndexStructure.FULL, "delete")["rows_examined"]
        hybrid = cost(IndexStructure.HYBRID, "delete")["rows_examined"]
        assert full >= 0.5 * hybrid

    @pytest.mark.parametrize("null_fraction", [0.25, 0.5, 0.8])
    def test_bounded_examines_far_fewer_rows_than_hybrid(self, cost, null_fraction):
        """At the grid's 25 % null markers and §7.1's 50 and 80 %."""
        hybrid = cost(IndexStructure.HYBRID, "delete", null_fraction=null_fraction)
        bounded = cost(IndexStructure.BOUNDED, "delete", null_fraction=null_fraction)
        assert work(bounded) < work(hybrid) / 5

    def test_powerset_pays_more_maintenance_than_bounded(self, cost):
        powerset = cost(IndexStructure.POWERSET, "delete")
        bounded = cost(IndexStructure.BOUNDED, "delete")
        assert powerset["index_maintenance_ops"] > 2 * bounded["index_maintenance_ops"]
        assert powerset["planner_candidates"] > 2 * bounded["planner_candidates"]

    def test_no_index_examines_the_most_rows(self, cost):
        worst = cost(IndexStructure.NO_INDEX, "delete")["rows_examined"]
        for s in (IndexStructure.FULL, IndexStructure.HYBRID,
                  IndexStructure.BOUNDED):
            assert worst >= cost(s, "delete")["rows_examined"]


class TestInsertionMechanisms:
    def test_hybrid_fetches_many_rows_for_total_inserts(self, cost):
        """Figure 9: Hybrid's singleton probe filters duplicate blocks."""
        hybrid = cost(IndexStructure.HYBRID, "insert_total")
        bounded = cost(IndexStructure.BOUNDED, "insert_total")
        assert hybrid["rows_fetched"] > 5 * max(bounded["rows_fetched"], 1)

    def test_hybrid_compound_fixes_total_inserts(self, cost):
        """Figure 8: the insertion boost comes from adding Compound."""
        hc = cost(IndexStructure.HYBRID_COMPOUND, "insert_total")
        hybrid = cost(IndexStructure.HYBRID, "insert_total")
        assert hc["rows_fetched"] < hybrid["rows_fetched"] / 5

    def test_powerset_maintains_most_indexes_per_insert(self, cost):
        powerset = cost(IndexStructure.POWERSET, "insert")
        bounded = cost(IndexStructure.BOUNDED, "insert")
        hybrid = cost(IndexStructure.HYBRID, "insert")
        # child has 2^5 - 1 = 31 indexes vs 6 (Bounded) vs 1 (Hybrid)
        assert powerset["index_maintenance_ops"] == pytest.approx(
            31 / 6 * bounded["index_maintenance_ops"], rel=0.05
        )
        assert hybrid["index_maintenance_ops"] == pytest.approx(
            bounded["index_maintenance_ops"] / 6, rel=0.05
        )

    def test_full_scans_parent_for_partial_inserts(self, cost):
        """Full's compound parent index cannot serve states missing k1."""
        assert cost(IndexStructure.FULL, "insert")["full_scans"] > 0
        assert cost(IndexStructure.BOUNDED, "insert")["full_scans"] == 0

    def test_singleton_close_to_hybrid_for_inserts(self, cost):
        """§7.2: Hybrid matches Singleton under insertions."""
        singleton = cost(IndexStructure.SINGLETON, "insert")
        hybrid = cost(IndexStructure.HYBRID, "insert")
        s_work = singleton["rows_fetched"] + singleton["rows_examined"]
        h_work = hybrid["rows_fetched"] + hybrid["rows_examined"]
        assert 0.5 < (s_work + 1) / (h_work + 1) < 2.0


class TestStateChecks:
    def test_delete_probes_every_state(self, cost):
        """The trigger visits 2^n - 2 partial states per deletion."""
        snapshot = cost(IndexStructure.BOUNDED, "delete")
        assert snapshot["state_checks"] == 12 * 30  # 12 deletes, 30 states

    def test_insert_checks_once(self, cost):
        snapshot = cost(IndexStructure.BOUNDED, "insert")
        # one subsumption probe per insert (all-null rows skip it)
        assert 0 < snapshot["state_checks"] <= 40


class TestCostTrackerUtilities:
    def test_snapshot_diff(self):
        t = CostTracker()
        t.count("rows_examined", 5)
        a = t.snapshot()
        t.count("rows_examined", 3)
        delta = t.snapshot().diff(a)
        assert delta["rows_examined"] == 3

    def test_measure_context(self):
        t = CostTracker()
        with t.measure() as capture:
            t.count("full_scans")
        assert capture.delta["full_scans"] == 1

    def test_disabled_tracker(self):
        t = CostTracker()
        t.enabled = False
        t.count("rows_examined")
        assert t["rows_examined"] == 0

    def test_total_logical_cost(self):
        t = CostTracker()
        t.count("rows_examined", 2)
        t.count("index_node_reads", 3)
        assert t.snapshot().total_logical_cost() == 5

    def test_reset(self):
        t = CostTracker()
        t.count("rows_examined", 2)
        t.reset()
        assert t["rows_examined"] == 0

    def test_repr_shows_nonzero(self):
        t = CostTracker()
        t.count("full_scans")
        assert "full_scans" in repr(t)
