"""Unit tests for access-path planning — the modeling core of the repro.

The planner rules are what make the paper's measurements reproducible:
leftmost-prefix usability, IS NULL non-sargability, singleton probes,
full-scan fallback and per-statement index dives.
"""

import pytest

from repro.indexes.definition import IndexDefinition, IndexKind
from repro.nulls import NULL
from repro.query import executor, probes
from repro.query.planner import plan
from repro.query.predicate import And, Cmp, Eq, IsNull, Or, equalities
from repro.storage.schema import Column, DataType
from repro.storage.table import Table


def make_table(*index_defs: IndexDefinition, rows: int = 100) -> Table:
    t = Table("t", [Column("a"), Column("b"), Column("c")])
    for i in range(rows):
        t.insert_row((i % 10, i % 7, i))
    for d in index_defs:
        t.create_index(d)
    return t


COMPOUND = IndexDefinition("abc", ("a", "b", "c"))
SINGLE_A = IndexDefinition("only_a", ("a",))
SINGLE_B = IndexDefinition("only_b", ("b",))


class TestLeftmostPrefix:
    def test_full_equality_uses_whole_prefix(self):
        t = make_table(COMPOUND)
        path = plan(t, equalities(("a", "b", "c"), (1, 2, 3)))
        assert path.index is not None and path.index.name == "abc"
        assert path.prefix_values == (1, 2, 3)
        assert not path.is_full_scan

    def test_prefix_stops_at_missing_column(self):
        t = make_table(COMPOUND)
        path = plan(t, And(Eq("a", 1), Eq("c", 3)))
        assert path.index is not None
        assert path.prefix_values == (1,)
        assert path.needs_filter

    def test_no_leading_column_means_full_scan(self):
        t = make_table(COMPOUND)
        path = plan(t, Eq("b", 2))
        assert path.is_full_scan

    def test_is_null_is_not_sargable(self):
        """The §7.5 modeling decision: a leading IS NULL forces a scan."""
        t = make_table(COMPOUND)
        path = plan(t, And(IsNull("a"), Eq("b", 2), Eq("c", 3)))
        assert path.is_full_scan

    def test_is_null_after_prefix_is_filtered(self):
        t = make_table(COMPOUND)
        path = plan(t, And(Eq("a", 1), IsNull("b")))
        assert path.index is not None
        assert path.prefix_values == (1,)
        assert path.needs_filter


class TestIndexChoice:
    def test_singleton_used_for_non_leading_column(self):
        t = make_table(COMPOUND, SINGLE_B)
        path = plan(t, Eq("b", 2))
        assert path.index is not None and path.index.name == "only_b"

    def test_most_selective_candidate_wins(self):
        # column a has 10 distinct values over 100 rows; the compound
        # full-prefix estimate is ~1 row and must win over the singleton.
        t = make_table(COMPOUND, SINGLE_A)
        path = plan(t, equalities(("a", "b", "c"), (1, 2, 3)))
        assert path.index is not None and path.index.name == "abc"

    def test_or_forces_full_scan(self):
        t = make_table(COMPOUND, SINGLE_A, SINGLE_B)
        path = plan(t, Or(Eq("a", 1), Eq("b", 2)))
        assert path.is_full_scan

    def test_eq_plus_or_uses_index_with_filter(self):
        t = make_table(SINGLE_B)
        path = plan(t, And(Eq("b", 2), Or(IsNull("a"), IsNull("c"))))
        assert path.index is not None and path.index.name == "only_b"
        assert path.needs_filter

    def test_no_indexes_full_scan(self):
        t = make_table()
        path = plan(t, Eq("a", 1))
        assert path.is_full_scan
        assert path.estimated_rows == t.row_count

    def test_value_absent_gives_zero_estimate_but_index_path(self):
        t = make_table(SINGLE_A)
        path = plan(t, Eq("a", 12345))
        assert path.index is not None

    def test_cmp_only_full_scan(self):
        t = make_table(COMPOUND)
        assert plan(t, Cmp("a", "<", 5)).is_full_scan


class TestHashIndexPlanning:
    def test_hash_needs_all_columns(self):
        t = make_table(IndexDefinition("h_ab", ("a", "b"), kind=IndexKind.HASH))
        assert plan(t, Eq("a", 1)).is_full_scan
        path = plan(t, And(Eq("a", 1), Eq("b", 2)))
        assert path.index is not None and path.index.name == "h_ab"


class TestPlanCache:
    def test_same_shape_different_values_share_choice(self):
        t = make_table(SINGLE_A)
        p1 = plan(t, Eq("a", 1))
        p2 = plan(t, Eq("a", 2))
        assert p1.index is p2.index
        assert p2.prefix_values == (2,)

    def test_cache_invalidated_on_index_drop(self):
        t = make_table(SINGLE_A)
        path = plan(t, Eq("a", 1))
        assert path.index is not None
        t.drop_index("only_a")
        assert plan(t, Eq("a", 1)).is_full_scan

    def test_cache_invalidated_on_index_create(self):
        t = make_table()
        assert plan(t, Eq("a", 1)).is_full_scan
        t.create_index(SINGLE_A)
        assert plan(t, Eq("a", 1)).index is not None

    def test_planner_candidates_charged_every_call(self):
        t = make_table(COMPOUND, SINGLE_A, SINGLE_B)
        t.tracker.reset()
        plan(t, Eq("a", 1))
        plan(t, Eq("a", 2))
        assert t.tracker["planner_candidates"] == 6


class TestFirstPlannedOnAnEmptyTable:
    """Both deciders fix a shape's access path at its first planning.
    On an empty table every index ties the scan at zero rows; the tie
    goes to the index, so the path still fits once rows exist (a scan
    verdict would read the whole heap on every later probe)."""

    def test_plan_cache_uses_the_index_once_rows_exist(self):
        t = make_table(SINGLE_A, rows=0)
        assert plan(t, Eq("a", 1)).index is not None  # planned and cached
        for i in range(100):
            t.insert_row((i % 10, i % 7, i))
        t.tracker.reset()
        rows = [row for __, row in executor.iter_matching(t, Eq("a", 1))]
        assert len(rows) == 10
        assert t.tracker["full_scans"] == 0
        assert t.tracker["rows_fetched"] == 10

    def test_prepared_probe_uses_the_index_once_rows_exist(self):
        t = make_table(SINGLE_A, rows=0)
        assert not probes.exists_eq(t, ("a",), (1,))  # planned on no rows
        for i in range(100):
            t.insert_row((i % 10, i % 7, i))
        t.tracker.reset()
        assert probes.exists_eq(t, ("a",), (1,))
        assert t.tracker["full_scans"] == 0
        assert t.tracker["rows_examined"] == 1
        assert t.tracker["index_node_reads"] >= 1

    def test_a_one_row_table_ties_too(self):
        t = make_table(SINGLE_A, rows=1)  # the row is (0, 0, 0)
        assert plan(t, Eq("a", 0)).index is not None

    def test_populated_table_counters_are_what_they_were(self):
        """The tie rule moves no plan made on a populated table: the
        same shapes through both deciders charge what they charged
        before it (numbers recorded at the commit before the rule)."""
        t = make_table(COMPOUND, SINGLE_A, SINGLE_B)
        t.tracker.reset()
        for predicate in (
            Eq("a", 3), And(Eq("a", 3), Eq("b", 3)), Eq("b", 5),
            Eq("c", 42), And(Eq("b", 2), IsNull("a")),
        ):
            list(executor.iter_matching(t, predicate))
        for columns, values, null_columns in (
            (("a",), (3,), ()), (("a", "b"), (3, 3), ()),
            (("b",), (5,), ("a",)), (("c",), (42,), ()),
        ):
            probes.exists_eq(t, columns, values, null_columns)
        charged = {k: v for k, v in t.tracker.counters.items() if v}
        assert charged == {
            "full_scans": 2, "index_entries_scanned": 54,
            "index_node_reads": 42, "planner_candidates": 27,
            "rows_examined": 173, "rows_fetched": 56,
        }


class TestIndexDives:
    def test_dives_charge_node_reads_per_usable_index(self):
        t = make_table(COMPOUND, SINGLE_A)
        plan(t, Eq("a", 1))  # warm the plan cache
        t.tracker.reset()
        plan(t, Eq("a", 1))
        # Both indexes lead with 'a': two dives, each >= 1 node read.
        assert t.tracker["index_node_reads"] >= 2

    def test_unusable_indexes_not_dived(self):
        t = make_table(SINGLE_B)
        plan(t, Eq("a", 1))
        t.tracker.reset()
        plan(t, Eq("a", 1))
        assert t.tracker["index_node_reads"] == 0


class TestDescribe:
    def test_full_scan_describe(self):
        t = make_table()
        assert "FULL SCAN" in plan(t, Eq("a", 1)).describe()

    def test_ref_describe(self):
        t = make_table(SINGLE_A)
        text = plan(t, And(Eq("a", 1), Eq("b", 2))).describe()
        assert "REF" in text and "only_a" in text and "filter" in text
