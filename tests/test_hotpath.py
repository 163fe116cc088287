"""Hot-path wall-clock pass: the fast paths must be invisible.

Covers the optimisations of the perf pass — shared key encoding, B+ tree
insert fast paths, prepared-probe epoch invalidation — plus the
satellite fixes (update maintenance counts, hash partial-prefix errors,
NULL uniqueness).  The common theme: every
fast path must leave results, invariants and the logical cost counters
exactly as the slow path would.
"""

import pytest

from repro.constraints.foreign_key import ForeignKey, MatchSemantics
from repro.core.enforcement import EnforcedForeignKey
from repro.core.strategies import IndexStructure
from repro.errors import IndexError_, KeyViolation
from repro.indexes.btree import BPlusTree
from repro.indexes.cost import CostTracker
from repro.indexes.definition import IndexDefinition, IndexKind
from repro.indexes.keys import NULL_COMPONENT, encode_component, encode_key, encode_row
from repro.indexes.manager import IndexManager
from repro.nulls import NULL
from repro.query import probes
from repro.storage.database import Database
from repro.storage.schema import Column
from repro.storage.table import Table

from .conftest import OneIndex


def k(*values):
    return encode_key(values)


# ----------------------------------------------------------------------
# Shared key encoding


class TestEncoding:
    def test_small_int_components_are_interned(self):
        assert encode_component(7) is encode_component(7)

    def test_short_string_components_are_interned(self):
        assert encode_component("abc") is encode_component("abc")

    def test_null_component(self):
        assert encode_component(NULL) is NULL_COMPONENT

    def test_encode_row_full(self):
        assert encode_row((1, NULL, "x")) == [(1, 1), (0, 0), (1, "x")]

    def test_encode_row_positions_subset(self):
        encoded = encode_row((1, 2, 3, 4), (0, 2))
        assert encoded[0] == (1, 1) and encoded[2] == (1, 3)
        # unencoded positions are left as None placeholders
        assert encoded[1] is None and encoded[3] is None

    def test_encoding_matches_per_key_path(self):
        # the fan-out picks its entry out of the shared encoding
        manager = IndexManager(CostTracker())
        (index,) = manager.create([(IndexDefinition("bc", ("b", "c")), (1, 2))])
        row = (9, NULL, "hello")
        manager.insert_row(7, row)
        assert list(index.scan_all()) == [(*encode_key((NULL, "hello")), 7)]


# ----------------------------------------------------------------------
# B+ tree insert fast paths


class TestBTreeFastPaths:
    def test_monotone_appends_match_slow_path_counters(self):
        fast_tracker, slow_tracker = CostTracker(), CostTracker()
        fast = BPlusTree(order=4, tracker=fast_tracker)
        slow = BPlusTree(order=4, tracker=slow_tracker)
        slow._uniform = False  # forces every insert down the descent path
        for i in range(200):
            fast.insert(k(i), i)
            slow.insert(k(i), i)
            assert fast_tracker["index_node_reads"] == slow_tracker["index_node_reads"]
            fast.check_invariants()
        assert [rid for *__, rid in fast.scan_all()] == list(range(200))

    def test_random_inserts_match_slow_path_counters(self):
        import random

        rng = random.Random(11)
        values = [rng.randrange(40) for _ in range(300)]
        fast_tracker, slow_tracker = CostTracker(), CostTracker()
        fast = BPlusTree(order=4, tracker=fast_tracker)
        slow = BPlusTree(order=4, tracker=slow_tracker)
        slow._uniform = False  # forces every insert down the descent path
        for rid, v in enumerate(values):
            fast.insert(k(v), rid)
            slow.insert(k(v), rid)
        fast.check_invariants()
        assert fast_tracker["index_node_reads"] == slow_tracker["index_node_reads"]
        assert list(fast.scan_all()) == list(slow.scan_all())

    def test_hint_respects_separator_gap(self):
        """Regression: a deletion can leave a separator *below* the next
        leaf's first entry; an entry in that gap belongs to the next leaf
        (by descent), not the hint leaf, even though the chain order
        would accept it."""
        t = BPlusTree(order=4)
        for i in range(40):
            t.insert(k(i), i)
        # Delete entries straddling leaf boundaries to open gaps between
        # separators and surviving first entries, then pound the gaps
        # through the hint path.
        for i in range(0, 40, 3):
            t.delete(k(i), i)
        for i in range(0, 40, 3):
            t.insert(k(i), 1000 + i)
            t.check_invariants()
        assert len(t) == 40

    def test_duplicate_rejected_on_fast_paths(self):
        t = BPlusTree(order=8)
        for i in range(30):
            t.insert(k(5), i)  # same key, hint leaf stays hot
        with pytest.raises(IndexError_):
            t.insert(k(5), 7)

    def test_deletion_splice_disables_fast_path_charges(self):
        tracker = CostTracker()
        t = BPlusTree(order=4, tracker=tracker)
        for i in range(200):
            t.insert(k(i), i)
        # Empty out enough right-side leaves to splice an internal node.
        for i in range(60, 200):
            t.delete(k(i), i)
        if t._uniform:
            pytest.skip("workload did not trigger a one-child splice")
        before = tracker["index_node_reads"]
        t.insert(k(500), 500)  # would hit the append fast path if enabled
        # Slow path charges the true descent cost of this insert.
        assert tracker["index_node_reads"] - before >= 1
        t.check_invariants()


# ----------------------------------------------------------------------
# update_row maintenance accounting (satellites)


def make_unique_index():
    return OneIndex(IndexDefinition("u", ("a",), unique=True), (0,))


class TestUpdateMaintenanceCounts:
    def test_unchanged_key_counts_nothing(self):
        index = make_unique_index()
        index.insert_row(1, (5, "x"))
        before = index._tracker["index_maintenance_ops"]
        index.update_row(1, (5, "x"), (5, "y"))  # key column unchanged
        assert index._tracker["index_maintenance_ops"] == before
        assert list(index.scan_equal((5,))) == [1]

    def test_violating_update_counts_three_ops_and_restores(self):
        index = make_unique_index()
        index.insert_row(1, (5, "x"))
        index.insert_row(2, (6, "y"))
        before = index._tracker["index_maintenance_ops"]
        with pytest.raises(KeyViolation):
            index.update_row(2, (6, "y"), (5, "y"))
        # delete + rejected insert attempt + compensating re-insert
        assert index._tracker["index_maintenance_ops"] - before == 3
        assert list(index.scan_equal((6,))) == [2]  # old key restored

    def test_successful_update_counts_two_ops(self):
        index = make_unique_index()
        index.insert_row(1, (5, "x"))
        before = index._tracker["index_maintenance_ops"]
        index.update_row(1, (5, "x"), (9, "x"))
        assert index._tracker["index_maintenance_ops"] - before == 2

    def test_table_level_update_with_unchanged_keys_counts_nothing(self):
        t = Table("t", [Column("a"), Column("b")])
        t.create_index(IndexDefinition("a_idx", ("a",)))
        rid = t.insert_row((1, 2))
        t.tracker.reset()
        t.update_rid(rid, (1, 3))
        assert t.tracker["index_maintenance_ops"] == 0
        assert t.tracker["index_node_reads"] == 0


# ----------------------------------------------------------------------
# Hash-index edge coverage (satellites)


def make_hash_index(unique=False):
    return OneIndex(
        IndexDefinition("h", ("a", "b"), kind=IndexKind.HASH, unique=unique),
        (0, 1),
    )


class TestHashEdges:
    def test_scan_equal_partial_prefix_raises(self):
        index = make_hash_index()
        index.insert_row(1, (1, 2))
        with pytest.raises(IndexError_):
            list(index.scan_equal((1,)))

    def test_exists_equal_partial_prefix_raises(self):
        index = make_hash_index()
        index.insert_row(1, (1, 2))
        with pytest.raises(IndexError_):
            index.exists_equal((1,))

    def test_null_keys_never_unique_violate_hash(self):
        index = make_hash_index(unique=True)
        index.insert_row(1, (NULL, 2))
        index.insert_row(2, (NULL, 2))  # SQL: NULL-bearing keys coexist
        assert len(index._structure) == 2

    def test_null_keys_never_unique_violate_btree(self):
        index = OneIndex(IndexDefinition("u", ("a", "b"), unique=True), (0, 1))
        index.insert_row(1, (NULL, 2))
        index.insert_row(2, (NULL, 2))
        with pytest.raises(KeyViolation):
            index.insert_row(3, (1, 2)) or index.insert_row(4, (1, 2))


# ----------------------------------------------------------------------
# Prepared-probe epoch invalidation


class TestProbeInvalidation:
    def make_table(self):
        t = Table("t", [Column("a"), Column("b")])
        for i in range(30):
            t.insert_row((i % 5, i))
        return t

    def test_index_create_switches_probe_off_full_scan(self):
        t = self.make_table()
        assert probes.exists_eq(t, ("a",), (3,))
        t.tracker.reset()
        probes.exists_eq(t, ("a",), (3,))
        assert t.tracker["full_scans"] == 1
        t.create_index(IndexDefinition("a_idx", ("a",)))
        t.tracker.reset()
        assert probes.exists_eq(t, ("a",), (3,))
        assert t.tracker["full_scans"] == 0
        assert t.tracker["index_node_reads"] > 0

    def test_index_drop_switches_probe_back(self):
        t = self.make_table()
        t.create_index(IndexDefinition("a_idx", ("a",)))
        assert probes.exists_eq(t, ("a",), (3,))
        t.drop_index("a_idx")
        t.tracker.reset()
        assert probes.exists_eq(t, ("a",), (3,))
        assert t.tracker["full_scans"] == 1

    def test_probe_answers_match_cold_engine_across_structure_switch(self):
        """The advisor flow: switching the index structure mid-run must
        leave every probe answering exactly as a freshly-built engine."""
        db = Database("warm")
        db.create_table("p", [Column("k1"), Column("k2")])
        db.create_table("c", [Column("f1"), Column("f2")])
        for a in range(4):
            for b in range(4):
                db.insert("p", (a, b))
        fk = ForeignKey("fk", "c", ("f1", "f2"), "p", ("k1", "k2"),
                        match=MatchSemantics.PARTIAL)
        efk = EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
        parent = db.table("p")
        shapes = [(("k1",), (2,)), (("k1", "k2"), (2, 3)), (("k2",), (9,))]
        warm = [probes.exists_eq(parent, c, v) for c, v in shapes]
        efk.switch_structure(IndexStructure.HYBRID)
        assert parent._probe_cache == {}  # bulk switch evicts stale shapes
        after = [probes.exists_eq(parent, c, v) for c, v in shapes]
        assert warm == after == [True, True, False]
