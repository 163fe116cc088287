"""Unit tests for the B+ tree (repro.indexes.btree)."""

import random

import pytest

from repro.errors import IndexError_
from repro.indexes.btree import BPlusTree
from repro.indexes.cost import CostTracker
from repro.indexes.keys import encode_key


def k(*values):
    return encode_key(values)


class TestBasics:
    def test_empty(self):
        t = BPlusTree()
        assert len(t) == 0
        assert list(t.scan_all()) == []
        assert t.height() == 1

    def test_order_too_small_rejected(self):
        with pytest.raises(IndexError_):
            BPlusTree(order=3)

    def test_insert_and_scan_sorted(self):
        t = BPlusTree(order=4)
        for i in [5, 1, 9, 3, 7]:
            t.insert(k(i), i)
        assert [rid for *__, rid in t.scan_all()] == [1, 3, 5, 7, 9]

    def test_duplicate_entry_rejected(self):
        t = BPlusTree()
        t.insert(k(1), 10)
        with pytest.raises(IndexError_):
            t.insert(k(1), 10)

    def test_same_key_different_rids_allowed(self):
        t = BPlusTree()
        t.insert(k(1), 10)
        t.insert(k(1), 11)
        assert len(t) == 2
        assert [rid for *__, rid in t.scan_prefix(k(1))] == [10, 11]

    def test_contains(self):
        t = BPlusTree()
        t.insert(k(1, 2), 5)
        assert t.contains(k(1, 2), 5)
        assert not t.contains(k(1, 2), 6)
        assert not t.contains(k(1, 3), 5)


class TestSplits:
    def test_many_inserts_stay_sorted_and_balanced(self):
        t = BPlusTree(order=4)
        values = list(range(200))
        random.Random(3).shuffle(values)
        for v in values:
            t.insert(k(v), v)
        t.check_invariants()
        assert len(t) == 200
        assert t.height() >= 3
        assert [rid for *__, rid in t.scan_all()] == list(range(200))

    def test_sequential_inserts(self):
        t = BPlusTree(order=4)
        for v in range(100):
            t.insert(k(v), v)
        t.check_invariants()
        assert [rid for *__, rid in t.scan_all()] == list(range(100))

    def test_reverse_sequential_inserts(self):
        t = BPlusTree(order=4)
        for v in reversed(range(100)):
            t.insert(k(v), v)
        t.check_invariants()
        assert [rid for *__, rid in t.scan_all()] == list(range(100))


class TestDelete:
    def test_delete_missing_raises(self):
        t = BPlusTree()
        with pytest.raises(IndexError_):
            t.delete(k(1), 1)

    def test_insert_delete_roundtrip(self):
        t = BPlusTree(order=4)
        for v in range(50):
            t.insert(k(v), v)
        for v in range(0, 50, 2):
            t.delete(k(v), v)
        t.check_invariants()
        assert [rid for *__, rid in t.scan_all()] == list(range(1, 50, 2))

    def test_delete_everything(self):
        t = BPlusTree(order=4)
        values = list(range(120))
        rng = random.Random(5)
        rng.shuffle(values)
        for v in values:
            t.insert(k(v), v)
        rng.shuffle(values)
        for v in values:
            t.delete(k(v), v)
        t.check_invariants()
        assert len(t) == 0
        assert list(t.scan_all()) == []

    def test_delete_then_reinsert(self):
        t = BPlusTree(order=4)
        for v in range(60):
            t.insert(k(v), v)
        for v in range(60):
            t.delete(k(v), v)
        for v in range(60):
            t.insert(k(v), v + 100)
        t.check_invariants()
        assert [rid for *__, rid in t.scan_all()] == [v + 100 for v in range(60)]


class TestPrefixScans:
    def make_compound(self):
        t = BPlusTree(order=4)
        rid = 0
        for a in range(5):
            for b in range(5):
                t.insert(k(a, b), rid)
                rid += 1
        return t

    def test_prefix_scan_returns_block(self):
        t = self.make_compound()
        hits = list(t.scan_prefix(k(2)))
        assert len(hits) == 5
        assert all(entry[0] == (1, 2) for entry in hits)

    def test_full_key_prefix(self):
        t = self.make_compound()
        hits = list(t.scan_prefix(k(3, 4)))
        assert len(hits) == 1

    def test_prefix_absent(self):
        t = self.make_compound()
        assert list(t.scan_prefix(k(99))) == []
        assert t.first_with_prefix(k(99)) is None

    def test_first_with_prefix_is_smallest(self):
        t = self.make_compound()
        entry = t.first_with_prefix(k(1))
        assert entry is not None
        assert entry[:-1] == k(1, 0)

    def test_scan_from_bound(self):
        t = self.make_compound()
        hits = list(t.scan_from((*k(4, 3), -1)))
        assert [entry[:-1] for entry in hits] == [k(4, 3), k(4, 4)]


class TestNullOrdering:
    def test_null_sorts_first(self):
        from repro.nulls import NULL

        t = BPlusTree()
        t.insert(k(5), 1)
        t.insert(encode_key((NULL,)), 2)
        t.insert(k(0), 3)
        assert [rid for *__, rid in t.scan_all()] == [2, 3, 1]

    def test_null_prefix_scannable(self):
        from repro.nulls import NULL

        t = BPlusTree()
        t.insert(encode_key((NULL, 7)), 1)
        t.insert(encode_key((NULL, 8)), 2)
        t.insert(encode_key((1, 7)), 3)
        hits = list(t.scan_prefix(encode_key((NULL,))))
        assert [rid for *__, rid in hits] == [1, 2]


class TestBulkLoad:
    def test_bulk_load_matches_incremental(self):
        entries = [(*k(v // 3, v % 3), v) for v in range(100)]
        bulk = BPlusTree(order=8)
        bulk.bulk_load(entries)
        bulk.check_invariants()
        incremental = BPlusTree(order=8)
        for *key, rid in entries:
            incremental.insert(tuple(key), rid)
        assert list(bulk.scan_all()) == list(incremental.scan_all())

    def test_bulk_load_empty(self):
        t = BPlusTree()
        t.bulk_load([])
        assert len(t) == 0

    def test_bulk_load_single(self):
        t = BPlusTree()
        t.bulk_load([(*k(1), 1)])
        assert list(t.scan_all()) == [(*k(1), 1)]

    def test_bulk_load_rejects_duplicates(self):
        t = BPlusTree()
        with pytest.raises(IndexError_):
            t.bulk_load([(*k(1), 1), (*k(1), 1)])

    def test_bulk_load_then_mutate(self):
        t = BPlusTree(order=4)
        t.bulk_load([(*k(v), v) for v in range(0, 100, 2)])
        for v in range(1, 100, 2):
            t.insert(k(v), v)
        for v in range(0, 100, 4):
            t.delete(k(v), v)
        t.check_invariants()
        expected = sorted(set(range(100)) - set(range(0, 100, 4)))
        assert [rid for *__, rid in t.scan_all()] == expected


class TestCostCounting:
    def test_descend_counts_node_reads(self):
        tracker = CostTracker()
        t = BPlusTree(order=4, tracker=tracker)
        for v in range(100):
            t.insert(k(v), v)
        tracker.reset()
        t.contains(k(50), 50)
        assert tracker["index_node_reads"] == t.height()

    def test_scan_counts_entries(self):
        tracker = CostTracker()
        t = BPlusTree(order=4, tracker=tracker)
        for v in range(30):
            t.insert(k(v % 3, v), v)
        tracker.reset()
        hits = list(t.scan_prefix(k(1)))
        assert tracker["index_entries_scanned"] >= len(hits)

    def test_bulk_load_counts_build_entries(self):
        tracker = CostTracker()
        t = BPlusTree(order=4, tracker=tracker)
        t.bulk_load([(*k(v), v) for v in range(25)])
        assert tracker["index_build_entries"] == 25

    def test_abandoned_scan_counts_partial(self):
        tracker = CostTracker()
        t = BPlusTree(order=64, tracker=tracker)
        for v in range(1000):
            t.insert(k(1, v), v)
        tracker.reset()
        assert t.first_with_prefix(k(1)) is not None
        # LIMIT-1 must not pay for the whole duplicate block.
        assert tracker["index_entries_scanned"] < 10
