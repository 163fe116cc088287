"""Unit tests for the hash index (repro.indexes.hash)."""

import pytest

from repro.errors import IndexError_
from repro.indexes.cost import CostTracker
from repro.indexes.hash import HashIndex
from repro.indexes.keys import encode_key
from repro.nulls import NULL


def k(*values):
    return encode_key(values)


class TestHashIndex:
    def test_insert_lookup(self):
        h = HashIndex()
        h.insert(k(1, 2), 10)
        h.insert(k(1, 2), 11)
        assert sorted(rid for *__, rid in h.lookup(k(1, 2))) == [10, 11]
        assert len(h) == 2

    def test_lookup_missing(self):
        h = HashIndex()
        assert list(h.lookup(k(9))) == []
        assert h.first_with_key(k(9)) is None

    def test_duplicate_rejected(self):
        h = HashIndex()
        h.insert(k(1), 1)
        with pytest.raises(IndexError_):
            h.insert(k(1), 1)

    def test_delete(self):
        h = HashIndex()
        h.insert(k(1), 1)
        h.delete(k(1), 1)
        assert len(h) == 0
        assert not h.contains(k(1), 1)

    def test_delete_missing_raises(self):
        h = HashIndex()
        with pytest.raises(IndexError_):
            h.delete(k(1), 1)

    def test_null_keys_supported(self):
        h = HashIndex()
        h.insert(k(NULL, 2), 1)
        assert h.first_with_key(k(NULL, 2)) is not None
        assert h.first_with_key(k(1, 2)) is None

    def test_scan_all_deterministic(self):
        h = HashIndex()
        for i, key in enumerate([k(3), k(1), k(2)]):
            h.insert(key, i)
        assert [rid for *__, rid in h.scan_all()] == [1, 2, 0]

    def test_cost_counting(self):
        tracker = CostTracker()
        h = HashIndex(tracker)
        h.insert(k(1), 1)
        list(h.lookup(k(1)))
        assert tracker["index_node_reads"] == 1
        assert tracker["index_entries_scanned"] == 1
