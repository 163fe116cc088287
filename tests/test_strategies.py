"""Unit tests for the index structures of §6.2 and their application."""

import pytest

from repro import Column, Database, ForeignKey, MatchSemantics
from repro.core.strategies import (
    ABLATION_STRUCTURES,
    PRIMARY_STRUCTURES,
    IndexStructure,
    apply_structure,
    index_count,
    index_definitions,
    remove_structure,
)
from repro.indexes.definition import IndexKind


def make_fk(n=3):
    db = Database()
    keys = tuple(f"k{i}" for i in range(n))
    fks = tuple(f"f{i}" for i in range(n))
    db.create_table("p", [Column(k, nullable=False) for k in keys])
    db.create_table("c", [Column(f) for f in fks])
    fk = ForeignKey("fk", "c", fks, "p", keys, match=MatchSemantics.PARTIAL)
    db.add_foreign_key(fk)
    return db, fk


class TestDefinitions:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_index_counts_match_paper(self, n):
        """§6.2's index counts: Full 2, Singleton 2n, Hybrid n+1,
        Powerset 2(2^n - 1), Bounded 2n+2."""
        __, fk = make_fk(n)
        assert index_count(fk, IndexStructure.NO_INDEX) == 0
        assert index_count(fk, IndexStructure.FULL) == 2
        assert index_count(fk, IndexStructure.SINGLETON) == 2 * n
        assert index_count(fk, IndexStructure.HYBRID) == n + 1
        assert index_count(fk, IndexStructure.POWERSET) == 2 * (2**n - 1)
        assert index_count(fk, IndexStructure.BOUNDED) == 2 * n + 2
        assert index_count(fk, IndexStructure.HYBRID_COMPOUND) == n + 2
        assert index_count(fk, IndexStructure.HYBRID_NSINGLE) == 2 * n + 1
        assert index_count(fk, IndexStructure.PREFIX_COMPOUND) == 2 * n
        # Bounded's indexes are Powerset's at n = 2 (Figure 6), a subset above.
        bounded, powerset = (
            [{d.columns for d in side} for side in index_definitions(fk, structure)]
            for structure in (IndexStructure.BOUNDED, IndexStructure.POWERSET)
        )
        assert all(b <= p for b, p in zip(bounded, powerset))
        assert (bounded == powerset) == (n == 2)

    def test_full_definitions(self):
        __, fk = make_fk(3)
        parents, children = index_definitions(fk, IndexStructure.FULL)
        assert [d.columns for d in parents] == [("k0", "k1", "k2")]
        assert [d.columns for d in children] == [("f0", "f1", "f2")]

    def test_hybrid_definitions(self):
        __, fk = make_fk(3)
        parents, children = index_definitions(fk, IndexStructure.HYBRID)
        assert sorted(d.columns for d in parents) == [("k0",), ("k1",), ("k2",)]
        assert [d.columns for d in children] == [("f0", "f1", "f2")]

    def test_bounded_combines_full_and_singleton(self):
        __, fk = make_fk(3)
        parents, children = index_definitions(fk, IndexStructure.BOUNDED)
        parent_cols = {d.columns for d in parents}
        assert ("k0", "k1", "k2") in parent_cols
        assert ("k0",) in parent_cols and ("k2",) in parent_cols
        child_cols = {d.columns for d in children}
        assert ("f0", "f1", "f2") in child_cols and ("f1",) in child_cols

    def test_powerset_contains_all_subsets(self):
        __, fk = make_fk(3)
        parents, __c = index_definitions(fk, IndexStructure.POWERSET)
        cols = {d.columns for d in parents}
        assert ("k0", "k2") in cols
        assert ("k1",) in cols
        assert len(cols) == 7

    def test_prefix_compound_rotations(self):
        __, fk = make_fk(3)
        parents, children = index_definitions(fk, IndexStructure.PREFIX_COMPOUND)
        assert {d.columns for d in parents} == {
            ("k0", "k1", "k2"), ("k1", "k2", "k0"), ("k2", "k0", "k1"),
        }
        assert len(children) == 3

    def test_kind_propagates(self):
        __, fk = make_fk(2)
        parents, children = index_definitions(
            fk, IndexStructure.BOUNDED, IndexKind.HASH
        )
        assert all(d.kind is IndexKind.HASH for d in parents + children)

    def test_unique_names(self):
        __, fk = make_fk(5)
        parents, children = index_definitions(fk, IndexStructure.POWERSET)
        names = [d.name for d in parents + children]
        assert len(names) == len(set(names))

    def test_labels(self):
        assert IndexStructure.BOUNDED.label == "Bounded"
        assert IndexStructure.HYBRID_NSINGLE.label == "Hybrid+nSingle"

    def test_structure_groups(self):
        assert IndexStructure.BOUNDED in PRIMARY_STRUCTURES
        assert IndexStructure.HYBRID_COMPOUND in ABLATION_STRUCTURES


class TestApplication:
    def test_apply_and_remove(self):
        db, fk = make_fk(3)
        created = apply_structure(db, fk, IndexStructure.BOUNDED)
        assert len(created) == 8
        assert len(db.table("p").indexes) == 4
        assert len(db.table("c").indexes) == 4
        remove_structure(db, fk, IndexStructure.BOUNDED)
        assert len(db.table("p").indexes) == 0
        assert len(db.table("c").indexes) == 0

    def test_apply_builds_over_existing_data(self):
        db, fk = make_fk(2)
        db.table("p").insert_row((1, 2))
        apply_structure(db, fk, IndexStructure.FULL)
        index = db.table("p").indexes.get("fk_p_k0_k1")
        assert len(index) == 1

    def test_remove_tolerates_missing(self):
        db, fk = make_fk(2)
        apply_structure(db, fk, IndexStructure.BOUNDED)
        db.table("p").drop_index("fk_p_k0")
        remove_structure(db, fk, IndexStructure.BOUNDED)  # must not raise
        assert len(db.table("p").indexes) == 0

    def test_no_index_applies_nothing(self):
        db, fk = make_fk(2)
        assert apply_structure(db, fk, IndexStructure.NO_INDEX) == []
