"""§7.1 ablation — hash indices instead of B-trees.

The paper: "Applying Hash indices to our experiments resulted in similar
outcomes, showing worse performance with minor exceptions."  The reason
is structural: a hash index answers only full-key equality, so every
partial-match probe that a B-tree serves via a leftmost prefix falls
back to scanning under hash structures.
"""

import pytest

from repro.core import IndexStructure
from repro.core.enforcement import EnforcedForeignKey
from repro.indexes.definition import IndexKind
from repro.workloads.synthetic import delete_stream, insert_stream
from repro.workloads.synthetic import generate as generate_synthetic

from conftest import deletes, inserts, micro_config, time_each

KINDS = pytest.mark.parametrize(
    "kind", [IndexKind.BTREE, IndexKind.HASH], ids=lambda k: k.value
)


def bounded_by_kind(kind: IndexKind):
    dataset = generate_synthetic(micro_config())
    EnforcedForeignKey.create(dataset.db, dataset.fk, IndexStructure.BOUNDED, kind)
    return dataset


@KINDS
def test_insert_bounded_by_kind(benchmark, cells, kind):
    cell = cells(bounded_by_kind, kind)
    time_each(benchmark, inserts(cell), insert_stream(cell, 110, seed=20), 100)


@KINDS
def test_delete_bounded_by_kind(benchmark, cells, kind):
    cell = cells(bounded_by_kind, kind)
    time_each(benchmark, deletes(cell), delete_stream(cell, 25, seed=20), 20)


def test_hash_compound_unusable_for_prefix(cells):
    """Mechanism: the hash compound index cannot serve prefix probes, so
    partial-state searches lean on the singletons alone."""
    costs = {}
    for kind in (IndexKind.HASH, IndexKind.BTREE):
        cell = cells(bounded_by_kind, kind)
        cell.db.tracker.reset()
        for key in delete_stream(cell, 5, seed=21):
            deletes(cell)(key)
        costs[kind] = cell.db.tracker["rows_fetched"] + cell.db.tracker["rows_examined"]
    assert costs[IndexKind.HASH] >= costs[IndexKind.BTREE]
