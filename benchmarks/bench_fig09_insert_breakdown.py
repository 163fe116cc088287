"""Figure 9 — insertions broken down into total vs partially-null tuples.

Paper: Hybrid performs "particularly poorly when inserting tuples that
have only total foreign key values" — the singleton parent probe must
filter a duplicate block, while Hybrid+Compound (and Bounded) answer the
probe with one compound ref access.
"""

import pytest

from repro.core import IndexStructure
from repro.workloads.synthetic import partial_insert_stream, total_insert_stream

from conftest import inserts, synthetic, time_each

STRUCTURES = [
    IndexStructure.HYBRID,
    IndexStructure.HYBRID_COMPOUND,
    IndexStructure.BOUNDED,
]

ROUNDS = 100


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_insert_total_tuples(benchmark, cells, structure):
    cell = cells(synthetic, structure)
    rows = total_insert_stream(cell, ROUNDS + 10, seed=9)
    time_each(benchmark, inserts(cell), rows, ROUNDS)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_insert_partial_tuples(benchmark, cells, structure):
    cell = cells(synthetic, structure)
    rows = partial_insert_stream(cell, ROUNDS + 10, seed=9)
    time_each(benchmark, inserts(cell), rows, ROUNDS)


def test_probe_mechanism_contrast(cells):
    """The counter-level Figure 9: Hybrid fetches a dup block per total
    insert, Bounded fetches ~1 row."""
    results = {}
    for structure in (IndexStructure.HYBRID, IndexStructure.BOUNDED):
        cell = cells(synthetic, structure)
        rows = total_insert_stream(cell, 50, seed=10)
        cell.db.tracker.reset()
        for row in rows:
            inserts(cell)(row)
        results[structure] = cell.db.tracker["rows_fetched"]
    assert results[IndexStructure.HYBRID] > 5 * max(
        results[IndexStructure.BOUNDED], 1
    )
