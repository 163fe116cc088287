"""§7.1 robustness — 50% and 80% null-marker fractions.

The paper: "We also run experiments where 50% and 80% of the tuples in C
featured null markers in the foreign key columns, but the performances
were very similar in each case."  This benchmark replays the Bounded /
Hybrid comparison under all three fractions.
"""

import pytest

from repro.core import IndexStructure
from repro.workloads.synthetic import delete_stream, insert_stream

from conftest import deletes, inserts, synthetic, time_each

FRACTIONS = [0.25, 0.5, 0.8]
STRUCTURES = [IndexStructure.HYBRID, IndexStructure.BOUNDED]


@pytest.mark.parametrize("fraction", FRACTIONS, ids=lambda f: f"null{int(f*100)}")
@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_delete_by_null_fraction(benchmark, cells, structure, fraction):
    cell = cells(synthetic, structure, null_fraction=fraction)
    time_each(benchmark, deletes(cell), delete_stream(cell, 30, seed=22), 25)


@pytest.mark.parametrize("fraction", FRACTIONS, ids=lambda f: f"null{int(f*100)}")
@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_insert_by_null_fraction(benchmark, cells, structure, fraction):
    cell = cells(synthetic, structure, null_fraction=fraction)
    time_each(benchmark, inserts(cell), insert_stream(cell, 110, seed=22), 100)


def test_bounded_beats_hybrid_deletes_at_every_fraction(cells):
    """The paper's robustness claim, as a pass/fail assertion on the
    deterministic cost counters."""
    for fraction in FRACTIONS:
        costs = {}
        for structure in STRUCTURES:
            cell = cells(synthetic, structure, null_fraction=fraction)
            cell.db.tracker.reset()
            for key in delete_stream(cell, 10, seed=23):
                deletes(cell)(key)
            costs[structure] = (cell.db.tracker["rows_examined"]
                                + cell.db.tracker["rows_fetched"])
        assert costs[IndexStructure.BOUNDED] < costs[IndexStructure.HYBRID], fraction
