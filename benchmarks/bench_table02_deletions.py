"""Table 2 — execution time for deletion with a 5-column foreign key.

The paper's headline: Bounded deletes ~123x faster than Hybrid at the
largest size, because Hybrid full-scans the child table for every state
whose leading foreign-key column is null (§7.5).
"""

import pytest

from repro.bench.experiments import GRID_STRUCTURES
from repro.core import IndexStructure
from repro.workloads.synthetic import delete_stream

from conftest import deletes, synthetic, time_each

ROUNDS = 25


@pytest.mark.parametrize("structure", GRID_STRUCTURES, ids=lambda s: s.label)
def test_delete_partial_semantics(benchmark, cells, structure):
    cell = cells(synthetic, structure)
    time_each(benchmark, deletes(cell), delete_stream(cell, ROUNDS + 5, seed=2), ROUNDS)


def test_delete_simple_semantics_baseline(benchmark, cells):
    cell = cells(synthetic, IndexStructure.FULL, simple=True)
    time_each(benchmark, deletes(cell), delete_stream(cell, ROUNDS + 5, seed=2), ROUNDS)
