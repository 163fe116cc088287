"""Table 1 — execution time for insertion with a 5-column foreign key.

Micro cells: one child-table insert under every §6.2 index structure
plus the built-in simple-semantics baseline (the ``table1`` experiment
runs the full size grid).
"""

import pytest

from repro.bench.experiments import GRID_STRUCTURES
from repro.core import IndexStructure
from repro.workloads.synthetic import insert_stream

from conftest import inserts, synthetic, time_each

ROUNDS = 120


@pytest.mark.parametrize("structure", GRID_STRUCTURES, ids=lambda s: s.label)
def test_insert_partial_semantics(benchmark, cells, structure):
    cell = cells(synthetic, structure)
    time_each(benchmark, inserts(cell), insert_stream(cell, ROUNDS + 10, seed=1), ROUNDS)


def test_insert_simple_semantics_baseline(benchmark, cells):
    cell = cells(synthetic, IndexStructure.FULL, simple=True)
    time_each(benchmark, inserts(cell), insert_stream(cell, ROUNDS + 10, seed=1), ROUNDS)
