"""Figures 4 and 5 — performance trends for 4- and 5-column foreign keys.

The figures plot the Table 1/2 grids as series over data-set size (the
``fig4``/``fig5`` experiments).  Micro cells compare the 4-column
against the 5-column foreign key under Hybrid and Bounded.
"""

import pytest

from repro.core import IndexStructure
from repro.workloads.synthetic import delete_stream, insert_stream

from conftest import deletes, inserts, synthetic, time_each

ROUNDS = 20


@pytest.mark.parametrize("n_columns", [4, 5], ids=["n4", "n5"])
@pytest.mark.parametrize("structure",
                         [IndexStructure.HYBRID, IndexStructure.BOUNDED],
                         ids=lambda s: s.label)
def test_delete_by_fk_width(benchmark, cells, structure, n_columns):
    cell = cells(synthetic, structure, n_columns=n_columns)
    keys = delete_stream(cell, ROUNDS + 5, seed=6)
    time_each(benchmark, deletes(cell), keys, ROUNDS)


@pytest.mark.parametrize("n_columns", [4, 5], ids=["n4", "n5"])
@pytest.mark.parametrize("structure",
                         [IndexStructure.HYBRID, IndexStructure.BOUNDED],
                         ids=lambda s: s.label)
def test_insert_by_fk_width(benchmark, cells, structure, n_columns):
    cell = cells(synthetic, structure, n_columns=n_columns)
    rows = insert_stream(cell, ROUNDS + 5, seed=6)
    time_each(benchmark, inserts(cell), rows, ROUNDS)
