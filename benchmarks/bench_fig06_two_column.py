"""Figure 6 — 2-column foreign keys: the Hybrid exception.

Paper: for n = 2 on large data, Hybrid stays the best choice (2.8/10.2ms
ins/del vs Powerset's 4.3/11.5ms), and Powerset coincides with Bounded.
Our memory-resident engine shows near-parity instead of a Hybrid win —
the paper's gap comes from index-maintenance I/O on deep cold trees,
which has no analogue in RAM (recorded as a deviation in EXPERIMENTS.md).
"""

import pytest

from repro.core import IndexStructure
from repro.core.strategies import index_definitions
from repro.workloads.synthetic import delete_stream, insert_stream

from conftest import deletes, inserts, synthetic, time_each

STRUCTURES = [
    IndexStructure.FULL,
    IndexStructure.SINGLETON,
    IndexStructure.HYBRID,
    IndexStructure.BOUNDED,  # == Powerset at n = 2
]

ROUNDS = 60


def test_powerset_equals_bounded_at_n2(cells):
    """Sanity: the two structures define the same index set for n = 2."""
    cell = cells(synthetic, IndexStructure.BOUNDED, n_columns=2)
    bounded_p, bounded_c = index_definitions(cell.fk, IndexStructure.BOUNDED)
    powerset_p, powerset_c = index_definitions(cell.fk, IndexStructure.POWERSET)
    assert {d.columns for d in bounded_p} == {d.columns for d in powerset_p}
    assert {d.columns for d in bounded_c} == {d.columns for d in powerset_c}


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_insert_two_column(benchmark, cells, structure):
    cell = cells(synthetic, structure, n_columns=2)
    rows = insert_stream(cell, ROUNDS + 5, seed=7)
    time_each(benchmark, inserts(cell), rows, ROUNDS)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.label)
def test_delete_two_column(benchmark, cells, structure):
    cell = cells(synthetic, structure, n_columns=2)
    keys = delete_stream(cell, ROUNDS + 5, seed=7)
    time_each(benchmark, deletes(cell), keys, ROUNDS)
