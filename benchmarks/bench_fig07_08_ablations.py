"""Figures 7 and 8 — which added index pays for which operation.

Paper (§7.5): Bounded = Hybrid + nSingle + Compound.  Figure 7 shows the
*deletion* boost comes from nSingle (singleton indexes on the child's FK
columns); Figure 8 shows the *insertion* boost comes from Compound (the
compound index on the parent key).
"""

import pytest

from repro.bench.experiments import ABLATIONS
from repro.workloads.synthetic import delete_stream, insert_stream

from conftest import deletes, inserts, synthetic, time_each


@pytest.mark.parametrize("structure", ABLATIONS, ids=lambda s: s.label)
def test_fig7_delete_ablation(benchmark, cells, structure):
    cell = cells(synthetic, structure)
    time_each(benchmark, deletes(cell), delete_stream(cell, 30, seed=8), 25)


@pytest.mark.parametrize("structure", ABLATIONS, ids=lambda s: s.label)
def test_fig8_insert_ablation(benchmark, cells, structure):
    cell = cells(synthetic, structure)
    time_each(benchmark, inserts(cell), insert_stream(cell, 110, seed=8), 100)
