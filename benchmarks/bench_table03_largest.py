"""Table 3 — the 100M-row data set: Hybrid vs Bounded vs simple semantics.

The paper: even at 100M rows, Bounded processes inserts in 2.7ms and
deletes in 84.8ms, confirming feasibility at scale.  We run the scaled
equivalent (the scale plan's 100M / REPRO_SCALE parents).
"""

import pytest

from repro.bench import harness
from repro.bench.scale import default_plan
from repro.core import IndexStructure
from repro.workloads.synthetic import SyntheticConfig, insert_stream

from conftest import inserts, time_each

ROUNDS = 60


def largest(structure, simple=False):
    config = SyntheticConfig(n_columns=5, parent_rows=default_plan().largest)
    return harness.prepare_cell(config, structure, simple=simple).dataset


@pytest.mark.parametrize("structure", [IndexStructure.HYBRID, IndexStructure.BOUNDED],
                         ids=lambda s: s.label)
def test_insert_at_largest_size(benchmark, cells, structure):
    cell = cells(largest, structure)
    time_each(benchmark, inserts(cell), insert_stream(cell, ROUNDS + 10, seed=3), ROUNDS)


def test_insert_simple_at_largest_size(benchmark, cells):
    cell = cells(largest, IndexStructure.FULL, simple=True)
    time_each(benchmark, inserts(cell), insert_stream(cell, ROUNDS + 10, seed=3), ROUNDS)
