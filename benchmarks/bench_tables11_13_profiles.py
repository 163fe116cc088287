"""Tables 11, 12 and 13 — structure profiles and transaction comparison.

Table 11 profiles Bounded (index build for C and P, per-op times across
sizes); Table 12 does the same for Hybrid+nSingle; Table 13 runs the
transaction batches under all four ablation structures plus the simple-
semantics baseline.
"""

import pytest

from repro.bench.experiments import ABLATIONS
from repro.core import IndexStructure
from repro.workloads.synthetic import delete_stream, insert_stream

from conftest import deletes, in_transaction, inserts, synthetic, time_each, time_fresh

PROFILED = [IndexStructure.BOUNDED, IndexStructure.HYBRID_NSINGLE]


@pytest.mark.parametrize("structure", PROFILED, ids=lambda s: s.label)
def test_profile_insert(benchmark, cells, structure):
    cell = cells(synthetic, structure)
    time_each(benchmark, inserts(cell), insert_stream(cell, 110, seed=12), 100)


@pytest.mark.parametrize("structure", PROFILED, ids=lambda s: s.label)
def test_profile_delete(benchmark, cells, structure):
    cell = cells(synthetic, structure)
    time_each(benchmark, deletes(cell), delete_stream(cell, 30, seed=12), 25)


@pytest.mark.parametrize("structure", ABLATIONS, ids=lambda s: s.label)
def test_table13_transaction_deletes(benchmark, structure):
    def make():
        cell = synthetic(structure)
        return in_transaction(cell, deletes(cell), delete_stream(cell, 20))

    time_fresh(benchmark, make, rounds=2)
