"""Table 5 — transactions: a batch of inserts and a batch of deletes.

Paper (15M, 5-column FK): 5,000 inserts take ~7s under Bounded vs ~90s
under Hybrid; 2,000 deletes take ~11s under Bounded vs ~148min under
Hybrid.  We benchmark scaled batches inside one transaction each.
"""

import pytest

from repro.core import IndexStructure
from repro.workloads.synthetic import delete_stream, insert_stream

from conftest import deletes, in_transaction, inserts, synthetic, time_fresh

INSERT_BATCH = 200
DELETE_BATCH = 25

PAIR = pytest.mark.parametrize(
    "structure", [IndexStructure.HYBRID, IndexStructure.BOUNDED],
    ids=lambda s: s.label,
)


@PAIR
def test_transaction_insert_batch(benchmark, structure):
    def make():
        cell = synthetic(structure)
        return in_transaction(cell, inserts(cell), insert_stream(cell, INSERT_BATCH))

    time_fresh(benchmark, make, rounds=2)


@PAIR
def test_transaction_delete_batch(benchmark, structure):
    def make():
        cell = synthetic(structure)
        return in_transaction(cell, deletes(cell), delete_stream(cell, DELETE_BATCH))

    time_fresh(benchmark, make, rounds=2)
