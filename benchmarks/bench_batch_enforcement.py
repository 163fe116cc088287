"""§9 ablation — batched/shared enforcement vs per-row triggers.

The paper's future work: "there are several techniques such as batching
and shared execution across updates that apply within transactions, and
could therefore optimize the enforcement of partial referential
integrity".  This benchmark compares the per-row trigger path against
:func:`repro.core.batch.batch_insert_rows` (one sorted, deduplicated
probe walk per shape, index-major maintenance) and
:func:`batch_delete_parents` (one shared state loop across the deleted
batch).
"""

from repro.core import IndexStructure
from repro.core.batch import batch_delete_parents, batch_insert_rows
from repro.workloads.synthetic import clustered_insert_stream, delete_stream

from conftest import deletes, in_transaction, inserts, synthetic, time_fresh

INSERT_BATCH = 300
DELETE_BATCH = 30


def fresh_cell():
    return synthetic(IndexStructure.BOUNDED)


def test_insert_batch_per_row(benchmark):
    def make():
        cell = fresh_cell()
        rows = clustered_insert_stream(cell, INSERT_BATCH)
        return in_transaction(cell, inserts(cell), rows)

    time_fresh(benchmark, make, rounds=2)


def test_insert_batch_shared(benchmark):
    def make():
        cell = fresh_cell()
        rows = clustered_insert_stream(cell, INSERT_BATCH)
        return lambda: batch_insert_rows(cell.db, "C", rows)

    time_fresh(benchmark, make, rounds=2)


def test_delete_batch_per_row(benchmark):
    def make():
        cell = fresh_cell()
        keys = delete_stream(cell, DELETE_BATCH)
        return in_transaction(cell, deletes(cell), keys)

    time_fresh(benchmark, make, rounds=2)


def test_delete_batch_shared(benchmark):
    def make():
        cell = fresh_cell()
        keys = delete_stream(cell, DELETE_BATCH)
        return lambda: batch_delete_parents(cell.db, cell.fk, keys)

    time_fresh(benchmark, make, rounds=2)
