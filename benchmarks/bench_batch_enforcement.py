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

import pytest

from repro.bench import harness
from repro.core import IndexStructure
from repro.core.batch import batch_delete_parents, batch_insert_rows
from repro.query import dml
from repro.query.predicate import equalities
from repro.workloads.synthetic import clustered_insert_stream, delete_stream

from conftest import micro_config

INSERT_BATCH = 300
DELETE_BATCH = 30


def fresh_cell():
    return harness.prepare_cell(micro_config(), IndexStructure.BOUNDED)


def test_insert_batch_per_row(benchmark):
    def make():
        cell = fresh_cell()
        rows = clustered_insert_stream(cell.dataset, INSERT_BATCH)

        def run():
            with cell.db.begin():
                for row in rows:
                    dml.insert(cell.db, "C", row)

        return run

    benchmark.pedantic(lambda run: run(), setup=lambda: ((make(),), {}),
                       rounds=2)


def test_insert_batch_shared(benchmark):
    def make():
        cell = fresh_cell()
        rows = clustered_insert_stream(cell.dataset, INSERT_BATCH)
        return lambda: batch_insert_rows(cell.db, "C", rows)

    benchmark.pedantic(lambda run: run(), setup=lambda: ((make(),), {}),
                       rounds=2)


def test_delete_batch_per_row(benchmark):
    def make():
        cell = fresh_cell()
        keys = delete_stream(cell.dataset, DELETE_BATCH)

        def run():
            with cell.db.begin():
                for key in keys:
                    dml.delete_where(cell.db, "P",
                                     equalities(cell.fk.key_columns, key))

        return run

    benchmark.pedantic(lambda run: run(), setup=lambda: ((make(),), {}),
                       rounds=2)


def test_delete_batch_shared(benchmark):
    def make():
        cell = fresh_cell()
        keys = delete_stream(cell.dataset, DELETE_BATCH)
        return lambda: batch_delete_parents(cell.db, cell.fk, keys)

    benchmark.pedantic(lambda run: run(), setup=lambda: ((make(),), {}),
                       rounds=2)
