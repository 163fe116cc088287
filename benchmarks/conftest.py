"""Shared micro-cell fixtures for the pytest-benchmark modules.

Each ``bench_*.py`` module times the atomic operation of its experiment
(one insert, one delete, one transaction, one index build) per index
structure, so ``pytest benchmarks/ --benchmark-only`` prints a ranked
comparison whose ordering is the paper's table.  A micro cell is a
dataset from :func:`cells` plus an operation stream that
:func:`time_each` times one item per round.  The whole tables and
figures run from ``bench_experiments.py``, through the same runner as
``python -m repro experiment``.
"""

from __future__ import annotations

import pytest

from repro.bench import harness
from repro.query import dml
from repro.query.predicate import equalities
from repro.workloads.synthetic import SyntheticConfig

#: Parent-table size for the micro cells (kept moderate so every
#: structure builds quickly; the experiments use the ScalePlan grid).
MICRO_PARENT_ROWS = 4000


def micro_config(n_columns: int = 5, **overrides) -> SyntheticConfig:
    return SyntheticConfig(
        n_columns=n_columns, parent_rows=MICRO_PARENT_ROWS, **overrides
    )


def synthetic(structure, n_columns: int = 5, simple: bool = False, **overrides):
    """A micro-sized synthetic dataset enforced under *structure*."""
    config = micro_config(n_columns, **overrides)
    return harness.prepare_cell(config, structure, simple=simple).dataset


@pytest.fixture(scope="module")
def cells():
    """``cells(build, *args, **kwargs)``: *build*'s dataset, built once
    per module and call.  The module's tests share it, so each sees the
    writes of the tests before it."""
    cache: dict = {}

    def get(build, *args, **kwargs):
        key = (build, args, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = build(*args, **kwargs)
        return cache[key]

    return get


def time_each(benchmark, op, items, rounds: int):
    """Time *rounds* calls of *op*, each on the next of *items*; an item
    is drawn (and, from a generator, made) outside the timed call."""
    items = iter(items)
    return benchmark.pedantic(op, setup=lambda: ((next(items),), {}), rounds=rounds)


def time_fresh(benchmark, make, rounds: int):
    """Time *rounds* jobs, each returned by an untimed ``make()`` that
    builds it a fresh dataset."""
    time_each(benchmark, lambda job: job(), (make() for __ in range(rounds)), rounds)


def inserts(cell):
    """The op inserting one row into *cell*'s child table."""
    return lambda row: dml.insert(cell.db, cell.fk.child_table, row)


def deletes(cell):
    """The op deleting one parent of *cell* by key."""
    key_columns = cell.fk.key_columns
    return lambda key: dml.delete_where(
        cell.db, cell.fk.parent_table, equalities(key_columns, key)
    )


def in_transaction(cell, op, items):
    """One transaction applying *op* to every item."""

    def run():
        with cell.db.begin():
            for item in items:
                op(item)

    return run
