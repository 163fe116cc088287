"""Table 10 — the benchmark databases: TPC-H, TPC-C, Gene Ontology.

Micro cells: inserts into the child table and deletes from the parent
table of the TPC-H and TPC-C (orders→customer) foreign keys, set up by
the ``table10`` experiment's own targets (Missing-at-Random nulls, then
enforcement) at smaller sizes.
"""

import random
from types import SimpleNamespace

import pytest

from repro.bench.experiments import tpcc_orders_target, tpch_target, victim_keys
from repro.core import IndexStructure
from repro.workloads import TpccConfig, TpchConfig

from conftest import deletes, inserts, time_each

STRUCTURES = pytest.mark.parametrize(
    "structure", [IndexStructure.HYBRID, IndexStructure.BOUNDED],
    ids=lambda s: s.label,
)

TPCH = tpch_target(TpchConfig(parts=400, suppliers=100, lineitems=8000))
TPCC = tpcc_orders_target(TpccConfig(warehouses=2, districts_per_warehouse=10,
                                     customers_per_district=40))


def enforced(target, structure):
    db, fk, parent_keys = target.enforce(structure)
    return SimpleNamespace(db=db, fk=fk, parent_keys=parent_keys)


@STRUCTURES
def test_tpch_insert_lineitem(benchmark, cells, structure):
    cell = cells(enforced, TPCH, structure)
    rows = TPCH.child_rows(cell.parent_keys, random.Random(13), 80)
    time_each(benchmark, inserts(cell), rows, 80)


@STRUCTURES
def test_tpch_delete_partsupp(benchmark, cells, structure):
    cell = cells(enforced, TPCH, structure)
    keys = victim_keys(cell.parent_keys, random.Random(14), 30)
    time_each(benchmark, deletes(cell), keys, 30)


@STRUCTURES
def test_tpcc_insert_orders(benchmark, cells, structure):
    cell = cells(enforced, TPCC, structure)
    rows = TPCC.child_rows(cell.parent_keys, random.Random(15), 80)
    time_each(benchmark, inserts(cell), rows, 80)


@STRUCTURES
def test_tpcc_delete_customer(benchmark, cells, structure):
    cell = cells(enforced, TPCC, structure)
    keys = victim_keys(cell.parent_keys, random.Random(16), 25)
    time_each(benchmark, deletes(cell), keys, 25)
