"""A scaled TPC-H generator for the paper's Table 9 / Table 10 tests.

The paper tests one two-column foreign key from TPC-H:

    LINEITEM[l_partkey, l_suppkey] ⊆ PARTSUPP[ps_partkey, ps_suppkey]

with data set sizes of 0.8M and 8M LINEITEM tuples (1.43 GB and 10 GB).
This generator reproduces the *structure* of dbgen's output at a
configurable scale: every part is supplied by 4 suppliers (as in TPC-H),
line items reference real (part, supplier) pairs, and the MAR injector
(:mod:`repro.workloads.mar`) introduces the null markers afterwards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..constraints.foreign_key import ForeignKey, MatchSemantics
from ..constraints.keys import PrimaryKey
from ..storage.database import Database
from ..storage.schema import Column, DataType

#: TPC-H: each part appears in PARTSUPP with exactly 4 suppliers.
SUPPLIERS_PER_PART = 4


@dataclass(frozen=True)
class TpchConfig:
    """Scale parameters; defaults give ~12k line items."""

    parts: int = 500
    suppliers: int = 100
    lineitems: int = 12_000
    seed: int = 101


@dataclass
class TpchDataset:
    db: Database
    config: TpchConfig
    fk: ForeignKey
    partsupp_keys: list[tuple[int, int]]


def generate(config: TpchConfig = TpchConfig()) -> TpchDataset:
    """Build PARTSUPP and LINEITEM, loaded and FK-consistent (no nulls).

    Nulls, indexes and enforcement are layered on by the harness so
    their costs are measured separately, as in the paper.
    """
    rng = random.Random(config.seed)
    db = Database(f"tpch_{config.lineitems}")

    db.create_table("partsupp", [
        Column("ps_partkey", DataType.INTEGER, nullable=False),
        Column("ps_suppkey", DataType.INTEGER, nullable=False),
        Column("ps_availqty", DataType.INTEGER, nullable=False),
        Column("ps_supplycost", DataType.FLOAT, nullable=False),
    ])
    db.create_table("lineitem", [
        Column("l_orderkey", DataType.INTEGER, nullable=False),
        Column("l_linenumber", DataType.INTEGER, nullable=False),
        Column("l_partkey", DataType.INTEGER),
        Column("l_suppkey", DataType.INTEGER),
        Column("l_quantity", DataType.INTEGER, nullable=False),
    ])

    partsupp = db.table("partsupp")
    partsupp_keys: list[tuple[int, int]] = []
    for part in range(1, config.parts + 1):
        # dbgen assigns suppliers with a part-dependent stride.
        for i in range(SUPPLIERS_PER_PART):
            supp = ((part + i * (config.suppliers // SUPPLIERS_PER_PART))
                    % config.suppliers) + 1
            key = (part, supp)
            partsupp_keys.append(key)
            partsupp.insert_row(key + (rng.randrange(1, 10_000),
                                       round(rng.uniform(1.0, 1000.0), 2)))

    lineitem = db.table("lineitem")
    for i in range(config.lineitems):
        part, supp = partsupp_keys[rng.randrange(len(partsupp_keys))]
        lineitem.insert_row((
            i // 4 + 1,          # ~4 lines per order
            i % 4 + 1,
            part,
            supp,
            rng.randrange(1, 51),
        ))

    fk = ForeignKey(
        "fk_lineitem_partsupp",
        "lineitem", ("l_partkey", "l_suppkey"),
        "partsupp", ("ps_partkey", "ps_suppkey"),
        match=MatchSemantics.PARTIAL,
    )
    db.add_candidate_key(PrimaryKey("partsupp", ("ps_partkey", "ps_suppkey")))
    fk.validate_against(db)
    return TpchDataset(db, config, fk, partsupp_keys)
