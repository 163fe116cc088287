"""One function per paper table/figure: the reproduction experiments.

:data:`REGISTRY` maps each result id to its experiment; every experiment
is called as ``fn(plan)`` with a :class:`~repro.bench.scale.ScalePlan`
and returns an :class:`ExperimentResult` whose ``text`` is a paper-style
rendering and whose ``rows`` carry the raw numbers (consumed by
EXPERIMENTS.md).  :func:`run` is the one runner, behind ``python -m
repro experiment ID|all``.  Sweep results are cached per (n, plan)
inside the module so the figure experiments can re-render the table
experiments' data without recomputing it.
"""

from __future__ import annotations

import gc
import json
import math
import random
import tempfile
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from ..constraints.foreign_key import ForeignKey, MatchSemantics
from ..core.batch import batch_delete_parents, batch_insert_rows
from ..core.enforcement import EnforcedForeignKey
from ..core.engine_level import EngineLevelEnforcement
from ..core.states import sargable_states_with_prefix_indexes, total_state_count
from ..core.strategies import IndexStructure
from ..indexes.definition import IndexKind
from ..query import dml
from ..query.predicate import equalities
from ..storage.database import Database
from ..storage.schema import Column
from ..storage.wal import WriteAheadLog, open_durable
from ..workloads import geneontology, mar, synthetic, tpcc, tpch
from . import harness, report
from .measure import Measurement, measure_block, measure_ops
from .scale import ScalePlan

#: Structures of the §7.2 head-to-head (Table 1/2, Figures 4/5).
GRID_STRUCTURES = (
    IndexStructure.NO_INDEX,
    IndexStructure.FULL,
    IndexStructure.SINGLETON,
    IndexStructure.HYBRID,
    IndexStructure.POWERSET,
    IndexStructure.BOUNDED,
)

#: Structures of the §7.5 ablation (Figures 7-10, Tables 11-13).
ABLATIONS = (
    IndexStructure.HYBRID,
    IndexStructure.HYBRID_COMPOUND,
    IndexStructure.HYBRID_NSINGLE,
    IndexStructure.BOUNDED,
)


@dataclass
class ExperimentResult:
    """The outcome of one reproduced table or figure."""

    experiment_id: str
    title: str
    text: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: The expectations that did not hold; any one fails the runner.
    failures: list[str] = field(default_factory=list)

    def expect(self, holds: bool, met: str, failed: str) -> None:
        """Note whether an expectation of the run held."""
        self.notes.append(met if holds else failed)
        if not holds:
            self.failures.append(failed)

    def render(self) -> str:
        out = [self.text]
        out += [f"   note: {n}" for n in self.notes]
        return "\n".join(out)


# ----------------------------------------------------------------------
# Cached synthetic sweep: one (structure, size) cell measured for load,
# build, inserts and deletes — Tables 1, 2, 4 and Figures 4, 5, 10 all
# read from it.


@dataclass
class CellMeasurements:
    structure: str
    size: int
    load: Measurement
    build: Measurement
    build_parent_s: float
    build_child_s: float
    inserts: Measurement
    deletes: Measurement


_SWEEP_CACHE: dict[tuple, list[CellMeasurements]] = {}


def _measure_cell(
    config: synthetic.SyntheticConfig,
    structure: IndexStructure,
    plan: ScalePlan,
    simple: bool = False,
) -> CellMeasurements:
    cell = harness.prepare_cell(config, structure, simple=simple)
    build_parent, build_child = _split_build_time(cell)
    inserts = harness.run_insert_cell(cell, count=plan.insert_ops)
    deletes = harness.run_delete_cell(cell, count=plan.delete_ops)
    return CellMeasurements(
        structure=harness.structure_label(structure, simple),
        size=config.parent_rows,
        load=cell.load,
        build=cell.build,
        build_parent_s=build_parent,
        build_child_s=build_child,
        inserts=inserts,
        deletes=deletes,
    )


def _split_build_time(cell: harness.PreparedCell) -> tuple[float, float]:
    """Approximate parent/child shares of the build time by entry counts
    (Tables 11/12 report index building per table)."""
    parent = cell.dataset.parent_table
    child = cell.dataset.child_table
    p_entries = sum(len(i) for i in parent.indexes)
    c_entries = sum(len(i) for i in child.indexes)
    total = p_entries + c_entries
    build_s = cell.build.total_s
    if not total:
        return 0.0, 0.0
    return build_s * p_entries / total, build_s * c_entries / total


def synthetic_sweep(
    n_columns: int,
    plan: ScalePlan,
    structures: Sequence[IndexStructure] = GRID_STRUCTURES,
    include_simple: bool = True,
) -> list[CellMeasurements]:
    """Measure every (structure, size) cell for an n-column foreign key."""
    key = (n_columns, plan, tuple(structures), include_simple)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    cells: list[CellMeasurements] = []
    for size in plan.sizes:
        config = synthetic.SyntheticConfig(n_columns=n_columns, parent_rows=size)
        for structure in structures:
            cells.append(_measure_cell(config, structure, plan))
        if include_simple:
            cells.append(_measure_cell(config, IndexStructure.FULL, plan, simple=True))
    _SWEEP_CACHE[key] = cells
    return cells


def _grid_rows(
    cells: list[CellMeasurements],
    plan: ScalePlan,
    metric: Callable[[CellMeasurements], float],
) -> tuple[list[str], list[list[Any]]]:
    structures = list(dict.fromkeys(c.structure for c in cells))
    sizes = sorted({c.size for c in cells}, reverse=True)
    by_key = {(c.structure, c.size): c for c in cells}
    headers = ["Data Set Size"] + structures
    rows = []
    for size in sizes:
        row: list[Any] = [plan.size_label(size)]
        for structure in structures:
            row.append(metric(by_key[(structure, size)]))
        rows.append(row)
    return headers, rows


def _at_largest(cells: list[CellMeasurements], *structures: str) -> list[CellMeasurements]:
    """The cells of *structures*, in order, at the sweep's largest size."""
    largest = max(c.size for c in cells)
    at_largest = {c.structure: c for c in cells if c.size == largest}
    return [at_largest[s] for s in structures]


# ----------------------------------------------------------------------
# Table 1 / Table 2: insert and delete times for the 5-column key.


def table1_insertions(plan: ScalePlan, n_columns: int = 5) -> ExperimentResult:
    """Table 1: execution time for insertion with a 5-column foreign key."""
    cells = synthetic_sweep(n_columns, plan)
    headers, rows = _grid_rows(cells, plan, lambda c: c.inserts.avg_ms)
    text = report.format_table(
        f"Table 1 — avg insert time (ms), {n_columns}-column FK, "
        f"{plan.insert_ops} inserts/cell",
        headers,
        rows,
    )
    result = ExperimentResult("table1", "Insertions, 5-column FK", text)
    result.rows = [
        {"structure": c.structure, "size": c.size,
         "avg_ms": c.inserts.avg_ms, "max_ms": c.inserts.max_ms}
        for c in cells
    ]
    hybrid, bounded = _at_largest(cells, "Hybrid", "Bounded")
    result.notes.append(
        report.ratio_note("Bounded", bounded.inserts.avg_ms, "Hybrid", hybrid.inserts.avg_ms)
        + " for inserts at the largest size (paper: 7x)"
    )
    return result


def table2_deletions(plan: ScalePlan, n_columns: int = 5) -> ExperimentResult:
    """Table 2: execution time for deletion with a 5-column foreign key."""
    cells = synthetic_sweep(n_columns, plan)
    headers, rows = _grid_rows(cells, plan, lambda c: c.deletes.avg_ms)
    text = report.format_table(
        f"Table 2 — avg delete time (ms), {n_columns}-column FK, "
        f"{plan.delete_ops} deletes/cell",
        headers,
        rows,
    )
    result = ExperimentResult("table2", "Deletions, 5-column FK", text)
    result.rows = [
        {"structure": c.structure, "size": c.size,
         "avg_ms": c.deletes.avg_ms, "max_ms": c.deletes.max_ms}
        for c in cells
    ]
    hybrid, bounded, powerset = _at_largest(cells, "Hybrid", "Bounded", "Powerset")
    result.notes.append(
        report.ratio_note("Bounded", bounded.deletes.avg_ms, "Hybrid", hybrid.deletes.avg_ms)
        + " for deletes at the largest size (paper: 123x)"
    )
    result.notes.append(
        report.ratio_note("Bounded", bounded.deletes.avg_ms, "Powerset", powerset.deletes.avg_ms)
        + " (paper: 9x)"
    )
    return result


# ----------------------------------------------------------------------
# Table 3: the 100M data set, Hybrid vs Bounded vs simple semantics.


def table3_largest(plan: ScalePlan) -> ExperimentResult:
    """Table 3: Hybrid vs Bounded vs simple on the largest (100M) set."""
    size = plan.largest
    config = synthetic.SyntheticConfig(n_columns=5, parent_rows=size)
    rows = []
    raw = []
    for structure, simple in (
        (IndexStructure.HYBRID, False),
        (IndexStructure.BOUNDED, False),
        (IndexStructure.FULL, True),
    ):
        cell = _measure_cell(config, structure, plan, simple=simple)
        rows.append([
            cell.structure,
            cell.inserts.avg_ms, cell.inserts.max_ms,
            cell.deletes.avg_ms, cell.deletes.max_ms,
        ])
        raw.append({
            "structure": cell.structure,
            "insert_avg_ms": cell.inserts.avg_ms,
            "delete_avg_ms": cell.deletes.avg_ms,
        })
    text = report.format_table(
        f"Table 3 — 100M-equivalent data set ({size} parents), 5-column FK",
        ["Structure", "Insert avg (ms)", "Insert max (ms)",
         "Delete avg (ms)", "Delete max (ms)"],
        rows,
    )
    result = ExperimentResult("table3", "Largest data set", text, raw)
    result.notes.append(
        "paper: Hybrid 13/156 ms insert (avg/max), Bounded 2.7/63 ms; "
        "Bounded delete 84.8 ms avg"
    )
    return result


# ----------------------------------------------------------------------
# Table 4: loading data and building the indexes.


def table4_index_build(plan: ScalePlan) -> ExperimentResult:
    """Table 4: time to load data and build each index structure."""
    cells = synthetic_sweep(5, plan)
    headers, rows = _grid_rows(
        cells, plan, lambda c: c.load.total_s + c.build.total_s
    )
    text = report.format_table(
        "Table 4 — load + index build time (s), 5-column FK",
        headers,
        rows,
    )
    result = ExperimentResult("table4", "Index building", text)
    result.rows = [
        {"structure": c.structure, "size": c.size,
         "load_s": c.load.total_s, "build_s": c.build.total_s}
        for c in cells
    ]
    hybrid, bounded, powerset = _at_largest(cells, "Hybrid", "Bounded", "Powerset")
    if hybrid.build.total_s > 0:
        result.notes.append(
            f"Bounded build is {bounded.build.total_s / hybrid.build.total_s:.2f}x "
            "Hybrid's (paper: ~1.5x); Powerset build is "
            f"{powerset.build.total_s / hybrid.build.total_s:.1f}x Hybrid's (paper: ~23x)"
        )
    return result


# ----------------------------------------------------------------------
# Table 5 / Table 13: transactions.


def table5_transactions(plan: ScalePlan) -> ExperimentResult:
    """Table 5: one transaction of inserts / deletes, Hybrid vs Bounded."""
    return _transaction_experiment(
        "table5",
        "Table 5 — transaction times (s), largest grid size",
        (IndexStructure.HYBRID, IndexStructure.BOUNDED),
        plan,
        include_simple=False,
    )


def table13_transaction_structures(plan: ScalePlan) -> ExperimentResult:
    """Table 13: transactions under all four ablation structures + simple."""
    return _transaction_experiment(
        "table13",
        "Table 13 — transaction times (s) under index structures",
        ABLATIONS,
        plan,
        include_simple=True,
    )


def _transaction_experiment(
    experiment_id: str,
    title: str,
    structures: Sequence[IndexStructure],
    plan: ScalePlan,
    include_simple: bool,
) -> ExperimentResult:
    size = plan.sizes[-1]
    config = synthetic.SyntheticConfig(n_columns=5, parent_rows=size)
    rows = []
    raw = []
    specs: list[tuple[IndexStructure, bool]] = [(s, False) for s in structures]
    if include_simple:
        specs.append((IndexStructure.FULL, True))
    for structure, simple in specs:
        cell = harness.prepare_cell(config, structure, simple=simple)
        inserts, deletes = harness.run_transaction_cell(
            cell, plan.txn_inserts, plan.txn_deletes
        )
        label = harness.structure_label(structure, simple)
        rows.append([label, inserts.total_s, deletes.total_s])
        raw.append({
            "structure": label,
            "txn_insert_s": inserts.total_s,
            "txn_delete_s": deletes.total_s,
        })
    text = report.format_table(
        f"{title} ({plan.txn_inserts} inserts / {plan.txn_deletes} deletes, "
        f"{plan.size_label(size)})",
        ["Structure", f"{plan.txn_inserts} inserts (s)", f"{plan.txn_deletes} deletes (s)"],
        rows,
    )
    result = ExperimentResult(experiment_id, title, text, raw)
    result.notes.append(
        "paper Table 5: Bounded 7s/11s vs Hybrid 90s/148min; Table 13 adds "
        "Hybrid+Compound fast inserts & slow deletes, Hybrid+nSingle the reverse"
    )
    return result


# ----------------------------------------------------------------------
# Tables 6-8: deleting unique vs non-unique parents.


def tables6_7_8_unique_parents(plan: ScalePlan) -> ExperimentResult:
    """Tables 6/7/8: unique vs non-unique parent deletions per structure."""
    size = plan.sizes[min(3, len(plan.sizes) - 1)]  # the paper used 10M
    config = synthetic.SyntheticConfig(
        n_columns=5, parent_rows=size, unique_parent_fraction=0.3
    )
    count = max(10, plan.delete_ops // 2)
    rows = []
    raw = []
    for structure in (
        IndexStructure.HYBRID,
        IndexStructure.BOUNDED,
        IndexStructure.HYBRID_COMPOUND,
    ):
        unique_cell = harness.prepare_cell(config, structure)
        unique = harness.run_delete_cell(unique_cell, count=count, from_unique=True)
        nonunique_cell = harness.prepare_cell(config, structure)
        nonunique = harness.run_delete_cell(
            nonunique_cell, count=count, from_unique=False
        )
        rows.append([structure.label, unique.avg_ms, nonunique.avg_ms])
        raw.append({
            "structure": structure.label,
            "unique_avg_ms": unique.avg_ms,
            "nonunique_avg_ms": nonunique.avg_ms,
        })
    text = report.format_table(
        f"Tables 6/7/8 — avg delete time (ms) by parent kind, "
        f"{plan.size_label(size)}, 5-column FK",
        ["Structure", "Unique parents", "Non-unique parents"],
        rows,
    )
    result = ExperimentResult("tables6_7_8", "Unique vs non-unique parents", text, raw)
    result.notes.append(
        "paper: Hybrid is dominated by unique-parent deletions (every "
        "alternative-parent probe fails and scans); Bounded keeps both cheap; "
        "Hybrid+Compound only speeds the non-unique case"
    )
    return result


# ----------------------------------------------------------------------
# Figures 4/5: performance trends (insert / delete) for n = 4 and 5.


def fig4_insert_trends(plan: ScalePlan) -> ExperimentResult:
    """Figure 4: insert-time trends across sizes, n = 4 and n = 5."""
    return _trend_figure("fig4", "Figure 4 — insert trends", plan,
                         metric="inserts")


def fig5_delete_trends(plan: ScalePlan) -> ExperimentResult:
    """Figure 5: delete-time trends across sizes, n = 4 and n = 5."""
    return _trend_figure("fig5", "Figure 5 — delete trends", plan,
                         metric="deletes")


def _figure(
    title: str, cells: list[CellMeasurements], plan: ScalePlan, metric: str
) -> tuple[str, dict[str, list[float]]]:
    """A figure's series — per structure, *metric*'s average over
    ascending sizes — and its rendering."""
    series: dict[str, list[float]] = {}
    for c in sorted(cells, key=lambda c: c.size):
        series.setdefault(c.structure, []).append(getattr(c, metric).avg_ms)
    sizes = sorted({c.size for c in cells})
    text = report.format_series(title, [plan.size_label(s) for s in sizes], series)
    return text, series


def _trend_figure(
    experiment_id: str, title: str, plan: ScalePlan, metric: str
) -> ExperimentResult:
    blocks = []
    raw = []
    for n in (4, 5):
        text, series = _figure(
            f"{title}, {n}-column FK", synthetic_sweep(n, plan), plan, metric
        )
        blocks.append(text)
        for s, values in series.items():
            raw.append({"n": n, "structure": s, "avg_ms_by_size": values})
    return ExperimentResult(experiment_id, title, "\n\n".join(blocks), raw)


# ----------------------------------------------------------------------
# Figure 6: 2-column foreign keys — the Hybrid exception.


def fig6_two_column(plan: ScalePlan) -> ExperimentResult:
    """Figure 6: with n=2, Hybrid is competitive on large data sets and
    Powerset coincides with Bounded."""
    structures = (
        IndexStructure.FULL,
        IndexStructure.SINGLETON,
        IndexStructure.HYBRID,
        IndexStructure.BOUNDED,   # == Powerset for n = 2
    )
    cells = synthetic_sweep(2, plan, structures=structures, include_simple=False)
    text = "\n\n".join([
        _figure("Figure 6a — 2-column FK inserts", cells, plan, "inserts")[0],
        _figure("Figure 6b — 2-column FK deletes", cells, plan, "deletes")[0],
    ])
    result = ExperimentResult("fig6", "2-column foreign keys", text)
    result.rows = [
        {"structure": c.structure, "size": c.size,
         "insert_avg_ms": c.inserts.avg_ms, "delete_avg_ms": c.deletes.avg_ms}
        for c in cells
    ]
    result.notes.append(
        "paper: on the largest 2-column set Hybrid took 2.8/10.2 ms "
        "(ins/del) vs Powerset(=Bounded) 4.3/11.5 ms — the one regime "
        "where Hybrid stays the best choice"
    )
    return result


# ----------------------------------------------------------------------
# Figures 7/8/10: ablation structures under deletions and insertions.


def fig7_delete_ablation(plan: ScalePlan) -> ExperimentResult:
    """Figure 7: deletions — adding nSingle to Hybrid gives the boost."""
    cells = synthetic_sweep(5, plan, structures=ABLATIONS, include_simple=False)
    return _ablation_figure("fig7", "Figure 7 — deletions (ablations)",
                            cells, plan, metric="deletes",
                            note="paper: Hybrid+nSingle ≈ Bounded, "
                                 "Hybrid+Compound ≈ Hybrid")


def fig8_insert_ablation(plan: ScalePlan) -> ExperimentResult:
    """Figure 8: insertions — adding Compound to Hybrid gives the boost."""
    cells = synthetic_sweep(5, plan, structures=ABLATIONS, include_simple=False)
    return _ablation_figure("fig8", "Figure 8 — insertions (ablations)",
                            cells, plan, metric="inserts",
                            note="paper: Hybrid+Compound ≈ Bounded, "
                                 "Hybrid+nSingle ≈ Hybrid")


def fig10_delete_structures(plan: ScalePlan) -> ExperimentResult:
    """Figure 10: deletions across the full structure set, 5-column FK."""
    all_structures = GRID_STRUCTURES + (
        IndexStructure.HYBRID_COMPOUND, IndexStructure.HYBRID_NSINGLE,
    )
    cells = synthetic_sweep(5, plan, structures=all_structures, include_simple=False)
    return _ablation_figure("fig10", "Figure 10 — deletions (all structures)",
                            cells, plan, metric="deletes",
                            note="Bounded is the only structure fast under "
                                 "both operations (paper §7.5)")


def _ablation_figure(
    experiment_id: str,
    title: str,
    cells: list[CellMeasurements],
    plan: ScalePlan,
    metric: str,
    note: str,
) -> ExperimentResult:
    text = _figure(title, cells, plan, metric)[0]
    result = ExperimentResult(experiment_id, title, text)
    result.rows = [
        {"structure": c.structure, "size": c.size,
         "avg_ms": getattr(c, metric).avg_ms}
        for c in cells
    ]
    result.notes.append(note)
    return result


# ----------------------------------------------------------------------
# Figure 9: insert breakdown — total vs partially-null tuples.


def fig9_insert_breakdown(plan: ScalePlan) -> ExperimentResult:
    """Figure 9: Hybrid is slow specifically for *total* inserts; adding
    the compound parent index (Hybrid+Compound, Bounded) fixes that."""
    size = plan.sizes[-1]
    config = synthetic.SyntheticConfig(n_columns=5, parent_rows=size)
    count = plan.insert_ops // 2
    rows = []
    raw = []
    for structure in ABLATIONS:
        cell = harness.prepare_cell(config, structure)
        total_rows = synthetic.total_insert_stream(cell.dataset, count)
        partial_rows = synthetic.partial_insert_stream(cell.dataset, count)
        total = harness.run_insert_cell(cell, rows=total_rows, label="total")
        partial = harness.run_insert_cell(cell, rows=partial_rows, label="partial")
        rows.append([structure.label, total.avg_ms, partial.avg_ms])
        raw.append({
            "structure": structure.label,
            "total_avg_ms": total.avg_ms,
            "partial_avg_ms": partial.avg_ms,
        })
    text = report.format_table(
        f"Figure 9 — avg insert time (ms) by tuple kind, {plan.size_label(size)}",
        ["Structure", "Total FK tuples", "Partially-null FK tuples"],
        rows,
    )
    result = ExperimentResult("fig9", "Insert breakdown", text, raw)
    result.notes.append(
        "paper: Hybrid's poor inserts come from total tuples (singleton "
        "probe + filtering); the compound parent index makes them cheap"
    )
    return result


# ----------------------------------------------------------------------
# Tables 11/12: per-structure profiles (index build + per-op times).


def table11_12_profiles(plan: ScalePlan) -> ExperimentResult:
    """Tables 11 and 12: IB for C / IB for P / insert avg / delete avg."""
    blocks = []
    raw = []
    for table_id, structure in (
        ("Table 11", IndexStructure.BOUNDED),
        ("Table 12", IndexStructure.HYBRID_NSINGLE),
    ):
        cells = synthetic_sweep(5, plan, structures=(structure,), include_simple=False)
        rows = []
        for c in sorted(cells, key=lambda c: -c.size):
            rows.append([
                plan.size_label(c.size),
                c.build_child_s, c.build_parent_s,
                c.inserts.avg_ms / 1000, c.deletes.avg_ms / 1000,
            ])
            raw.append({
                "table": table_id, "structure": c.structure, "size": c.size,
                "ib_child_s": c.build_child_s, "ib_parent_s": c.build_parent_s,
                "insert_avg_s": c.inserts.avg_s, "delete_avg_s": c.deletes.avg_s,
            })
        blocks.append(report.format_table(
            f"{table_id} — {structure.label}: index building and execution",
            ["Dataset Size", "IB for C (s)", "IB for P (s)",
             "Insert Ave. (s)", "Delete Ave. (s)"],
            rows,
        ))
    result = ExperimentResult(
        "table11_12", "Bounded / Hybrid+nSingle profiles", "\n\n".join(blocks), raw
    )
    result.notes.append(
        "paper: the two structures build in near-identical time, but only "
        "Bounded also keeps inserts fast (compound index on P)"
    )
    return result


# ----------------------------------------------------------------------
# Tables 9/10: benchmark databases (TPC-H, TPC-C, Gene Ontology).

BENCHMARK_STRUCTURES = (
    IndexStructure.NO_INDEX,
    IndexStructure.FULL,
    IndexStructure.SINGLETON,
    IndexStructure.HYBRID,
    IndexStructure.BOUNDED,
)


@dataclass(frozen=True)
class BenchmarkTarget:
    """One benchmark FK test: how to build it and how to exercise it."""

    label: str
    build: Callable[[], tuple[Database, ForeignKey, list[tuple[Any, ...]]]]
    make_child_row: Callable[[tuple[Any, ...], int], tuple[Any, ...]]
    null_rate: float = 0.15

    def enforce(
        self, structure: IndexStructure, simple: bool = False
    ) -> tuple[Database, ForeignKey, list[tuple[Any, ...]]]:
        """Build the database, null the child's FK columns at random
        (Missing-at-Random, :attr:`null_rate`) and enforce the FK under
        *structure* — or, with *simple*, the built-in MATCH SIMPLE
        baseline on the Full structure.  Returns the database, the
        enforced FK and the parent keys."""
        db, fk, parent_keys = self.build()
        mar.inject_nulls(db.table(fk.child_table), fk.fk_columns, self.null_rate)
        if simple:
            fk = ForeignKey(
                fk.name, fk.child_table, fk.fk_columns,
                fk.parent_table, fk.key_columns,
                match=MatchSemantics.SIMPLE,
            )
            structure = IndexStructure.FULL
        EnforcedForeignKey.create(db, fk, structure)
        return db, fk, parent_keys


def _tpch_target(scale: float) -> BenchmarkTarget:
    config = tpch.TpchConfig(
        parts=max(50, int(500 * scale)),
        suppliers=max(20, int(100 * scale)),
        lineitems=max(500, int(12_000 * scale)),
    )

    def build():
        ds = tpch.generate(config)
        return ds.db, ds.fk, ds.partsupp_keys

    def make_row(key, i):
        return (900_000 + i, 1, key[0], key[1], 5)

    return BenchmarkTarget(f"TPC-H x{scale:g}", build, make_row)


def _tpcc_orders_target() -> BenchmarkTarget:
    def build():
        ds = tpcc.generate(tpcc.TpccConfig())
        return ds.db, ds.fk_orders_customer, ds.customer_keys

    def make_row(key, i):
        return (key[0], key[1], 900_000 + i, key[2], 1)

    return BenchmarkTarget("TPC-C orders→customer", build, make_row)


def _tpcc_orderline_target() -> BenchmarkTarget:
    def build():
        ds = tpcc.generate(tpcc.TpccConfig())
        return ds.db, ds.fk_orderline_orders, ds.order_keys

    def make_row(key, i):
        return (key[0], key[1], key[2], 900_000 + i, 42, 1)

    return BenchmarkTarget("TPC-C orderline→orders", build, make_row)


def _go_target() -> BenchmarkTarget:
    def build():
        ds = geneontology.generate(geneontology.GeneOntologyConfig())
        return ds.db, ds.fk, ds.edge_keys

    def make_row(key, i):
        return (key[0], key[1], key[2], 900_000 + i)

    return BenchmarkTarget("Gene Ontology TT-metadata→TT", build, make_row)


def table9_benchmark_details(plan: ScalePlan) -> ExperimentResult:
    """Table 9: the tested benchmark foreign keys (static; no plan needed)."""
    rows = [
        ["TPC-H", "PARTSUPP", "LINEITEM",
         "[l_partkey, l_suppkey] ⊆ [ps_partkey, ps_suppkey]"],
        ["TPC-C", "CUSTOMER", "ORDERS",
         "[o_w_id, o_d_id, o_c_id] ⊆ [c_w_id, c_d_id, c_id]"],
        ["TPC-C", "ORDERS", "ORDERLINE",
         "[ol_w_id, ol_d_id, ol_o_id] ⊆ [o_w_id, o_d_id, o_id]"],
        ["Gene Ontology", "TERM2TERM", "TERM2TERM_METADATA",
         "[relationship_type_id, term1_id, term2_id] ⊆ (same)"],
    ]
    text = report.format_table(
        "Table 9 — benchmark foreign keys",
        ["Database", "Parent table", "Child table", "Foreign key"],
        rows,
    )
    return ExperimentResult("table9", "Benchmark FK details", text)


def table10_benchmark_dbs(plan: ScalePlan) -> ExperimentResult:
    """Table 10: enforcing partial semantics on the benchmark databases."""
    targets = [
        _tpch_target(0.5),          # test 1: the smaller TPC-H set
        _tpch_target(2.0),          # test 2: the larger TPC-H set
        _tpcc_orders_target(),      # test 3
        _tpcc_orderline_target(),
        _go_target(),               # test 4
    ]
    if plan.quick:
        targets = [targets[0], targets[2], targets[4]]
    n_ops = max(30, plan.insert_ops // 3)
    n_dels = max(10, plan.delete_ops // 2)

    headers = ["Structure"]
    columns: list[list[float]] = []
    raw = []
    for target in targets:
        headers += [f"{target.label} ins", f"{target.label} del"]
        ins_col: list[float] = []
        del_col: list[float] = []
        for structure, simple in (
            [(s, False) for s in BENCHMARK_STRUCTURES] + [(IndexStructure.FULL, True)]
        ):
            db, fk, parent_keys = target.enforce(structure, simple)
            rng = random.Random(31)
            draws = [parent_keys[rng.randrange(len(parent_keys))]
                     for __ in range(n_ops + 3 * n_dels)]
            inserts = measure_ops(
                "insert", lambda r: dml.insert(db, fk.child_table, r),
                [target.make_child_row(key, i) for i, key in enumerate(draws[:n_ops])],
                db.tracker,
            )
            deletes = measure_ops(
                "delete",
                lambda k: dml.delete_where(db, fk.parent_table,
                                           equalities(fk.key_columns, k)),
                list(dict.fromkeys(draws[n_ops:]))[:n_dels], db.tracker,
            )
            ins_col.append(inserts.avg_ms)
            del_col.append(deletes.avg_ms)
            raw.append({
                "target": target.label,
                "structure": harness.structure_label(structure, simple),
                "insert_avg_ms": inserts.avg_ms,
                "delete_avg_ms": deletes.avg_ms,
            })
        columns.append(ins_col)
        columns.append(del_col)

    labels = [harness.structure_label(s) for s in BENCHMARK_STRUCTURES]
    labels.append(harness.SIMPLE_BASELINE)
    rows = [
        [labels[i]] + [col[i] for col in columns] for i in range(len(labels))
    ]
    text = report.format_table(
        "Table 10 — avg time (ms) to enforce partial RI on benchmark databases",
        headers,
        rows,
    )
    result = ExperimentResult("table10", "Benchmark databases", text, raw)
    result.notes.append(
        "paper: rankings mirror the synthetic sets — Bounded beats Hybrid "
        "by ~2x (inserts) and ~5x (deletes) on the 3-column TPC-C keys; "
        "partial enforcement stays within single-digit ms"
    )
    return result


# ----------------------------------------------------------------------
# §9 future work: the 2n-compound PrefixCompound option.


def prefix_compound_ablation(plan: ScalePlan) -> ExperimentResult:
    """§9: Bounded beats the 2n-compound option on deletions for n=3..5,
    builds 1.5-4x cheaper, and PrefixCompound covers only 21 of 31
    partial-match probes at n=5."""
    size = plan.sizes[-1]
    rows = []
    raw = []
    for n in (3, 4, 5):
        config = synthetic.SyntheticConfig(n_columns=n, parent_rows=size)
        for structure in (IndexStructure.BOUNDED, IndexStructure.PREFIX_COMPOUND):
            cell = harness.prepare_cell(config, structure)
            deletes = harness.run_delete_cell(cell, count=plan.delete_ops)
            rows.append([
                n, structure.label, cell.build.total_s, deletes.avg_ms,
                f"{sargable_states_with_prefix_indexes(n)}/{total_state_count(n)}"
                if structure is IndexStructure.PREFIX_COMPOUND
                else f"{total_state_count(n)}/{total_state_count(n)}",
            ])
            raw.append({
                "n": n, "structure": structure.label,
                "build_s": cell.build.total_s, "delete_avg_ms": deletes.avg_ms,
            })
    text = report.format_table(
        f"§9 ablation — Bounded vs PrefixCompound (2n n-ary indexes), "
        f"{plan.size_label(size)}",
        ["n", "Structure", "Build (s)", "Delete avg (ms)", "Probes covered"],
        rows,
    )
    result = ExperimentResult("prefix_compound", "PrefixCompound ablation", text, raw)
    result.notes.append(
        "paper: Bounded deletes >3x faster and builds 1.5-4x cheaper; "
        "at n=5 the 2x5 rotations support only 21 of 31 match queries"
    )
    return result


# ----------------------------------------------------------------------
# The durability tax: the file-backed log against the in-memory one.

#: Commit disciplines over the same autocommit insert stream through one
#: session: ``memory`` flushes a volatile log per commit (no disk I/O);
#: ``durable`` fsyncs file-backed segments per commit, the worst case;
#: ``durable-group`` defers the flush the way the server's connections
#: do (``flush_on_commit = False``) and flushes once per
#: :data:`GROUP` commits.
DURABILITY_MODES = ("memory", "durable", "durable-group")

#: Commits that share one flush in the ``durable-group`` mode.
GROUP = 16


def run_commits(mode: str, ops: int) -> dict[str, Any]:
    """*ops* autocommit inserts under one :data:`DURABILITY_MODES` mode.
    Every mode runs the same loop; they differ only in when the log
    flushes."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as data_dir:
        db = Database("durability")
        db.create_table("t", [Column("a"), Column("b")])
        if mode == "memory":
            wal = WriteAheadLog()
            db.attach_wal(wal)
        else:
            wal, __ = open_durable(db, data_dir)
        session = db.enable_sessions().session()
        session.flush_on_commit = mode != "durable-group"
        started = time.perf_counter()
        for i in range(ops):
            session.insert("t", (i, 0))
            if (i + 1) % GROUP == 0:
                wal.flush()
        wal.flush()
        elapsed = time.perf_counter() - started
        session.close()
        wal.close()
    syncs = wal.store.sync_count if wal.store is not None else 0
    return {
        "mode": mode,
        "ops": ops,
        "elapsed_s": elapsed,
        "commits_per_s": ops / elapsed if elapsed > 0 else float("inf"),
        "syncs": syncs,
        "syncs_per_commit": syncs / ops,
    }


def durability_tax(plan: ScalePlan) -> ExperimentResult:
    """The durability tax: commits/s and fsyncs per commit by log mode."""
    ops = plan.insert_ops
    runs = [run_commits(mode, ops) for mode in DURABILITY_MODES]
    text = report.format_table(
        f"Durability tax ({ops} autocommit inserts through one session)",
        ["Mode", "commits/s", "Syncs", "Syncs/commit"],
        [[r["mode"], f"{r['commits_per_s']:.0f}", r["syncs"],
          f"{r['syncs_per_commit']:.3f}"] for r in runs],
    )
    result = ExperimentResult("durability", "Durability tax", text, runs)
    syncs = {r["mode"]: r["syncs"] for r in runs}
    per_commit, grouped = syncs["durable"], syncs["durable-group"]
    result.expect(
        per_commit >= ops and grouped <= math.ceil(ops / GROUP),
        f"one fsync per durable commit, one per {GROUP} deferred commits",
        f"DEFERRED COMMITS DID NOT SHARE FSYNCS ({per_commit} per-commit "
        f"vs {grouped} grouped)!",
    )
    return result


# ----------------------------------------------------------------------
# Side results: the paper's §7.1 notes (hash indexes, null fractions) and
# its §9 future work (engine-level enforcement, batching), each on a
# fresh cell of the largest grid size.

#: The null-marker fractions of §7.1: the grid's 25 %, then 50 and 80 %.
NULL_FRACTIONS = (0.25, 0.5, 0.8)


def _custom_cell(
    config: synthetic.SyntheticConfig, install: Callable[[Database, ForeignKey], Any]
) -> harness.PreparedCell:
    """A cell whose enforcement :func:`harness.prepare_cell` does not
    build: ``install(db, fk)`` is timed and counted as the index build."""
    dataset = synthetic.generate(config)
    installed: list[Any] = []
    build = measure_block(
        "index build", lambda: installed.append(install(dataset.db, dataset.fk)),
        dataset.db.tracker,
    )
    return harness.PreparedCell(dataset, installed[0], build, Measurement("load"))


def _side_table(
    experiment_id: str,
    title: str,
    plan: ScalePlan,
    cells: Sequence[tuple[str, Callable[[], harness.PreparedCell]]],
) -> ExperimentResult:
    """Build each labelled cell in turn and measure the plan's inserts,
    then its deletes, on it."""
    rows, raw = [], []
    for label, build in cells:
        cell = build()
        inserts = harness.run_insert_cell(cell, count=plan.insert_ops)
        deletes = harness.run_delete_cell(cell, count=plan.delete_ops)
        work = deletes.cost_per_op("rows_fetched") + deletes.cost_per_op("rows_examined")
        rows.append([label, cell.build.total_s, inserts.avg_ms, deletes.avg_ms, work])
        raw.append({
            "cell": label, "build_s": cell.build.total_s,
            "insert_avg_ms": inserts.avg_ms, "delete_avg_ms": deletes.avg_ms,
            "delete_rows_per_op": work,
        })
    text = report.format_table(
        f"{title}, {plan.size_label(plan.sizes[-1])}, 5-column FK",
        ["Cell", "Build (s)", "Insert avg (ms)", "Delete avg (ms)",
         "Rows fetched+examined per delete"],
        rows,
    )
    return ExperimentResult(experiment_id, title, text, raw)


def _side_note(result: ExperimentResult, label: str, other: str, paper: str) -> None:
    """Two of *result*'s cells compared, and the paper's word."""
    by_cell = {r["cell"]: r for r in result.rows}
    mine, theirs = by_cell[label], by_cell[other]
    result.notes.append(
        report.ratio_note(label, mine["insert_avg_ms"], other, theirs["insert_avg_ms"])
        + " for inserts; "
        + report.ratio_note(label, mine["delete_avg_ms"], other, theirs["delete_avg_ms"])
        + f" for deletes, {mine['delete_rows_per_op']:.0f} vs "
        f"{theirs['delete_rows_per_op']:.0f} rows per delete ({paper})"
    )


def hash_indexes(plan: ScalePlan) -> ExperimentResult:
    """§7.1 side note: Bounded on hash indexes instead of B-trees."""
    config = synthetic.SyntheticConfig(n_columns=5, parent_rows=plan.sizes[-1])
    result = _side_table("hash", "Bounded by index kind (§7.1)", plan, [
        (f"Bounded on {kind.value}", partial(_custom_cell, config, partial(
            EnforcedForeignKey.create,
            structure=IndexStructure.BOUNDED, index_kind=kind,
        )))
        for kind in (IndexKind.BTREE, IndexKind.HASH)
    ])
    _side_note(result, "Bounded on btree", "Bounded on hash",
               "paper: hash 'worse with minor exceptions' — a hash index "
               "answers no prefix probe")
    return result


def null_fractions(plan: ScalePlan) -> ExperimentResult:
    """§7.1 robustness note: Hybrid vs Bounded at 25/50/80 % null markers."""
    result = _side_table("null_fractions", "Null-marker fractions (§7.1)", plan, [
        (f"{structure.label} {fraction:.0%}", partial(
            harness.prepare_cell,
            synthetic.SyntheticConfig(
                n_columns=5, parent_rows=plan.sizes[-1], null_fraction=fraction
            ),
            structure,
        ))
        for fraction in NULL_FRACTIONS
        for structure in (IndexStructure.HYBRID, IndexStructure.BOUNDED)
    ])
    for fraction in NULL_FRACTIONS:
        _side_note(result, f"Bounded {fraction:.0%}", f"Hybrid {fraction:.0%}",
                   "paper: 'performances were very similar in each case'")
    return result


def engine_level(plan: ScalePlan) -> ExperimentResult:
    """§9 future work: engine-level structures vs the Bounded triggers."""
    config = synthetic.SyntheticConfig(n_columns=5, parent_rows=plan.sizes[-1])
    result = _side_table("engine_level", "Engine-level enforcement (§9)", plan, [
        ("Engine-level", partial(_custom_cell, config, EngineLevelEnforcement)),
        ("Bounded triggers", partial(harness.prepare_cell, config, IndexStructure.BOUNDED)),
    ])
    _side_note(result, "Engine-level", "Bounded triggers",
               "paper §9: an engine-level implementation 'may reveal "
               "potential performance gains'")
    return result


def batch_enforcement(plan: ScalePlan) -> ExperimentResult:
    """§9 future work: batched enforcement vs per-row in one transaction.

    Two fresh Bounded cells take the same clustered inserts, then the same
    parent deletes: one through per-row statements in one transaction,
    the other through ``batch_insert_rows`` / ``batch_delete_parents``."""
    size = plan.sizes[-1]
    config = synthetic.SyntheticConfig(n_columns=5, parent_rows=size)
    rows = []
    raw = []
    for batched in (False, True):
        cell = harness.prepare_cell(config, IndexStructure.BOUNDED)
        db, fk = cell.db, cell.fk
        children = synthetic.clustered_insert_stream(cell.dataset, plan.txn_inserts)
        keys = synthetic.delete_stream(cell.dataset, plan.txn_deletes)
        if batched:
            label = "batched"
            insert = partial(batch_insert_rows, db, fk.child_table, children)
            delete = partial(batch_delete_parents, db, fk, keys)
        else:
            label = "per-row"
            insert = partial(_one_transaction, db, [
                partial(dml.insert, db, fk.child_table, row) for row in children
            ])
            delete = partial(_one_transaction, db, [
                partial(dml.delete_where, db, fk.parent_table,
                        equalities(fk.key_columns, key)) for key in keys
            ])
        # Each block is timed once: collect first, so that it does not pay
        # for collecting the previous cell's garbage.
        gc.collect()
        inserts = measure_block(f"{label} inserts", insert, db.tracker)
        gc.collect()
        deletes = measure_block(f"{label} deletes", delete, db.tracker)
        rows.append([label, inserts.total_s, deletes.total_s,
                     inserts.cost["state_checks"], deletes.cost["state_checks"]])
        raw.append({
            "cell": label, "insert_s": inserts.total_s, "delete_s": deletes.total_s,
            "insert_state_checks": inserts.cost["state_checks"],
            "delete_state_checks": deletes.cost["state_checks"],
        })
    text = report.format_table(
        f"Batched enforcement (§9) — {plan.txn_inserts} clustered inserts, then "
        f"{plan.txn_deletes} parent deletes, one transaction each, "
        f"{plan.size_label(size)}, Bounded",
        ["Cell", "Inserts (s)", "Deletes (s)", "Insert state checks",
         "Delete state checks"],
        rows,
    )
    result = ExperimentResult("batch", "Batched enforcement (§9)", text, raw)
    per_row, batched_row = raw
    result.notes.append(
        report.ratio_note("batched", batched_row["insert_s"], "per-row", per_row["insert_s"])
        + " for inserts, "
        + report.ratio_note("batched", batched_row["delete_s"], "per-row", per_row["delete_s"])
        + " for deletes (paper §9: batching and shared execution 'could "
        "optimize the enforcement')"
    )
    return result


def _one_transaction(db: Database, statements: list[Callable[[], Any]]) -> None:
    with db.begin():
        for statement in statements:
            statement()


# ----------------------------------------------------------------------
# The registry and its runner.

# Imported here (not at the top) because bench.concurrency needs
# ExperimentResult from this module.
from .concurrency import concurrency_throughput, read_mix_scaling  # noqa: E402

#: Result id -> experiment, in paper order.
REGISTRY: dict[str, Callable[[ScalePlan], ExperimentResult]] = {
    "table1": table1_insertions,
    "table2": table2_deletions,
    "table3": table3_largest,
    "table4": table4_index_build,
    "table5": table5_transactions,
    "tables6_7_8": tables6_7_8_unique_parents,
    "fig4": fig4_insert_trends,
    "fig5": fig5_delete_trends,
    "fig6": fig6_two_column,
    "fig7": fig7_delete_ablation,
    "fig8": fig8_insert_ablation,
    "fig9": fig9_insert_breakdown,
    "fig10": fig10_delete_structures,
    "table9": table9_benchmark_details,
    "table10": table10_benchmark_dbs,
    "table11_12": table11_12_profiles,
    "table13": table13_transaction_structures,
    "prefix_compound": prefix_compound_ablation,
    "concurrency": concurrency_throughput,
    "read_mix": read_mix_scaling,
    "durability": durability_tax,
    "hash": hash_indexes,
    "null_fractions": null_fractions,
    "engine_level": engine_level,
    "batch": batch_enforcement,
}

#: Where :func:`run` writes every rendering.
RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def run(
    experiment_id: str, plan: ScalePlan, json_dir: Path | None = None
) -> ExperimentResult:
    """Run one registry experiment, print its rendering and write it to
    ``RESULTS_DIR/<id>.txt``.  With *json_dir*, also write
    ``json_dir/<id>.json`` carrying the raw rows, for diffing runs or
    plotting without re-parsing the rendered tables."""
    started = time.perf_counter()
    result = REGISTRY[experiment_id](plan)
    elapsed = time.perf_counter() - started
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.txt"
    path.write_text(result.render() + "\n")
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "elapsed_s": round(elapsed, 3),
            "scale_plan": repr(plan),
            "rows": result.rows,
            "notes": result.notes,
        }
        (json_dir / f"{experiment_id}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
    print(f"[{elapsed:7.1f}s] {experiment_id} -> {path}")
    print(result.render())
    print()
    return result
