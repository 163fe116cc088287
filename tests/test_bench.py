"""Unit tests for the benchmark harness (measure, scale, report, harness)."""

import os
from unittest import mock

import pytest

from repro.bench import harness
from repro.bench.measure import Measurement, measure_block, measure_ops
from repro.bench.report import format_series, format_table, format_value, ratio_note
from repro.bench.scale import PAPER_SIZES, ScalePlan, default_plan
from repro.core import IndexStructure
from repro.indexes.cost import CostTracker
from repro.workloads.synthetic import SyntheticConfig


class TestMeasurement:
    def test_empty(self):
        m = Measurement("x")
        assert m.avg_s == 0.0 and m.max_s == 0.0 and m.count == 0

    def test_stats(self):
        m = Measurement("x", [0.5, 1.5])
        assert m.avg_s == 1.0
        assert m.max_s == 1.5
        assert m.total_s == 2.0
        assert m.avg_ms == 1000.0

    def test_measure_ops(self):
        tracker = CostTracker()
        m = measure_ops("probe", lambda i: tracker.count("rows_examined", i),
                        [1, 2, 3], tracker)
        assert m.count == 3
        assert m.cost["rows_examined"] == 6
        assert m.cost_per_op("rows_examined") == 2.0

    def test_measure_block(self):
        m = measure_block("b", lambda: sum(range(100)))
        assert m.count == 1 and m.total_s >= 0.0

    def test_summary(self):
        m = measure_ops("probe", lambda i: None, [1])
        assert "probe" in m.summary()


class TestScalePlan:
    def test_default_plan_from_env(self):
        with mock.patch.dict(os.environ, {"REPRO_SCALE": "500",
                                          "REPRO_OPS": "80",
                                          "REPRO_QUICK": "1"}):
            plan = default_plan()
        assert plan.scale == 500
        assert plan.insert_ops == 80
        assert plan.quick
        assert plan.sizes == tuple(s // 500 for s in PAPER_SIZES[:3])

    def test_bad_env_falls_back(self):
        with mock.patch.dict(os.environ, {"REPRO_SCALE": "zebra"}):
            plan = default_plan()
        assert plan.scale == 1000

    def test_size_label(self):
        plan = ScalePlan(scale=1000, insert_ops=10, delete_ops=5, quick=False)
        assert plan.size_label(15_000) == "15M (15000)"
        assert len(plan.sizes) == len(PAPER_SIZES)

    def test_largest(self):
        plan = ScalePlan(scale=1000, insert_ops=10, delete_ops=5, quick=False)
        assert plan.largest == 100_000


class TestReport:
    def test_format_value(self):
        assert format_value(0.12345) == "0.1235"  # small floats: 4 dp
        assert format_value(12.345) == "12.35"
        assert format_value(1234.5) == "1234.5"
        assert format_value(7) == "7"

    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bbb"], [[1, 2.5], [300, 4]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert all("|" in line for line in lines[1:] if "-" not in line)

    def test_format_table_note(self):
        text = format_table("T", ["a"], [[1]], note="hello")
        assert "note: hello" in text

    def test_format_series_with_chart(self):
        text = format_series("F", ["1M", "3M"],
                             {"Hybrid": [1.0, 10.0], "Bounded": [0.5, 1.0]})
        assert "Hybrid" in text and "#" in text
        assert "log-scale" in text

    def test_ratio_note(self):
        assert "2.0x faster" in ratio_note("A", 1.0, "B", 2.0)
        assert ratio_note("A", 4.0, "B", 2.0).startswith("B is 2.0x")
        assert "A=0" in ratio_note("A", 0.0, "B", 2.0)


class TestHarness:
    CFG = SyntheticConfig(n_columns=2, parent_rows=200)

    def test_prepare_cell_partial(self):
        cell = harness.prepare_cell(self.CFG, IndexStructure.BOUNDED)
        assert cell.fk.match.value == "partial"
        assert cell.build.count == 1
        assert cell.load.total_s > 0
        assert len(cell.db.triggers) == 4

    def test_prepare_cell_simple_baseline(self):
        cell = harness.prepare_cell(self.CFG, IndexStructure.BOUNDED, simple=True)
        assert cell.fk.match.value == "simple"
        assert cell.efk.structure is IndexStructure.FULL
        assert len(cell.db.triggers) == 0

    def test_run_insert_cell(self):
        cell = harness.prepare_cell(self.CFG, IndexStructure.BOUNDED)
        before = cell.dataset.child_table.row_count
        m = harness.run_insert_cell(cell, count=10)
        assert m.count == 10
        assert cell.dataset.child_table.row_count == before + 10

    def test_run_delete_cell(self):
        cell = harness.prepare_cell(self.CFG, IndexStructure.BOUNDED)
        before = cell.dataset.parent_table.row_count
        m = harness.run_delete_cell(cell, count=5)
        assert m.count == 5
        assert cell.dataset.parent_table.row_count == before - 5

    def test_run_transaction_cell(self):
        cell = harness.prepare_cell(self.CFG, IndexStructure.HYBRID)
        ins, dele = harness.run_transaction_cell(cell, 20, 5)
        assert ins.count == 1 and dele.count == 1
        assert cell.db.active_transaction is None

    def test_structure_label(self):
        assert harness.structure_label(IndexStructure.BOUNDED) == "Bounded"
        assert harness.structure_label(IndexStructure.BOUNDED, simple=True) == (
            harness.SIMPLE_BASELINE
        )


class TestCounterGuard:
    def test_perturbed_charge_fails_naming_experiment_label_counter(
        self, monkeypatch
    ):
        from repro.bench import hotpath

        baseline = hotpath.load_baseline(["fig9"])
        snapshots = hotpath.record(["fig9"])
        assert hotpath.compare(snapshots, baseline) == []

        count = CostTracker.count

        def one_extra_state_check(self, name, amount=1):
            count(self, name, amount + (name == "state_checks"))

        monkeypatch.setattr(CostTracker, "count", one_extra_state_check)
        problems = hotpath.compare(hotpath.record(["fig9"]), baseline)
        assert problems
        assert problems[0] == "fig9 #2 'total': state_checks 30 -> 60"

    def test_snapshot_count_drift_is_named(self):
        from repro.bench import hotpath

        snapshot = ["fig9", "total", 30, {"state_checks": 30}]
        baseline = {"plan": repr(hotpath.PLAN), "snapshots": [snapshot]}
        assert hotpath.compare([snapshot, snapshot], baseline) == [
            "fig9: 2 snapshots, baseline 1"
        ]
        assert hotpath.compare([], baseline) == ["fig9: 0 snapshots, baseline 1"]


class TestExperimentPlumbing:
    def test_table9_static(self):
        from repro.bench.experiments import table9_benchmark_details

        result = table9_benchmark_details(default_plan())
        assert "TPC-H" in result.text
        assert "Gene Ontology" in result.text

    def test_small_sweep_and_render(self):
        from repro.bench import experiments

        plan = ScalePlan(scale=10_000, insert_ops=10, delete_ops=4, quick=True)
        result = experiments.table1_insertions(plan, n_columns=2)
        assert "Table 1" in result.text
        assert len(result.rows) == 3 * 7  # 3 sizes x (6 structures + simple)

    def test_prefix_compound_rows(self):
        from repro.bench import experiments

        plan = ScalePlan(scale=20_000, insert_ops=6, delete_ops=3, quick=True)
        result = experiments.prefix_compound_ablation(plan)
        assert any("21/31" in str(row) for row in result.text.splitlines())
