"""Tests for the ``python -m repro`` command-line entry point."""

import json

import pytest

from repro.__main__ import main
from repro.bench import experiments
from repro.workloads import geneontology, tpcc, tpch


@pytest.fixture(autouse=True)
def results_dir(monkeypatch, tmp_path):
    """Experiment renderings land in a scratch directory, not the tree."""
    monkeypatch.setattr(experiments, "RESULTS_DIR", tmp_path / "results")
    return tmp_path / "results"


@pytest.fixture
def tiny(monkeypatch):
    """Every registry experiment in well under a second: a plan of a few
    rows and operations, and miniature benchmark databases."""
    monkeypatch.setenv("REPRO_SCALE", "100000")
    monkeypatch.setenv("REPRO_OPS", "4")
    monkeypatch.setenv("REPRO_QUICK", "1")
    small = {
        tpch: tpch.TpchConfig(parts=20, suppliers=5, lineitems=60),
        tpcc: tpcc.TpccConfig(warehouses=1, districts_per_warehouse=2,
                              customers_per_district=10, lines_per_order=2),
        geneontology: geneontology.GeneOntologyConfig(terms=40, edges=80),
    }
    for module, config in small.items():
        generate = module.generate
        monkeypatch.setattr(
            module, "generate", lambda __, g=generate, c=config: g(c)
        )


class TestCli:
    def test_help(self, capsys):
        assert main([]) == 0
        assert "repl" in capsys.readouterr().out

    def test_help_flag(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "unknown command" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "veto" in out
        assert "violations: 0" in out

    def test_experiments_list(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == list(experiments.REGISTRY)
        assert "table1" in listed and "prefix_compound" in listed

    def test_experiment_table9(self, capsys, results_dir):
        assert main(["experiment", "table9"]) == 0
        assert "TPC-H" in capsys.readouterr().out
        assert "TPC-H" in (results_dir / "table9.txt").read_text()

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "table99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment_id", ["read_mix", "tables6_7_8"])
    def test_result_ids_resolve(self, tiny, capsys, results_dir, experiment_id):
        assert main(["experiment", experiment_id]) == 0
        assert (results_dir / f"{experiment_id}.txt").exists()

    def test_all_writes_one_result_per_key_under_its_id(
        self, tiny, capsys, results_dir, tmp_path
    ):
        assert main(["experiment", "all", "--json", str(tmp_path / "json")]) == 0
        keys = sorted(experiments.REGISTRY)
        assert sorted(p.stem for p in results_dir.iterdir()) == keys
        for key in keys:
            payload = json.loads((tmp_path / "json" / f"{key}.json").read_text())
            assert payload["experiment_id"] == key

    def test_failed_expectation_fails_the_run(self, monkeypatch, capsys):
        def broken(plan):
            result = experiments.ExperimentResult("table9", "Broken", "text")
            result.expect(False, "held", "DID NOT HOLD!")
            return result

        monkeypatch.setitem(experiments.REGISTRY, "table9", broken)
        assert main(["experiment", "table9"]) == 1
        assert "failed expectations: table9" in capsys.readouterr().err
