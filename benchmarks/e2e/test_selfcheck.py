"""Self-check of the end-to-end benchmark (outside tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs in ``--quick`` form in both passes; what is printed
is exactly what ``BENCHMARK.json`` names; streams are a function of the
seed; the blanks the layer table predicts hold; every run of a full
report has a process of its own; and the committed acceptance sets agree
within the bounds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import loadgen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_outcomes: dict[tuple[str, int], tuple[dict, str]] = {}


def outcome(workload: str, trace: int) -> tuple[dict, str]:
    """The result object and full stdout of one quick run, run once."""
    key = (workload, trace)
    if key not in _outcomes:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--trace", str(trace), "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        _outcomes[key] = (json.loads(done.stdout.strip().splitlines()[-1]), done.stdout)
    return _outcomes[key]


def layer(workload: str, name: str) -> float:
    return outcome(workload, 1)[0]["metrics"][name]["value"]


def test_spec_meets_the_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]]
    for listed in (SPEC["end_to_end"], SPEC["per_layer"]):
        for entry in listed:
            names.append(entry["name"])
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("higher", "lower"), entry
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    assert 0 < min(bounds.values()) and max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_and_prints_exactly_the_named_metrics(workload, trace):
    result, stdout = outcome(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in listed]
    for entry in listed:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        # ... and the human-readable listing names it with its unit.
        assert re.search(
            rf"^\s+{re.escape(entry['name'])}\s+\S+ {re.escape(entry['unit'])}\b",
            stdout, re.MULTILINE,
        ), entry["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_streams_are_a_function_of_the_seed():
    keys = [(i, i % 7, i % 11, i % 13, i % 17) for i in range(400)]
    makers = (
        lambda seed: loadgen.engine_stream(seed, keys, max_ops=2_000),
        lambda seed: loadgen.mixed_streams(seed, keys, 2, max_ops=1_000),
        lambda seed: loadgen.bulk_streams(seed, keys, batches=2, batch_rows=50, singles=200),
        lambda seed: loadgen.open_stream(seed, keys, 300),
        lambda seed: loadgen.sharded_streams(seed, 400, 2, max_ops=1_000),
    )
    for make in makers:
        assert make(5).sha256 == make(5).sha256
        assert make(5).sha256 != make(6).sha256


def test_victims_are_never_insert_sources():
    keys = [(i, i % 7, i % 11, i % 13, i % 17) for i in range(400)]
    streams = loadgen.mixed_streams(9, keys, 2, max_ops=2_000)
    doomed = {victim for client in streams.victims for victim in client}
    assert doomed and not (set(streams.victims[0]) & set(streams.victims[1]))
    for ops in streams.clients:
        for kind, arg in ops:
            if kind == "insert" and None not in arg[:-1]:
                assert tuple(arg[:-1]) not in doomed


def test_predicted_blanks_hold():
    assert layer("served_mem", "storage.segments.syncs") == 0
    for entry in SPEC["per_layer"]:
        if entry["name"].startswith(("sharding.", "server.")):
            assert layer("engine_enforce", entry["name"]) == 0, entry["name"]
    assert layer("served_durable", "storage.segments.syncs_per_commit") == pytest.approx(1.0, abs=0.05)
    assert layer("served_durable", "storage.wal.recover_s") > 0
    assert layer("sharded_mix", "sharding.coordinator.commits_2pc") > 0
    assert layer("sharded_mix", "sharding.coordinator.decision_syncs") == layer(
        "sharded_mix", "sharding.coordinator.commits_2pc")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_self_times_account_for_the_statement_spans(workload):
    outcome(workload, 1)
    document = json.loads(
        (ROOT / ".bench_build" / "e2e" / f"trace_{workload}.json").read_text())
    assert document["layer_share_of_statements"] == pytest.approx(1.0, abs=0.15)
    trees = [t for p in document["processes"] for t in p["trace"]["trees"]]
    assert trees and all(t["spans"][-1]["parent"] is None for t in trees)


def test_full_report_gives_every_run_a_process_of_its_own(tmp_path):
    """A traced engine pass leaves its wrappers behind and ``VmHWM``
    only rises: repeat 2 must not start where repeat 1 ended."""
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "engine_enforce",
         "--seed", "3", "--repeats", "2", "--trace", "1", "--quick",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    entry = json.loads(out.read_text())["workloads"]["engine_enforce"]
    assert entry["correct"] and not entry["failed"]
    assert len(set(entry["pids"])) == 2
    assert len(entry["metrics"]["insert_p50_ms"]["values"]) == 2


def test_an_untraced_engine_pass_refuses_a_traced_process(tmp_path):
    program = (
        "import sys, pathlib, run, tracer;"
        "tracer.install(tracer.Tracer());"
        "run.run_pass('engine_enforce', 3, 0.1, False, 1, pathlib.Path(sys.argv[1]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", program, str(tmp_path / "work")], cwd=HERE,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and "no tracer ran in" in done.stderr


def test_committed_acceptance_sets_agree(capsys):
    """Two sets of the same commit and seed agree within the bounds;
    a third seed passes the oracle with nothing failed."""
    results = HERE / "results"
    assert run.compare(
        str(results / "baseline.json"), str(results / "repeat.json"), SPEC) == 0
    assert "MISS" not in capsys.readouterr().out
    for name in ("baseline.json", "repeat.json", "other_seed.json"):
        report = json.loads((results / name).read_text())
        assert set(report["workloads"]) == set(run.WORKLOADS)
        for entry in report["workloads"].values():
            assert entry["correct"] and entry["failed"] == 0, name
    seeds = {
        name: json.loads((results / name).read_text())["environment"]["seed"]
        for name in ("baseline.json", "repeat.json", "other_seed.json")
    }
    assert seeds["baseline.json"] == seeds["repeat.json"] != seeds["other_seed.json"]


def test_compare_resolves_misses_and_noise(tmp_path, capsys):
    def report(ops_s, low, high, correct=True, failed=0):
        metrics = {
            entry["name"]: {"median": 1.0, "min": 1.0, "max": 1.0}
            for entry in SPEC["end_to_end"]
        }
        metrics["ops_s"] = {"median": ops_s, "min": low, "max": high}
        return {"workloads": {"served_mem": {
            "correct": correct, "failed": failed, "metrics": metrics}}}

    def verdict(a, b):
        paths = []
        for tag, body in (("a", a), ("b", b)):
            paths.append(tmp_path / f"{tag}.json")
            paths[-1].write_text(json.dumps(body))
        status = run.compare(str(paths[0]), str(paths[1]), SPEC)
        return status, capsys.readouterr().out

    assert verdict(report(100, 99, 101), report(99, 98, 100))[0] == 0
    status, out = verdict(report(100, 99, 101), report(70, 69, 71))
    assert status == 1 and "ops_s -30.0%" in out and "MISS" in out
    status, out = verdict(report(100, 60, 140), report(99, 98, 100))
    assert status == 0 and "unresolved" in out
    # Good numbers do not excuse a failed oracle or more failed ops.
    status, out = verdict(report(100, 99, 101), report(100, 99, 101, correct=False))
    assert status == 1 and "INCORRECT" in out
    status, out = verdict(report(100, 99, 101), report(100, 99, 101, failed=2))
    assert status == 1 and "failed 0 -> 2 MISS" in out
