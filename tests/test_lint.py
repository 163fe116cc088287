"""Tests for the repo-invariant lint (``repro.analysis.lint``).

Each rule is exercised against a seeded bad snippet in
``tests/lint_fixtures/`` (named without a ``test_`` prefix so pytest
never collects them), and the real engine tree is asserted clean.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _lint_fixture(name: str, module: str = "repro.query.fixture"):
    path = FIXTURES / name
    return lint.lint_source(path.read_text(), module, str(path))


# ----------------------------------------------------------------------
# One fixture per rule: exactly the seeded violations, nothing else.


def test_rpr001_unregistered_fire_point():
    violations = _lint_fixture("rpr001_unknown_point.py")
    assert [v.code for v in violations] == ["RPR001"]
    assert "dml.delete.mid_heap" in violations[0].message
    # The registered point on the line above must NOT be flagged.
    assert "dml.delete.pre" not in violations[0].message


def test_rpr002_private_attribute_pokes():
    violations = _lint_fixture("rpr002_lock_table_poke.py")
    assert [v.code for v in violations] == ["RPR002"] * 4
    attrs = {v.message.split("'")[1] for v in violations}
    assert attrs == {"_table", "_held", "_rows"}


def test_rpr002_owning_module_and_self_access_exempt():
    source = (FIXTURES / "rpr002_lock_table_poke.py").read_text()
    assert lint.lint_source(source, "repro.concurrency.locks") == [
        v for v in lint.lint_source(source, "repro.concurrency.locks")
        if v.code == "RPR002" and "_rows" in v.message
    ]  # lock attrs exempt in the owning module; heap's _rows still flagged
    assert lint.lint_source("self._table[key] = 1", "repro.query.dml") == []


def test_rpr003_wall_clock_and_random():
    violations = _lint_fixture("rpr003_wallclock.py")
    assert [v.code for v in violations] == ["RPR003"] * 2
    lines = {v.line for v in violations}
    assert 3 in lines  # import random
    assert 8 in lines  # time.time()
    # time.monotonic() on line 16 is allowed.
    assert 16 not in lines


def test_rpr003_bench_and_testing_exempt():
    source = (FIXTURES / "rpr003_wallclock.py").read_text()
    for module in ("repro.bench.measure", "repro.testing.faults",
                   "repro.workloads.generator"):
        assert lint.lint_source(source, module) == []


def test_rpr004_bare_except_and_swallowed_error():
    violations = _lint_fixture("rpr004_swallowed.py")
    assert [v.code for v in violations] == ["RPR004"] * 2
    assert "bare" in violations[0].message
    assert "swallowed" in violations[1].message
    # load_handled() increments a counter — not silent, not flagged.
    assert all(v.line < 27 for v in violations)


def test_rpr005_raw_mutation_outside_allowlist():
    violations = _lint_fixture("rpr005_raw_mutation.py")
    assert [v.code for v in violations] == ["RPR005"]
    assert ".delete_rid()" in violations[0].message


def test_rpr005_allowlisted_modules_exempt():
    source = (FIXTURES / "rpr005_raw_mutation.py").read_text()
    for module in ("repro.query.dml", "repro.storage.wal",
                   "repro.indexes.btree", "repro.workloads.loader"):
        assert lint.lint_source(source, module) == []


def test_rpr007_unguarded_socket_io():
    violations = _lint_fixture(
        "rpr007_unguarded_socket.py", module="repro.server.fixture"
    )
    assert [v.code for v in violations] == ["RPR007"] * 2
    assert ".sendall()" in violations[0].message
    assert ".recv()" in violations[1].message
    # Both flagged lines sit in unguarded_exchange; the fault-point and
    # settimeout shapes below it stay clean.
    assert all(v.line < 19 for v in violations)


def test_rpr007_only_applies_to_server_modules():
    source = (FIXTURES / "rpr007_unguarded_socket.py").read_text()
    assert lint.lint_source(source, "repro.testing.proxy") == []
    assert lint.lint_source(source, "repro.query.dml") == []


def test_rpr008_snapshot_path_read_lock():
    violations = _lint_fixture("rpr008_snapshot_read_lock.py")
    assert [v.code for v in violations] == ["RPR008"]
    assert "snapshot_read_rows" in violations[0].message
    assert "LockMode.IS" in violations[0].message
    # The 2PL read path and the X-mode call below it stay clean.
    assert violations[0].line < 14


def test_rpr009_unlogged_commit_ack():
    violations = _lint_fixture(
        "rpr009_unlogged_ack.py", module="repro.sharding.fixture"
    )
    assert [v.code for v in violations] == ["RPR009"] * 2
    assert "ack_committed" in violations[0].message
    assert "send_commit_decide" in violations[1].message
    # The guarded twins and the abort path below stay clean.
    assert all(v.line < 17 for v in violations)


def test_rpr009_only_applies_to_sharding_modules():
    source = (FIXTURES / "rpr009_unlogged_ack.py").read_text()
    assert lint.lint_source(source, "repro.server.coordinator") == []
    assert lint.lint_source(source, "repro.query.dml") == []


def test_rpr011_reply_without_settle():
    violations = _lint_fixture(
        "rpr011_unsettled_reply.py", module="repro.server.core"
    )
    assert [v.code for v in violations] == ["RPR011"] * 2
    assert "send_frame()" in violations[0].message
    assert "send_frames()" in violations[1].message
    # settle_then_reply below stays clean.
    assert all(v.line < 16 for v in violations)


def test_rpr011_only_applies_to_the_serving_core():
    # The client and the tests' raw sockets send frames too; only the
    # core answers requests, so only it owes a settle().
    source = (FIXTURES / "rpr011_unsettled_reply.py").read_text()
    assert lint.lint_source(source, "repro.server.client") == []
    assert lint.lint_source(source, "repro.sharding.coordinator") == []


def test_rpr008_versions_module_covered_entirely():
    # Inside repro.storage.versions every function is a snapshot path,
    # whatever its name — locked_read_rows gets flagged there too.
    source = (FIXTURES / "rpr008_snapshot_read_lock.py").read_text()
    violations = lint.lint_source(source, "repro.storage.versions")
    assert [v.code for v in violations] == ["RPR008"] * 2


# ----------------------------------------------------------------------
# Repo-level properties.


def test_engine_tree_is_lint_clean():
    assert lint.lint_paths(SRC) == []


def test_serving_core_holds_the_only_accept_loop():
    # RPR007 passes on core.py with no allowlist entry (the tree is
    # clean above); this pins that nothing beside it accepts.
    accepts = [
        path.relative_to(SRC).as_posix()
        for package in ("server", "sharding")
        for path in sorted((SRC / package).glob("*.py"))
        for line in path.read_text().splitlines()
        if ".accept()" in line
    ]
    assert accepts == ["server/core.py"]


def test_frame_reader_holds_the_only_recv():
    # Server and client both read through wire.FrameReader, so the
    # serving and sharding layers hold one recv call between them.
    recvs = [
        path.relative_to(SRC).as_posix()
        for package in ("server", "sharding")
        for path in sorted((SRC / package).glob("*.py"))
        for line in path.read_text().splitlines()
        if ".recv(" in line
    ]
    assert recvs == ["server/wire.py"]


def test_sharding_has_one_commit_ack_and_one_decision_write():
    # RPR009 (unmodified) checks every ack is paired with the decision
    # log; this pins that there is one 2PC driver to pair — one call
    # acks a commit and one call writes a decision, in one function.
    calls = [
        (path.name, node.func.attr)
        for path in sorted((SRC / "sharding").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("ack_committed", "record_decision")
    ]
    assert sorted(calls) == [
        ("coordinator.py", "ack_committed"),
        ("coordinator.py", "record_decision"),
    ]


def test_fixture_directory_trips_every_rule():
    codes = set()
    for path in sorted(FIXTURES.glob("*.py")):
        # The socket-guard, decision-log and settle rules are scoped to
        # the serving/sharding layers, so their fixtures lint under the
        # matching module names.
        if path.stem.startswith("rpr007"):
            package = "server"
        elif path.stem.startswith("rpr009"):
            package = "sharding"
        elif path.stem.startswith("rpr011"):
            package = "server.core"
        else:
            package = "query"
        for violation in lint.lint_source(
            path.read_text(), f"repro.{package}.{path.stem}", str(path)
        ):
            codes.add(violation.code)
    assert codes == {rule.code for rule in lint.RULES}


def test_rpr001_completeness_reports_unfired_points(tmp_path):
    # A tree that *has* a testing/faults.py but fires nothing: every
    # registered point must be reported as dead configuration.
    (tmp_path / "testing").mkdir()
    (tmp_path / "testing" / "faults.py").write_text("KNOWN = ()\n")
    violations = lint.lint_paths(tmp_path)
    from repro.testing.faults import KNOWN_POINTS

    assert len(violations) == len(KNOWN_POINTS)
    assert {v.code for v in violations} == {"RPR001"}
    assert all("fired nowhere" in v.message for v in violations)


def test_completeness_skipped_for_fixture_trees():
    # The fixture dir has no testing/faults.py, so the repo-level
    # completeness direction must not fire there.
    violations = lint.lint_paths(FIXTURES)
    assert all("fired nowhere" not in v.message for v in violations)
    assert violations  # per-module rules still ran


# ----------------------------------------------------------------------
# CLI behaviour (``python -m repro lint``).


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin"},
    )


def test_cli_exits_zero_on_engine_tree():
    proc = _run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violation(s)" in proc.stdout


def test_cli_exits_nonzero_on_fixture_dir():
    proc = _run_cli(str(FIXTURES))
    assert proc.returncode == 1
    for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
        assert code in proc.stdout


def test_cli_list_prints_rule_table():
    proc = _run_cli("--list")
    assert proc.returncode == 0
    for rule in lint.RULES:
        assert rule.code in proc.stdout


def test_in_process_main_matches_subprocess(capsys):
    assert lint.main([]) == 0
    assert lint.main([str(FIXTURES)]) == 1
    capsys.readouterr()
