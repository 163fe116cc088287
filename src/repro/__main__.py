"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``repl``                — the SQL shell (see examples/sql_repl.py)
* ``demo``                — the paper's Example 1 walked through end to end
* ``advisor N ROWS``      — rank index structures for an N-column FK
* ``experiment ID|all [--json DIR]``
                          — run one reproduction experiment (table1, fig9,
                            ...) or every one under the scale plan of
                            REPRO_SCALE / REPRO_OPS / REPRO_QUICK
                            (repro.bench.scale), print it and write
                            benchmarks/results/ID.txt (and DIR/ID.json);
                            exits non-zero if an expectation failed
* ``experiments``         — list the experiment ids
* ``verify``              — build the demo database, run a workload under
                            the write-ahead log, and print the integrity
                            report (heap ↔ index ↔ statistics ↔ constraints)
* ``bench [--check] [--out F]``
                          — the counter guard (repro.bench.hotpath):
                            runs every experiment under one fixed scale
                            plan and records the logical cost snapshot of
                            each measured operation stream; --out writes
                            them one per line, --check compares them with
                            the committed BENCH_hotpath.json and exits
                            non-zero on any drift
* ``lint [--list] [PATH ...]``
                          — the repository-invariant static lint
                            (repro.analysis.lint): table-driven AST
                            rules with stable RPR00x codes (fault-point
                            registry consistency, lock-table
                            encapsulation, determinism, error hygiene,
                            WAL-before-mutation, latch discipline).
                            Exits non-zero if any rule fires.
* ``serve [--host H] [--port P] [--demo] [--schema S] [--data-dir D]
          [--checkpoint-every N] [--shard-index I --shard-count N]
          [--lock-timeout S]``
                          — start the wire server (length-prefixed JSON
                            protocol; see repro.server).  --demo (or
                            --schema demo) preloads the Example 1 schema
                            and data; --schema chaos loads the soak
                            harness's FK pair.  --data-dir makes the WAL
                            file-backed: acked commits survive kill -9
                            and the server replays them on restart,
                            checkpointing every N commits (a pipelined
                            run or a batch is one commit) and collecting
                            MVCC versions every N ledgered requests.
                            --shard-index/--shard-count (with --schema
                            chaos) serve one shard's slice of the chaos
                            schema — no local FK, enforcement belongs to
                            the coordinator.  Ctrl-C stops it gracefully
                            (open transactions roll back).
* ``coordinate --shards H:P,H:P,... [--host H] [--port P] [--data-dir D]
               [--cascade-grace S]``
                          — start the shard coordinator/router
                            (repro.sharding): hash-partitions the chaos
                            schema over the given shard servers,
                            enforces the foreign key across shards with
                            snapshot witness probes and presumed-abort
                            two-phase commit, and logs commit decisions
                            durably under --data-dir so acked
                            cross-shard commits survive kill -9.
* ``chaos --seed N [--quick] [--cycles N] [--clients N] [--no-proxy]
          [--shards N]``
                          — the fault-tolerance soak
                            (repro.testing.chaos): seeded multi-client
                            FK workload while a supervisor kill -9s and
                            restarts the served process, with wire
                            faults injected by a TCP proxy.  Asserts no
                            acked commit lost, none applied twice, and
                            verify_integrity clean after every recovery.
                            --shards N runs the storm against N shard
                            processes behind a coordinator, additionally
                            asserting no cross-shard orphan and no
                            transaction stuck in-doubt after a cold
                            cluster restart.  Exits non-zero on any
                            violation.
"""

from __future__ import annotations

import sys

#: The paper's Example 1: tours and the bookings that partially
#: reference them under MATCH PARTIAL.
_EXAMPLE1_SCHEMA = """
    CREATE TABLE tour (tour_id TEXT NOT NULL, site_code TEXT NOT NULL,
        site_name TEXT, PRIMARY KEY (tour_id, site_code));
    CREATE TABLE booking (visitor_id INTEGER NOT NULL, tour_id TEXT,
        site_code TEXT, day TEXT,
        FOREIGN KEY (tour_id, site_code)
            REFERENCES tour (tour_id, site_code)
            MATCH PARTIAL ON DELETE SET NULL WITH STRUCTURE bounded);
    INSERT INTO tour VALUES ('GCG','OR','O''Reilly''s'),
        ('BRT','OR','O''Reilly''s'), ('BRT','MV','Movie World'),
        ('RF','BB','Binna Burra'), ('RF','OR','O''Reilly''s');
"""
_EXAMPLE1_BOOKINGS = """
    INSERT INTO booking VALUES (1001,'BRT','OR','Nov 21'),
        (1008, NULL, 'BB', 'Sep 5'), (1011, 'RF', NULL, 'Oct 5');
"""


def _run_repl() -> int:
    from .errors import ReproError
    from .sql import SqlSession

    session = SqlSession()
    print("repro SQL shell — MATCH PARTIAL supported. "
          "End statements with ';', 'quit' to exit.")
    buffer: list[str] = []
    while True:
        try:
            line = input("sql> " if not buffer else "...> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if line.strip().lower() in ("quit", "exit"):
            return 0
        buffer.append(line)
        if line.rstrip().endswith(";"):
            sql = "\n".join(buffer)
            buffer = []
            try:
                for result in session.execute(sql):
                    rendered = result.render()
                    if rendered:
                        print(rendered)
            except ReproError as exc:
                print(f"ERROR: {type(exc).__name__}: {exc}")


def _run_demo() -> int:
    from .constraints import check_database
    from .errors import ReferentialIntegrityViolation
    from .sql import SqlSession

    session = SqlSession()
    session.execute(_EXAMPLE1_SCHEMA + _EXAMPLE1_BOOKINGS)
    print("Example 1 loaded; partial referential integrity enforced "
          "(Bounded structure).")
    try:
        session.execute("INSERT INTO booking VALUES (1006,'BRF',NULL,'Sep 19')")
    except ReferentialIntegrityViolation as exc:
        print(f"veto: {exc}")
    print(session.execute_one("SELECT tour_id, site_code FROM booking").render())
    print(f"violations: {len(check_database(session.db))}")
    return 0


def _run_advisor(argv: list[str]) -> int:
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "examples" / "index_advisor.py"
    if not path.exists():
        print("examples/index_advisor.py not found", file=sys.stderr)
        return 1
    spec = importlib.util.spec_from_file_location("index_advisor", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    # Pass the arguments through explicitly; clobbering the process-wide
    # sys.argv would leak into anything else running in this interpreter.
    module.main(argv)
    return 0


def _run_experiment(argv: list[str]) -> int:
    from pathlib import Path

    from .bench import experiments
    from .bench.scale import default_plan

    name, rest = argv[0], argv[1:]
    json_dir = Path(rest[1]) if len(rest) == 2 and rest[0] == "--json" else None
    if rest and json_dir is None:
        print("usage: experiment ID|all [--json DIR]", file=sys.stderr)
        return 1
    if name != "all" and name not in experiments.REGISTRY:
        print(f"unknown experiment {name!r}; try one of:", file=sys.stderr)
        _list_experiments()
        return 1
    ids = list(experiments.REGISTRY) if name == "all" else [name]
    plan = default_plan()
    print(f"scale plan: {plan}")
    failed = [i for i in ids if experiments.run(i, plan, json_dir).failures]
    if failed:
        print(f"failed expectations: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _list_experiments() -> int:
    from .bench import experiments

    for experiment_id, fn in experiments.REGISTRY.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {experiment_id:16s} {doc}")
    return 0


def _run_verify() -> int:
    from .sql import SqlSession
    from .storage.wal import WriteAheadLog

    session = SqlSession()
    db = session.db
    db.attach_wal(WriteAheadLog())
    session.execute(
        _EXAMPLE1_SCHEMA + _EXAMPLE1_BOOKINGS
        + "DELETE FROM tour WHERE tour_id = 'BRT' AND site_code = 'MV';"
    )
    report = db.verify_integrity()
    print(report.render())
    print(f"wal: {len(db.wal)} durable records, "
          f"{db.wal.flush_count} flushes")
    return 0 if report.ok else 1


def _run_serve(argv: list[str]) -> int:
    import time

    from .server import ReproServer
    from .sql import SqlSession
    from .storage.database import Database

    host, port, schema = "127.0.0.1", 7654, None
    data_dir: str | None = None
    checkpoint_every: int | None = None
    shard_index: int | None = None
    shard_count: int | None = None
    lock_timeout: float | None = None
    it = iter(argv)
    for arg in it:
        if arg == "--host":
            host = next(it, host)
        elif arg == "--port":
            port = int(next(it, str(port)))
        elif arg == "--demo":
            schema = "demo"
        elif arg == "--schema":
            schema = next(it, None)
        elif arg == "--data-dir":
            data_dir = next(it, None)
        elif arg == "--checkpoint-every":
            checkpoint_every = int(next(it, "256"))
        elif arg == "--shard-index":
            shard_index = int(next(it, "0"))
        elif arg == "--shard-count":
            shard_count = int(next(it, "1"))
        elif arg == "--lock-timeout":
            lock_timeout = float(next(it, "2.0"))
        else:
            print(f"unknown serve option {arg!r}", file=sys.stderr)
            return 1
    if (shard_index is None) != (shard_count is None):
        print("--shard-index and --shard-count go together", file=sys.stderr)
        return 1

    # The catalog bootstrap must be deterministic when serving durably:
    # recovery replays heap contents over the schema built here.
    if schema == "chaos" and shard_index is not None:
        from .testing.chaos import build_chaos_shard_database

        assert shard_count is not None
        db = build_chaos_shard_database(shard_index, shard_count)
    elif schema == "chaos":
        from .testing.chaos import build_chaos_database

        db = build_chaos_database()
    else:
        db = Database("served")
        if schema == "demo":
            SqlSession(db).execute(_EXAMPLE1_SCHEMA)
        elif schema is not None:
            print(f"unknown schema {schema!r} (demo, chaos)", file=sys.stderr)
            return 1
    extra: dict = {}
    if lock_timeout is not None:
        extra["lock_timeout"] = lock_timeout
    server = ReproServer(
        db,
        host=host,
        port=port,
        data_dir=data_dir,
        checkpoint_every=checkpoint_every,
        **extra,
    )
    server.start()
    print(f"repro server listening on {server.host}:{server.port}"
          + (f" (schema {schema} loaded)" if schema else ""),
          flush=True)
    if server.recovery_report is not None:
        print(f"recovered durable state: {server.recovery_report}", flush=True)
    wal = server.db.wal
    if wal is not None and wal.torn_tail is not None:
        print(f"torn log tail truncated: {wal.torn_tail}", flush=True)
    print("Ctrl-C to stop (drains and rolls back open sessions).", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down...")
        rolled_back = server.shutdown()
        print(f"done; {rolled_back} open transaction(s) rolled back")
    return 0


def _run_coordinate(argv: list[str]) -> int:
    import time

    from .sharding import ShardCoordinator, build_chaos_catalog

    host, port = "127.0.0.1", 7655
    data_dir: str | None = None
    cascade_grace: float | None = None
    shard_addrs: list[tuple[str, int]] = []
    it = iter(argv)
    for arg in it:
        if arg == "--host":
            host = next(it, host)
        elif arg == "--port":
            port = int(next(it, str(port)))
        elif arg == "--data-dir":
            data_dir = next(it, None)
        elif arg == "--cascade-grace":
            cascade_grace = float(next(it, "2.0"))
        elif arg == "--shards":
            for spec in (next(it, "") or "").split(","):
                shard_host, __, shard_port = spec.strip().rpartition(":")
                if not shard_host or not shard_port.isdigit():
                    print(f"bad shard address {spec!r} (want host:port)",
                          file=sys.stderr)
                    return 1
                shard_addrs.append((shard_host, int(shard_port)))
        else:
            print(f"unknown coordinate option {arg!r}", file=sys.stderr)
            return 1
    if not shard_addrs:
        print("coordinate needs --shards host:port[,host:port...]",
              file=sys.stderr)
        return 1

    extra: dict = {}
    if cascade_grace is not None:
        extra["cascade_grace"] = cascade_grace
    coordinator = ShardCoordinator(
        build_chaos_catalog(len(shard_addrs)),
        shard_addrs,
        host=host,
        port=port,
        data_dir=data_dir,
        **extra,
    )
    coordinator.start()
    print(f"repro coordinator listening on {coordinator.host}:"
          f"{coordinator.port} over {len(shard_addrs)} shard(s)", flush=True)
    if coordinator.decisions.resumed:
        print(f"resumed decision log: {len(coordinator.decisions)} "
              "commit decision(s)", flush=True)
    print("Ctrl-C to stop.", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down...")
        coordinator.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "repl":
        return _run_repl()
    if command == "demo":
        return _run_demo()
    if command == "advisor":
        return _run_advisor(rest)
    if command == "experiment" and rest:
        return _run_experiment(rest)
    if command == "experiments":
        return _list_experiments()
    if command == "verify":
        return _run_verify()
    if command == "bench":
        from .bench.hotpath import main as bench_main

        return bench_main(rest)
    if command == "lint":
        from .analysis.lint import main as lint_main

        return lint_main(rest)
    if command == "serve":
        return _run_serve(rest)
    if command == "coordinate":
        return _run_coordinate(rest)
    if command == "chaos":
        from .testing.chaos import main as chaos_main

        return chaos_main(rest)
    print(f"unknown command {command!r}", file=sys.stderr)
    print(__doc__)
    return 1


if __name__ == "__main__":
    sys.exit(main())
