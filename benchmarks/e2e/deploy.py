"""Launcher for the systems under test.

``python deploy.py ROLE ...`` builds one process of a deployment through
the repo's public constructors, prints ``READY <port>`` and serves until
SIGTERM; then it writes its counters (and, with ``--trace``, the span
report of :mod:`tracer`) to ``--dump`` and shuts down cleanly.  SIGUSR1
writes the same dump without stopping.

Roles: ``server`` (one ``ReproServer`` over the synthetic dataset, with
or without ``--data-dir``), ``shard`` (one durable shard of the P/C
catalog) and ``coordinator`` (a ``ShardCoordinator`` over ``--shards``).
The dataset builders are also imported by ``run.py`` for the in-process
``engine_enforce`` workload, so every workload sees the same data.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
for entry in (str(SRC), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def build_cell(parent_rows: int, seed: int) -> Any:
    """The synthetic Bounded dataset of every single-node workload:
    5 columns, 1.5 children per parent, a quarter of them with NULL
    markers, MATCH PARTIAL, ON DELETE SET NULL."""
    from repro.bench.harness import prepare_cell
    from repro.core.strategies import IndexStructure
    from repro.workloads.synthetic import SyntheticConfig

    config = SyntheticConfig(
        n_columns=5, parent_rows=parent_rows, null_fraction=0.25, seed=seed
    )
    return prepare_cell(config, IndexStructure.BOUNDED)


def build_shard_database(index: int, count: int, parent_rows: int) -> Any:
    """One shard's slice of ``P(k1, k2 = 10 * k1)`` / ``C(id, k1, k2)``:
    the chaos catalog's shape (no local foreign key — the coordinator
    enforces it — and a primary key on ``C.id``) at a chosen size."""
    from repro.constraints import PrimaryKey
    from repro.sharding import build_chaos_catalog
    from repro.storage.database import Database
    from repro.storage.schema import Column, DataType

    catalog = build_chaos_catalog(count)
    db = Database(f"e2e-shard-{index}")
    db.create_table("P", [
        Column("k1", DataType.INTEGER, nullable=False),
        Column("k2", DataType.INTEGER, nullable=False),
    ])
    db.add_candidate_key(PrimaryKey("P", ("k1", "k2")))
    db.create_table("C", [
        Column("id", DataType.INTEGER, nullable=False),
        Column("k1", DataType.INTEGER),
        Column("k2", DataType.INTEGER),
    ])
    db.add_candidate_key(PrimaryKey("C", ("id",)))
    for k1 in range(parent_rows):
        if catalog.shard_for("P", {"k1": k1, "k2": k1 * 10}) == index:
            db.insert("P", (k1, k1 * 10))
    return db


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _server_counters(server: Any) -> dict[str, Any]:
    db = server.db
    wal = db.wal
    store = wal.store if wal is not None else None
    return {
        "server": server.stats.snapshot(),
        "locks": server.sessions.stats(),
        "twophase": server.twophase.stats_snapshot(),
        "cost": dict(db.tracker.counters),
        "wal_flushes": wal.flush_count if wal is not None else 0,
        "segment_syncs": store.sync_count if store is not None else 0,
        "recovery": (
            str(server.recovery_report)
            if server.recovery_report is not None else None
        ),
    }


def _since(now: Any, base: Any) -> Any:
    """*now* minus *base*, leaf by leaf, for nested dicts of numbers."""
    if isinstance(now, dict):
        return {key: _since(value, base.get(key)) for key, value in now.items()}
    if isinstance(now, (int, float)) and isinstance(base, (int, float)):
        return now - base
    return now


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("role", choices=("server", "shard", "coordinator"))
    parser.add_argument("--parents", type=int, default=0)
    parser.add_argument("--dataset-seed", type=int, default=0)
    parser.add_argument("--data-dir")
    parser.add_argument("--shard-index", type=int, default=0)
    parser.add_argument("--shard-count", type=int, default=1)
    parser.add_argument("--shards", default="")
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--dump", required=True)
    args = parser.parse_args(argv)

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    # A launcher that dies (killed on a timeout) must not leave its
    # systems under test behind.
    launcher = os.getppid()

    def follow_launcher() -> None:
        while os.getppid() == launcher:
            time.sleep(1.0)
        os._exit(3)

    threading.Thread(target=follow_launcher, daemon=True).start()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from repro.server import ReproServer

    counters: Any
    if args.role == "coordinator":
        from repro.sharding import ShardCoordinator, build_chaos_catalog

        addrs = []
        for spec in args.shards.split(","):
            host, __, port = spec.rpartition(":")
            addrs.append((host, int(port)))
        system = ShardCoordinator(
            build_chaos_catalog(len(addrs)), addrs, data_dir=args.data_dir
        )
        counters = lambda: {"coordinator": system.stats.snapshot()}  # noqa: E731
    else:
        if args.role == "server":
            db = build_cell(args.parents, args.dataset_seed).db
        else:
            db = build_shard_database(
                args.shard_index, args.shard_count, args.parents
            )
        system = ReproServer(db, data_dir=args.data_dir)
        counters = lambda: _server_counters(system)  # noqa: E731

    # SIGUSR1 writes the dump and keeps serving (the durable workload
    # needs the counters of a process it is about to SIGKILL); SIGTERM
    # writes it and shuts down.
    signals: queue.SimpleQueue[int] = queue.SimpleQueue()  # put() is reentrant
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGUSR1):
        signal.signal(signum, lambda received, _frame: signals.put(received))
    system.start()
    # Counters and spans are reported as what the run caused: building
    # the dataset (and, on a restart, recovery) is set-up, kept apart.
    baseline = counters()
    startup_spans = None
    if tracer is not None:
        startup_spans = tracer.report()["spans"]
        tracer.reset()
    print(f"READY {system.port}", flush=True)
    while True:
        received = signals.get()
        dump: dict[str, Any] = {"role": args.role, "pid": os.getpid()}
        dump.update(_since(counters(), baseline))
        dump["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            dump["trace"] = tracer.report()
            dump["startup_spans"] = startup_spans
        tmp = Path(args.dump + ".tmp")
        tmp.write_text(json.dumps(dump))
        os.replace(tmp, args.dump)
        if received != signal.SIGUSR1:
            break
    system.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
