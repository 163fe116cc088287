"""The chaos soak harness: ``kill -9`` the server until it proves itself.

``python -m repro chaos --seed N`` drives a multi-client MATCH PARTIAL
foreign-key workload against a *real* served process while a supervisor
kills it with SIGKILL and restarts it on a seeded schedule, optionally
through a :class:`~repro.testing.proxy.FaultProxy` that tears, drops and
delays wire traffic on the same seed.  After the storm it restarts the
server one final time and checks the ground truth:

* **no acked commit lost** — every mutation the server acknowledged is
  present in the recovered database;
* **no double application** — redelivered requests (the client retries
  under the same idempotency stamp) committed at most once: child ids
  are unique by construction, so a duplicate id is a smoking gun;
* **unknown outcomes are 0-or-1** — a request whose every delivery tore
  may or may not have committed, but never twice;
* **clean integrity after every recovery** — ``verify_integrity`` is
  run through the wire after each restart; a single dangling reference
  or stale index entry fails the soak.

Everything is seeded: the kill schedule, each worker's operation
stream, and the proxy's fault schedule all derive from ``--seed``, so a
failing run replays exactly.

The served schema (``serve --schema chaos``) is a parent/child pair
under MATCH PARTIAL with ON DELETE SET NULL over a Bounded structure —
the paper's enforcement hot path, so every recovered commit re-checks
the partial-RI machinery end to end.

``--shards N`` runs the same storm against a sharded deployment: N
``serve`` shard processes hash-partitioned on the FK prefix behind one
``coordinate`` router enforcing the foreign key across shards with
presumed-abort two-phase commit.  The kill schedule now picks a victim
per cycle — any shard *or the coordinator* — and the final judgement
adds two sharded verdicts: a deep cross-shard orphan scan (no child
references a parent no shard holds) and a two-phase drain (no
transaction left in-doubt once every process is back up).
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..server import (
    DeliveryUnknown,
    ReproClient,
    ServerError,
    TransactionTorn,
    WireError,
)
from .proxy import ChaosPolicy, FaultProxy

#: Parent grid: k1 in [0, N), k2 = k1 * 10 — known to every worker.
N_PARENTS = 16

#: Each worker owns a disjoint id block; ids are globally unique, so a
#: duplicate in the recovered heap can only mean double application.
_ID_BLOCK = 1_000_000


def build_chaos_database():
    """The deterministic schema+seed data the chaos server bootstraps.

    Must be identical on every restart: recovery restores heap contents
    from the durable log on top of this catalog (constraints, triggers
    and indexes are rebuilt here, not logged).
    """
    from ..constraints import ForeignKey, MatchSemantics, PrimaryKey, ReferentialAction
    from ..core.enforcement import EnforcedForeignKey
    from ..core.strategies import IndexStructure
    from ..storage.database import Database
    from ..storage.schema import Column, DataType

    db = Database("chaos")
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
    for i in range(N_PARENTS):
        db.insert("P", (i, i * 10))
    fk = ForeignKey(
        "fk_c_p", "C", ("k1", "k2"), "P", ("k1", "k2"),
        match=MatchSemantics.PARTIAL,
        on_delete=ReferentialAction.SET_NULL,
    )
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    return db


def build_chaos_shard_database(shard_index: int, shard_count: int):
    """One shard's slice of the chaos schema.

    Same tables as :func:`build_chaos_database` but *no local foreign
    key* — under sharding the child's witness may live on another
    process, so enforcement belongs to the coordinator's probe/pin
    protocol, not to any single shard's enforcement machinery.  Parent
    seed rows are filtered to the shard that owns them under the chaos
    catalog, so the union across shards is exactly the single-node grid.

    Unlike the single-node schema, ``C`` carries a primary key on
    ``id``.  It is load-bearing for isolation, not just hygiene: an
    in-flight 2PC insert must hold X on *some* key resource of its new
    row, or a concurrent cascade's SET-NULL pattern update can scan the
    heap and dirty-write the uncommitted row (single-node never hits
    this because the witness S-pin and the parent delete collide in one
    lock space; across shards the home insert is prepared before its
    remote pin exists).
    """
    from ..constraints import PrimaryKey
    from ..sharding import build_chaos_catalog
    from ..storage.database import Database
    from ..storage.schema import Column, DataType

    catalog = build_chaos_catalog(shard_count)
    db = Database(f"chaos-shard-{shard_index}")
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
    for i in range(N_PARENTS):
        if catalog.shard_for("P", {"k1": i, "k2": i * 10}) == shard_index:
            db.insert("P", (i, i * 10))
    return db


# ----------------------------------------------------------------------
# Report


@dataclass
class ChaosReport:
    """What the soak observed; ``ok`` is the pass/fail verdict."""

    seed: int
    cycles: int = 0
    kills: int = 0
    recoveries_verified: int = 0
    recoveries_dirty: int = 0
    ops_acked: int = 0
    ops_rejected: int = 0
    ops_unknown: int = 0
    pipelined_requests: int = 0
    txns_torn: int = 0
    client_reconnects: int = 0
    lost: list[int] = field(default_factory=list)
    resurrected: list[int] = field(default_factory=list)
    duplicated: list[int] = field(default_factory=list)
    proxy_faults: dict[str, int] = field(default_factory=dict)
    #: Sharded-mode verdicts (all zero in single-node runs).
    shards: int = 0
    orphans: int = 0
    stuck_in_doubt: int = 0
    kills_by_role: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            not self.lost
            and not self.resurrected
            and not self.duplicated
            and self.recoveries_dirty == 0
            and self.orphans == 0
            and self.stuck_in_doubt == 0
        )

    def render(self) -> str:
        topology = f", {self.shards} shards + coordinator" if self.shards else ""
        lines = [
            f"chaos soak (seed {self.seed}{topology}): "
            + ("PASS" if self.ok else "FAIL"),
            f"  kill -9 cycles: {self.kills}  "
            f"(recoveries verified clean: {self.recoveries_verified}, "
            f"dirty: {self.recoveries_dirty})",
            f"  ops acked: {self.ops_acked}  rejected: {self.ops_rejected}  "
            f"unknown outcome: {self.ops_unknown}  "
            f"transactions torn: {self.txns_torn}  "
            f"pipelined requests: {self.pipelined_requests}",
            f"  client reconnects: {self.client_reconnects}",
        ]
        if self.kills_by_role:
            by_role = ", ".join(
                f"{k}={v}" for k, v in sorted(self.kills_by_role.items())
            )
            lines.append(f"  kills by victim: {by_role}")
        if self.shards:
            lines.append(
                f"  cross-shard orphans: {self.orphans}  "
                f"transactions stuck in-doubt: {self.stuck_in_doubt}"
            )
        if self.proxy_faults:
            injected = ", ".join(
                f"{k}={v}" for k, v in sorted(self.proxy_faults.items())
            )
            lines.append(f"  wire faults injected: {injected}")
        if self.lost:
            lines.append(f"  LOST acked commits: {sorted(self.lost)[:20]}")
        if self.resurrected:
            lines.append(
                f"  RESURRECTED deleted rows: {sorted(self.resurrected)[:20]}"
            )
        if self.duplicated:
            lines.append(
                f"  DOUBLE-APPLIED ids: {sorted(self.duplicated)[:20]}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The supervised server process


class ServerSupervisor:
    """Runs a ``python -m repro`` child process and kill -9s it on cue.

    Defaults to the single-node ``serve --schema chaos`` command; the
    sharded soak passes explicit *argv* tails (shard ``serve`` commands
    and the ``coordinate`` router) through the same restart machinery.
    """

    def __init__(
        self,
        data_dir: Path,
        port: int,
        checkpoint_every: int,
        argv: list[str] | None = None,
        log_name: str = "server.log",
    ) -> None:
        self.data_dir = data_dir
        self.port = port
        self.checkpoint_every = checkpoint_every
        self.argv = argv
        self.proc: subprocess.Popen | None = None
        self._log = open(data_dir / log_name, "ab")

    def start(self, timeout: float = 20.0) -> None:
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        argv = self.argv if self.argv is not None else [
            "serve",
            "--port", str(self.port),
            "--schema", "chaos",
            "--data-dir", str(self.data_dir),
            "--checkpoint-every", str(self.checkpoint_every),
        ]
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self._await_listening(timeout)

    def _await_listening(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            assert self.proc is not None
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"chaos server exited with {self.proc.returncode} before "
                    f"listening; see {self.data_dir / 'server.log'}"
                )
            try:
                socket.create_connection(("127.0.0.1", self.port), 0.2).close()
                return
            except OSError:
                time.sleep(0.05)
        raise RuntimeError(f"chaos server not listening within {timeout}s")

    def kill9(self) -> None:
        """SIGKILL — no atexit, no flush, no goodbye."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
            self.proc = None

    def stop(self) -> None:
        self.kill9()
        self._log.close()


def _free_port() -> int:
    """Reserve an ephemeral port number to reuse across restarts."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# ----------------------------------------------------------------------
# Workers


class _Worker:
    """One seeded client: runs FK ops and records what the server acked."""

    def __init__(
        self, worker_id: int, seed: int, address: tuple[str, int],
        stop: threading.Event, snapshot_reads: bool = False,
    ) -> None:
        self.worker_id = worker_id
        self.rng = random.Random((seed << 8) | worker_id)
        self.address = address
        self.stop = stop
        #: Run the select slice of the mix as MVCC snapshot reads.
        self.snapshot_reads = snapshot_reads
        #: id -> True (acked present) / False (acked absent).
        self.expected: dict[int, bool] = {}
        #: ids whose final delivery outcome is unknown (0-or-1 allowed).
        self.unknown: set[int] = set()
        self.acked = 0
        self.rejected = 0
        self.unknown_ops = 0
        self.torn = 0
        self.reconnects = 0
        self.pipelined = 0
        self._next = worker_id * _ID_BLOCK
        self.thread = threading.Thread(
            target=self.run, name=f"chaos-worker-{worker_id}", daemon=True
        )

    def _fresh_id(self) -> int:
        self._next += 1
        return self._next

    def _values(self, child_id: int) -> list:
        """A child row; NULL FK components exercise MATCH PARTIAL."""
        k1: int | None = self.rng.randrange(N_PARENTS)
        k2: int | None = k1 * 10
        roll = self.rng.random()
        if roll < 0.2:
            k1 = None
        elif roll < 0.4:
            k2 = None
        elif roll < 0.45:
            k1, k2 = None, None
        return [child_id, k1, k2]

    def run(self) -> None:
        client = ReproClient(
            *self.address,
            client_id=f"chaos-{self.worker_id}",
            redeliveries=10,
            reconnect_attempts=40,
            reconnect_delay=0.05,
        )
        try:
            while not self.stop.is_set():
                roll = self.rng.random()
                try:
                    if roll < 0.35:
                        self._autocommit_insert(client)
                    elif roll < 0.45:
                        self._pipelined(client, "batch")
                    elif roll < 0.50:
                        self._pipelined(client, "insert")
                    elif roll < 0.65:
                        self._explicit_txn(client)
                    elif roll < 0.80:
                        self._delete_own(client)
                    elif roll < 0.92:
                        client.retrying(lambda: client.select(
                            "C", equals={"id": self.rng.randrange(self._next + 1)},
                            snapshot=self.snapshot_reads,
                        ))
                    else:
                        self._delete_parent(client)
                except DeliveryUnknown:
                    self.unknown_ops += 1
                except TransactionTorn:
                    self.torn += 1
                except ServerError:
                    self.rejected += 1
                except (WireError, OSError):
                    self.unknown_ops += 1  # reads/reconnects may still fail
        finally:
            self.reconnects = client.reconnects
            client.close()

    # -- individual ops -------------------------------------------------

    def _autocommit_insert(self, client: ReproClient) -> None:
        child_id = self._fresh_id()
        try:
            client.retrying(
                lambda: client.insert("C", self._values(child_id))
            )
        except DeliveryUnknown:
            self.unknown.add(child_id)
            raise
        except ServerError:
            self.expected[child_id] = False  # veto proves no commit
            raise
        self.expected[child_id] = True
        self.acked += 1

    def _pipelined(self, client: ReproClient, op: str) -> None:
        """A pipelined stream of vectorized ``batch`` inserts, or of
        single ``insert``s — which the server executes in runs, several
        requests to one statement and one commit.

        Every stamped request is on the wire before the first reply is
        read, so a kill -9 or proxy tear can land mid-pipeline and
        mid-run; ``drain()`` must then redeliver the unacknowledged tail
        under the original stamps and the ledger's replay window decides
        which requests already committed.  Each request is atomic: an ok
        reply means every row of it is present, an error reply means
        none is.
        """
        if op == "batch":
            requests = [
                [self._values(self._fresh_id())
                 for __ in range(self.rng.randrange(2, 5))]
                for __ in range(self.rng.randrange(2, 4))
            ]
        else:
            requests = [
                [self._values(self._fresh_id())]
                for __ in range(self.rng.randrange(2, 9))
            ]
        try:
            pipe = client.pipeline()
            for rows in requests:
                if op == "batch":
                    pipe.send("batch", table="C", rows=rows)
                else:
                    pipe.send("insert", table="C", values=rows[0])
            responses = pipe.drain()
        except (DeliveryUnknown, WireError, OSError):
            # The stream died past the client's redelivery budget; no
            # request in it has a knowable outcome any more.
            for rows in requests:
                self.unknown.update(row[0] for row in rows)
            raise
        for rows, response in zip(requests, responses):
            if response.get("ok"):
                for row in rows:
                    self.expected[row[0]] = True
                self.acked += len(rows)
                self.pipelined += 1
            else:
                for row in rows:
                    self.expected[row[0]] = False
                self.rejected += 1

    def _explicit_txn(self, client: ReproClient) -> None:
        ids = [self._fresh_id() for __ in range(self.rng.randrange(2, 4))]
        try:
            client.begin()
            for child_id in ids:
                client.insert("C", self._values(child_id))
            client.commit()
        except DeliveryUnknown:
            # Only the commit redelivers; its outcome is the txn's.
            self.unknown.update(ids)
            raise
        except TransactionTorn:
            for child_id in ids:
                self.expected[child_id] = False
            raise
        except ServerError:
            # Veto or replayed-commit-not-found: the txn rolled back.
            for child_id in ids:
                self.expected[child_id] = False
            try:
                client.rollback()
            except (ServerError, DeliveryUnknown, WireError, OSError):
                pass  # rollback-at-disconnect already covered it
            raise
        for child_id in ids:
            self.expected[child_id] = True
        self.acked += len(ids)

    def _delete_own(self, client: ReproClient) -> None:
        present = [i for i, alive in self.expected.items() if alive]
        if not present:
            return
        child_id = self.rng.choice(present)
        try:
            client.retrying(
                lambda: client.delete("C", equals={"id": child_id})
            )
        except DeliveryUnknown:
            self.unknown.add(child_id)
            self.expected.pop(child_id, None)
            raise
        self.expected[child_id] = False
        self.acked += 1

    def _delete_parent(self, client: ReproClient) -> None:
        """ON DELETE SET NULL cascade under fire; parent rows come back
        via a fresh insert so the grid never runs dry."""
        k1 = self.rng.randrange(N_PARENTS)
        client.retrying(
            lambda: client.delete("P", equals={"k1": k1, "k2": k1 * 10})
        )
        self.acked += 1
        try:
            client.retrying(lambda: client.insert("P", [k1, k1 * 10]))
            self.acked += 1
        except ServerError:
            self.rejected += 1  # another worker re-inserted it first


# ----------------------------------------------------------------------
# The soak


def run_chaos(
    seed: int,
    cycles: int = 25,
    clients: int = 4,
    data_dir: str | os.PathLike[str] | None = None,
    min_uptime_s: float = 0.4,
    max_uptime_s: float = 1.0,
    checkpoint_every: int = 32,
    wire_faults: bool = True,
    quick: bool = False,
    snapshot_reads: bool = False,
    shards: int = 0,
) -> ChaosReport:
    """Run the soak; returns the report (``report.ok`` is the verdict).

    *checkpoint_every* counts commits, and a pipelined run is one: 32
    keeps a few-second server lifetime crossing several checkpoints."""
    import shutil
    import tempfile

    if shards:
        return run_sharded_chaos(
            seed,
            shards=shards,
            cycles=cycles,
            clients=clients,
            data_dir=data_dir,
            min_uptime_s=min_uptime_s,
            max_uptime_s=max_uptime_s,
            checkpoint_every=checkpoint_every,
            wire_faults=wire_faults,
            quick=quick,
            snapshot_reads=snapshot_reads,
        )

    if quick:
        cycles = min(cycles, 5)
        clients = min(clients, 3)
        min_uptime_s, max_uptime_s = 0.3, 0.6

    rng = random.Random(seed)
    report = ChaosReport(seed=seed, cycles=cycles)
    owned_dir = data_dir is None
    root = Path(tempfile.mkdtemp(prefix="repro-chaos-")) if owned_dir else Path(data_dir)
    root.mkdir(parents=True, exist_ok=True)
    port = _free_port()
    supervisor = ServerSupervisor(root, port, checkpoint_every)
    proxy: FaultProxy | None = None
    stop = threading.Event()
    workers: list[_Worker] = []
    try:
        supervisor.start()
        client_address = ("127.0.0.1", port)
        if wire_faults:
            proxy = FaultProxy(
                ("127.0.0.1", port),
                ChaosPolicy(
                    seed,
                    drop_rate=0.004,
                    truncate_rate=0.004,
                    delay_rate=0.02,
                    garble_rate=0.002,
                    max_delay_s=0.01,
                ),
            ).start()
            client_address = proxy.address

        workers = [
            _Worker(w + 1, seed, client_address, stop, snapshot_reads)
            for w in range(clients)
        ]
        for worker in workers:
            worker.thread.start()

        for cycle in range(cycles):
            time.sleep(rng.uniform(min_uptime_s, max_uptime_s))
            supervisor.kill9()
            report.kills += 1
            if proxy is not None:
                proxy.kill_connections()
            supervisor.start()
            _verify_clean(port, report)

        stop.set()
        for worker in workers:
            worker.thread.join(30.0)

        # Final restart: the recovered state, not the warm one, is judged.
        supervisor.kill9()
        report.kills += 1
        supervisor.start()
        _verify_clean(port, report)
        _judge(port, workers, report)
    finally:
        stop.set()
        for worker in workers:
            if worker.thread.is_alive():
                worker.thread.join(5.0)
        if proxy is not None:
            report.proxy_faults = dict(proxy.faults)
            proxy.stop()
        supervisor.stop()
        if owned_dir:
            shutil.rmtree(root, ignore_errors=True)

    for worker in workers:
        report.ops_acked += worker.acked
        report.ops_rejected += worker.rejected
        report.ops_unknown += worker.unknown_ops
        report.txns_torn += worker.torn
        report.client_reconnects += worker.reconnects
        report.pipelined_requests += worker.pipelined
    return report


def _verify_clean(port: int, report: ChaosReport) -> None:
    """Run verify_integrity through the wire right after a recovery."""
    with ReproClient("127.0.0.1", port, reconnect_attempts=40) as client:
        verdict = client.verify()
    if verdict.get("clean"):
        report.recoveries_verified += 1
    else:
        report.recoveries_dirty += 1


def _judge(port: int, workers: list[_Worker], report: ChaosReport) -> None:
    """Compare the recovered heap against every worker's acked history."""
    with ReproClient("127.0.0.1", port, reconnect_attempts=40) as client:
        rows = client.select("C", columns=["id"])
    counts = Counter(row[0] for row in rows)
    for child_id, count in counts.items():
        if count > 1:
            report.duplicated.append(child_id)
    for worker in workers:
        for child_id, alive in worker.expected.items():
            if child_id in worker.unknown:
                continue
            present = counts.get(child_id, 0)
            if alive and present == 0:
                report.lost.append(child_id)
            elif not alive and present > 0:
                report.resurrected.append(child_id)


# ----------------------------------------------------------------------
# The sharded soak


def run_sharded_chaos(
    seed: int,
    shards: int = 3,
    cycles: int = 25,
    clients: int = 4,
    data_dir: str | os.PathLike[str] | None = None,
    min_uptime_s: float = 0.4,
    max_uptime_s: float = 1.0,
    checkpoint_every: int = 32,
    wire_faults: bool = True,
    quick: bool = False,
    snapshot_reads: bool = False,
) -> ChaosReport:
    """The chaos storm against N shard processes plus a coordinator.

    Per cycle the seeded schedule kill -9s one victim — a shard or the
    coordinator — and restarts it under load.  After the storm every
    process is killed and restarted cold, the two-phase state is drained
    (no in-doubt transaction, no queued decide, no in-flight gtid), a
    deep cross-shard orphan scan runs, and the per-worker acked history
    is judged against a scatter read through the coordinator.
    """
    import shutil
    import tempfile

    if quick:
        cycles = min(cycles, 5)
        clients = min(clients, 3)
        min_uptime_s, max_uptime_s = 0.4, 0.8

    rng = random.Random(seed)
    report = ChaosReport(seed=seed, cycles=cycles, shards=shards)
    owned_dir = data_dir is None
    root = Path(tempfile.mkdtemp(prefix="repro-chaos-")) if owned_dir else Path(data_dir)
    root.mkdir(parents=True, exist_ok=True)

    shard_ports = [_free_port() for __ in range(shards)]
    coord_port = _free_port()
    supervisors: list[ServerSupervisor] = []
    for index, port in enumerate(shard_ports):
        shard_dir = root / f"shard{index}"
        shard_dir.mkdir(parents=True, exist_ok=True)
        supervisors.append(ServerSupervisor(
            shard_dir, port, checkpoint_every,
            argv=[
                "serve",
                "--port", str(port),
                "--schema", "chaos",
                "--shard-index", str(index),
                "--shard-count", str(shards),
                "--data-dir", str(shard_dir),
                "--checkpoint-every", str(checkpoint_every),
                "--lock-timeout", "2.0",
            ],
        ))
    coord_dir = root / "coordinator"
    coord_dir.mkdir(parents=True, exist_ok=True)
    coordinator = ServerSupervisor(
        coord_dir, coord_port, checkpoint_every,
        argv=[
            "coordinate",
            "--port", str(coord_port),
            "--data-dir", str(coord_dir),
            "--shards", ",".join(f"127.0.0.1:{port}" for port in shard_ports),
        ],
    )

    def _kill(role: str) -> None:
        report.kills += 1
        report.kills_by_role[role] = report.kills_by_role.get(role, 0) + 1

    proxy: FaultProxy | None = None
    stop = threading.Event()
    workers: list[_Worker] = []
    try:
        for supervisor in supervisors:
            supervisor.start()
        coordinator.start()
        client_address = ("127.0.0.1", coord_port)
        if wire_faults:
            proxy = FaultProxy(
                ("127.0.0.1", coord_port),
                ChaosPolicy(
                    seed,
                    drop_rate=0.004,
                    truncate_rate=0.004,
                    delay_rate=0.02,
                    garble_rate=0.002,
                    max_delay_s=0.01,
                ),
            ).start()
            client_address = proxy.address

        workers = [
            _Worker(w + 1, seed, client_address, stop, snapshot_reads)
            for w in range(clients)
        ]
        for worker in workers:
            worker.thread.start()

        for cycle in range(cycles):
            time.sleep(rng.uniform(min_uptime_s, max_uptime_s))
            victim = rng.randrange(shards + 1)
            if victim == shards:
                coordinator.kill9()
                _kill("coordinator")
                if proxy is not None:
                    proxy.kill_connections()
                coordinator.start()
            else:
                supervisors[victim].kill9()
                _kill(f"shard{victim}")
                supervisors[victim].start()
            _sharded_verify(coord_port, report)

        stop.set()
        for worker in workers:
            worker.thread.join(30.0)

        # Cold judgement: every process goes down, the recovered cluster
        # must drain its two-phase state and come back referentially
        # whole on its own.
        coordinator.kill9()
        _kill("coordinator")
        for index, supervisor in enumerate(supervisors):
            supervisor.kill9()
            _kill(f"shard{index}")
        for supervisor in supervisors:
            supervisor.start()
        coordinator.start()
        report.stuck_in_doubt = _drain_two_phase(coord_port)
        report.orphans = _sharded_verify(coord_port, report, deep=True)
        _judge(coord_port, workers, report)
    finally:
        stop.set()
        for worker in workers:
            if worker.thread.is_alive():
                worker.thread.join(5.0)
        if proxy is not None:
            report.proxy_faults = dict(proxy.faults)
            proxy.stop()
        coordinator.stop()
        for supervisor in supervisors:
            supervisor.stop()
        if owned_dir:
            shutil.rmtree(root, ignore_errors=True)

    for worker in workers:
        report.ops_acked += worker.acked
        report.ops_rejected += worker.rejected
        report.ops_unknown += worker.unknown_ops
        report.txns_torn += worker.torn
        report.client_reconnects += worker.reconnects
        report.pipelined_requests += worker.pipelined
    return report


def _sharded_verify(
    port: int, report: ChaosReport, deep: bool = False
) -> int:
    """Scatter ``verify`` through the coordinator; returns orphan count.

    A shard mid-restart surfaces as a retryable ``TransientFault`` —
    retried here rather than counted dirty, because reachability is the
    supervisor's doing, not an integrity verdict.
    """
    with ReproClient("127.0.0.1", port, reconnect_attempts=40) as client:
        verdict = client.retrying(
            lambda: client.request("verify", deep=deep),
            attempts=10, max_delay=0.5,
        )
    if verdict.get("clean"):
        report.recoveries_verified += 1
    else:
        report.recoveries_dirty += 1
    return len(verdict.get("orphans") or [])


def _drain_two_phase(port: int, timeout_s: float = 60.0) -> int:
    """Wait for the recovered cluster to resolve its two-phase state.

    Returns 0 once no shard holds an in-doubt transaction, the
    coordinator has no queued decide and no in-flight gtid; otherwise
    the residue count at timeout — stuck in-doubt is a soak failure.
    """
    deadline = time.monotonic() + timeout_s
    residue = 1
    while time.monotonic() < deadline:
        try:
            with ReproClient("127.0.0.1", port, reconnect_attempts=40) as client:
                stats = client.stats()
        except (ServerError, DeliveryUnknown, WireError, OSError):
            time.sleep(0.25)
            continue
        coordinator = stats.get("coordinator") or {}
        residue = int(coordinator.get("in_flight") or 0)
        residue += int(coordinator.get("pending_decides") or 0)
        for shard in stats.get("shards") or []:
            if "unreachable" in shard:
                residue += 1
                continue
            residue += int((shard.get("twophase") or {}).get("in_doubt") or 0)
        if residue == 0:
            return 0
        time.sleep(0.25)
    return max(residue, 1)


# ----------------------------------------------------------------------
# CLI


def main(argv: list[str] | None = None) -> int:
    """``python -m repro chaos --seed N [--quick] [--cycles N] ...``"""
    argv = list(sys.argv[1:] if argv is None else argv)
    seed, cycles, clients, quick = 0, 25, 4, False
    data_dir: str | None = None
    wire_faults = True
    snapshot_reads = False
    shards = 0
    it = iter(argv)
    for arg in it:
        if arg == "--seed":
            seed = int(next(it, "0"))
        elif arg == "--cycles":
            cycles = int(next(it, "25"))
        elif arg == "--clients":
            clients = int(next(it, "4"))
        elif arg == "--shards":
            shards = int(next(it, "0"))
        elif arg == "--data-dir":
            data_dir = next(it, None)
        elif arg == "--no-proxy":
            wire_faults = False
        elif arg == "--quick":
            quick = True
        elif arg == "--snapshot-reads":
            snapshot_reads = True
        else:
            print(f"unknown chaos option {arg!r}", file=sys.stderr)
            return 1
    report = run_chaos(
        seed,
        cycles=cycles,
        clients=clients,
        data_dir=data_dir,
        wire_faults=wire_faults,
        quick=quick,
        snapshot_reads=snapshot_reads,
        shards=shards,
    )
    print(report.render())
    return 0 if report.ok else 1
