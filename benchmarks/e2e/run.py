"""The wall-clock reference benchmark: six workloads, one command.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints, as the last line of its standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Without ``--workload`` it runs
all six, ``--repeats`` times round-robin, each run in that same form in
a process of its own, and ``--out F`` writes the full report
(environment, every repeat, median/min/max per metric).
``--compare A.json B.json`` sets two such reports against the bounds.

See README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Scratch space inside the checkout (git-ignored): data directories of
#: running deployments, and the ``trace_<workload>.json`` files.
TRACE_DIR = ROOT / ".bench_build" / "e2e"

if not (SRC / "repro").is_dir() and __name__ == "__main__":
    sys.stderr.write(f"run.py: no engine source at {SRC}; nothing to measure\n")
    sys.exit(2)
for entry in (str(SRC), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import deploy  # noqa: E402
import loadgen  # noqa: E402
from loadgen import percentile  # noqa: E402

WORKLOADS = (
    "engine_enforce", "served_mem", "served_durable",
    "served_bulk", "served_open", "sharded_mix",
)

#: Parents of the synthetic dataset (1.5 children each).  The issue's
#: 20,000 scaled by one constant so that three set-ups, the measured
#: window, the oracle and a crash-restart fit the per-run budget.
PARENTS = 8_000
SHARD_PARENTS = 2_000
SHARDS = 3
CLIENTS = 2

#: The dataset is one fixed table (its generator's default seed); the
#: run's ``--seed`` drives the traffic.  Ten differently-seeded datasets
#: differed by 40% in insert cost alone (key domains, tree shapes and
#: the access path the first probe of each shape happens to fix), which
#: would drown any bound.
DATASET_SEED = 42

#: Times each workload's deployment is set up per run; ``setup_s`` is
#: the median.
SETUPS = 3

#: Unmeasured lead-in of every workload, seconds.
WARMUP_S = 0.4

#: served_open arrival rates, ops/s: 25% and 45% of served_durable's
#: ``ops_s`` (about 1,000/s) measured once on the commit that added the
#: benchmark, rounded to 50/s and frozen.  The issue's 60% (550/s) is
#: too near the knee for this sandbox: whenever the machine slows by a
#: third the server saturates, and one run in ten had a p50 of 159 ms.
#: Share of the window spent at each rate.
OPEN_RATES = (250.0, 450.0)
OPEN_SHARES = (0.375, 0.625)

#: Ops of the engine stream replayed on every set-up: their logical
#: counters must repeat bit for bit, and they warm the measured one.
ENGINE_PROBE_OPS = 510

FSYNC_POLICY = "one fsync per commit"


def load_spec() -> dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# Deployments


def _pin() -> int | None:
    """Pin this process — and, through ``--cpu``, every system under
    test — to ONE core; returns it (None when affinity cannot be set).

    The obvious topology, SUT on one core and generator on another,
    measures the hypervisor: every request and reply then wakes a halted
    virtual CPU on the other core, and how soon the host runs it is the
    largest run-to-run difference this sandbox has.  Interleaved over
    ten seeds, split pinning gave served_open a tail ratio spread of 51%
    (same core: 26%) and sharded_mix runs at 274 and 300 ops/s among
    330-400 (same core: none below 337), at a lower median.  Unpinned,
    two invocations of the same sharded run differed four-fold.
    """
    try:
        core = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError):
        return None
    return core


@dataclass
class _Process:
    role: str
    popen: subprocess.Popen
    dump_path: Path
    log_path: Path


class Deployment:
    """The subprocesses of one workload's system under test."""

    def __init__(
        self, workload: str, workdir: Path, trace: bool, cpu: int | None
    ) -> None:
        self.workload = workload
        self.workdir = workdir
        self.trace = trace
        self.cpu = cpu
        self.processes: list[_Process] = []
        self.address: tuple[str, int] = ("127.0.0.1", 0)
        self._serial = 0
        self._server_args: list[str] = []

    # -- process plumbing ------------------------------------------------

    def _spawn(self, role: str, *args: str) -> _Process:
        self._serial += 1
        stem = self.workdir / f"{role}-{self._serial}"
        command = [
            sys.executable, str(HERE / "deploy.py"), role,
            "--dump", str(stem) + ".json", *args,
        ]
        if self.cpu is not None:
            command += ["--cpu", str(self.cpu)]
        if self.trace:
            command.append("--trace")
        log_path = Path(str(stem) + ".log")
        with open(log_path, "w") as log:
            popen = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, text=True,
                cwd=str(ROOT),
            )
        process = _Process(role, popen, Path(str(stem) + ".json"), log_path)
        self.processes.append(process)
        return process

    @staticmethod
    def _await_ready(process: _Process, timeout: float = 90.0) -> int:
        assert process.popen.stdout is not None
        ready, __, __ = select.select([process.popen.stdout], [], [], timeout)
        line = process.popen.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            tail = process.log_path.read_text()[-2000:]
            raise RuntimeError(
                f"{process.role} did not come up (got {line!r}):\n{tail}"
            )
        return int(line.split()[1])

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Bring the deployment up, to its first answered ping."""
        durable = self.workload != "served_mem"
        self._serial += 1
        data = self.workdir / f"data-{self._serial}"
        if self.workload == "sharded_mix":
            shards = [
                self._spawn(
                    "shard", "--parents", str(SHARD_PARENTS),
                    "--shard-index", str(index), "--shard-count", str(SHARDS),
                    "--data-dir", str(data / f"shard{index}"),
                )
                for index in range(SHARDS)
            ]
            ports = [self._await_ready(shard) for shard in shards]
            front = self._spawn(
                "coordinator", "--data-dir", str(data / "coordinator"),
                "--shards", ",".join(f"127.0.0.1:{port}" for port in ports),
            )
        else:
            self._server_args = [
                "--parents", str(PARENTS), "--dataset-seed", str(DATASET_SEED),
            ]
            if durable:
                self._server_args += ["--data-dir", str(data)]
            front = self._spawn("server", *self._server_args)
        self._answer_ping(front)

    def _answer_ping(self, front: _Process) -> None:
        from repro.server import ReproClient

        self.address = ("127.0.0.1", self._await_ready(front))
        with ReproClient(*self.address) as client:
            client.ping()

    def _collect(self, process: _Process) -> dict[str, Any]:
        return json.loads(process.dump_path.read_text())

    def snapshot_dump(self, process: _Process) -> dict[str, Any]:
        """Ask a live process for its dump (SIGUSR1) and read it."""
        process.dump_path.unlink(missing_ok=True)
        process.popen.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while not process.dump_path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{process.role} wrote no dump")
            time.sleep(0.01)
        return self._collect(process)

    def crash_and_restart(self) -> dict[str, Any]:
        """SIGKILL the (single, durable) server and start it again on
        the same data directory.  Returns the killed process's last
        dump."""
        (victim,) = self.processes
        dump = self.snapshot_dump(victim)
        self.abort()
        self._answer_ping(self._spawn("server", *self._server_args))
        return dump

    def stop(self) -> list[dict[str, Any]]:
        """SIGTERM everything (front end first), wait for each process
        to end, and return their dumps."""
        stopping = list(reversed(self.processes))
        for process in stopping:
            process.popen.send_signal(signal.SIGTERM)
            try:
                # A process writes its dump first and then shuts down,
                # which takes 0.1-0.3 s; once in some 250 stops a server
                # hung in shutdown instead, and nothing here needs it
                # to end cleanly (every start has a fresh directory).
                process.popen.wait(5.0)
            except subprocess.TimeoutExpired:
                pass  # abort() below kills what did not stop
        self.abort()
        return [self._collect(process) for process in stopping]

    def abort(self) -> None:
        """Kill whatever still runs and wait until each process ended."""
        for process in self.processes:
            if process.popen.poll() is None:
                process.popen.kill()
            process.popen.wait()
            if process.popen.stdout is not None:
                process.popen.stdout.close()
        self.processes.clear()


# ----------------------------------------------------------------------
# One pass = set-ups + one measured window + the oracle


@dataclass
class Pass:
    """Everything one measured pass of one workload observed."""

    workload: str
    setup_s: list[float] = field(default_factory=list)
    windows: dict[str, loadgen.Window] = field(default_factory=dict)
    lateness: list[float] = field(default_factory=list)
    #: served_open: seconds of the 450/s phase with a request outstanding.
    busy_s: float = 0.0
    dumps: list[dict[str, Any]] = field(default_factory=list)
    restart_dump: dict[str, Any] | None = None
    problems: list[str] = field(default_factory=list)
    stream_sha256: str = ""
    ping_p50_ms: float = 0.0
    wire_bytes: int = 0
    peak_rss_mb: float = 0.0
    engine_cost: dict[str, int] = field(default_factory=dict)
    engine_trace: dict[str, Any] | None = None
    #: Core speed over the headline window, as a share of the reference
    #: speed; every reported time is multiplied and every rate divided
    #: by it (see ``loadgen.CoreClock``).
    speed: float = 1.0

    @functools.cached_property
    def samples(self) -> loadgen.Samples:
        """Every window's samples merged; read once the windows are final."""
        merged = loadgen.Samples()
        for window in self.windows.values():
            merged.merge(window.samples)
        return merged

    def time_setup(self, clock: loadgen.CoreClock, set_up: Any) -> Any:
        """Run *set_up* and record how long it took at reference speed."""
        begun = time.perf_counter()
        made = set_up()
        done = time.perf_counter()
        self.setup_s.append((done - begun) * clock.speed(begun, done))
        return made

    def close_window(self, clock: loadgen.CoreClock) -> None:
        """Take the core's speed over the headline window just measured."""
        head = _headline_window(self)
        self.speed = clock.speed(head.start, head.last)


def _row_accounting(
    children: list[list[Any]], parent_rows: list[list[Any]],
    samples: loadgen.Samples,
) -> list[str]:
    """Child count = seed rows + acknowledged inserts with every
    acknowledged payload present; every deleted parent gone and nothing
    else missing; no total child referencing a missing parent."""
    problems = []
    parents = {tuple(row[:-1]) for row in parent_rows}
    acknowledged = set(samples.inserted)
    expected = int(PARENTS * 1.5) + len(acknowledged)
    present = {row[-1] for row in children if row[-1] >= loadgen.PAYLOAD_BASE}
    if len(children) != expected or present != acknowledged:
        problems.append(
            f"{len(children)} children for {expected} expected; "
            f"{len(acknowledged - present)} acknowledged insert(s) missing, "
            f"{len(present - acknowledged)} unacknowledged present"
        )
    deleted = set(samples.deleted)
    if deleted & parents or len(parents) != PARENTS - len(deleted):
        problems.append("deleted parents survive or others vanished")
    dangling = sum(
        1 for row in children
        if None not in row[:-1] and tuple(row[:-1]) not in parents
    )
    if dangling:
        problems.append(f"{dangling} child(ren) reference a missing parent")
    return problems


def _check_single_node(
    address: tuple[str, int], samples: loadgen.Samples, label: str
) -> list[str]:
    """Wire ``verify`` clean, and the rows add up."""
    from repro.server import ReproClient

    with ReproClient(*address) as client:
        report = client.verify()
        problems = _row_accounting(
            client.select("C"), client.select("P"), samples)
    if not report["clean"]:
        problems.append(f"verify found {report['problem_count']} problem(s)")
    return [f"{label}: {problem}" for problem in problems]


def _check_sharded(address: tuple[str, int], samples: loadgen.Samples) -> list[str]:
    """Coordinator ``verify`` with the cross-shard orphan scan, no
    transaction left in doubt, and the same row accounting."""
    from repro.server import ReproClient

    problems = []
    with ReproClient(*address) as client:
        deadline = time.perf_counter() + 10.0
        while True:
            stats = client.stats()
            in_doubt = sum(
                shard.get("twophase", {}).get("in_doubt", 1)
                for shard in stats["shards"]
            )
            pending = stats["coordinator"]["pending_decides"]
            if not (in_doubt or pending) or time.perf_counter() > deadline:
                break
            time.sleep(0.05)
        if in_doubt or pending:
            problems.append(f"{in_doubt} in doubt, {pending} decides pending")
        report = client.request("verify", deep=True)
        if not report["clean"]:
            problems.append(
                f"coordinator verify: {report['problem_count']} problem(s), "
                f"{len(report['orphans'])} orphan(s)"
            )
        children = client.select("C")
        parents = {tuple(row) for row in client.select("P")}
    if sorted(row[0] for row in children) != sorted(samples.inserted):
        problems.append(
            f"{len(children)} children, {len(samples.inserted)} acknowledged"
        )
    deleted = set(samples.deleted)
    if deleted & parents or len(parents) != SHARD_PARENTS - len(deleted):
        problems.append("deleted parents survive or others vanished")
    gone_k1 = {key[0] for key in deleted}
    gone_k2 = {key[1] for key in deleted}
    if any(row[1] in gone_k1 or row[2] in gone_k2 for row in children):
        problems.append("a child still references a deleted parent")
    return problems


def _served_pass(
    workload: str, seed: int, seconds: float, traced: bool, setups: int,
    workdir: Path, clock: loadgen.CoreClock,
) -> Pass:
    from repro.server import ReproClient

    result = Pass(workload)
    deployment = Deployment(workload, workdir, traced, _pin())
    tally = [0]
    wrap = (lambda sock: loadgen.CountingSocket(sock, tally)) if traced else None
    try:
        for __ in range(setups - 1):
            result.time_setup(clock, deployment.start)
            deployment.stop()
        result.time_setup(clock, deployment.start)
        address = deployment.address
        result.ping_p50_ms = loadgen.ping_p50_ms(address)

        primed = None
        if workload == "sharded_mix":
            streams = loadgen.sharded_streams(seed, SHARD_PARENTS, CLIENTS)
        else:
            with ReproClient(*address) as client:
                keys = [tuple(row[:-1]) for row in client.select("P")]
            primed = loadgen.prime(address, keys)
            if workload == "served_bulk":
                streams = loadgen.bulk_streams(seed, keys)
            elif workload == "served_open":
                count = int(sum(
                    rate * (share * seconds + WARMUP_S)
                    for rate, share in zip(OPEN_RATES, OPEN_SHARES)
                )) + 1
                streams = loadgen.open_stream(seed, keys, count)
            else:
                streams = loadgen.mixed_streams(seed, keys, CLIENTS)
        result.stream_sha256 = streams.sha256

        if workload == "served_bulk":
            result.windows = {"mix": loadgen.bulk_load(
                address, streams, seconds, WARMUP_S, wrap_socket=wrap
            )}
        elif workload == "served_open":
            phases = loadgen.open_loop(
                address, streams,
                [(rate, share * seconds)
                 for rate, share in zip(OPEN_RATES, OPEN_SHARES)],
                WARMUP_S, wrap_socket=wrap,
            )
            result.windows = {"lo": phases[0].window, "hi": phases[1].window}
            result.lateness = [late for phase in phases for late in phase.lateness]
            result.busy_s = phases[1].busy_s
        else:
            result.windows = {"mix": loadgen.closed_loop(
                address, streams, seconds, WARMUP_S,
                sharded=workload == "sharded_mix", wrap_socket=wrap,
            )}
        result.close_window(clock)
        result.wire_bytes = tally[0]
        if primed is not None:
            _headline_window(result).samples.merge(primed)

        samples = result.samples
        if workload == "sharded_mix":
            result.problems += _check_sharded(address, samples)
        else:
            result.problems += _check_single_node(address, samples, "live")
        if workload == "served_durable":
            # Durability: kill -9, restart on the same directory, and
            # every acknowledged row must still be there.
            killed = deployment.crash_and_restart()
            result.problems += _check_single_node(
                deployment.address, samples, "after SIGKILL + restart"
            )
            result.restart_dump = deployment.stop()[0]
            result.dumps = [killed]
        else:
            result.dumps = deployment.stop()
        result.peak_rss_mb = sum(dump["peak_rss_mb"] for dump in result.dumps)
    finally:
        deployment.abort()
    return result


def _engine_pass(
    seed: int, seconds: float, traced: bool, setups: int, clock: loadgen.CoreClock,
) -> Pass:
    """engine_enforce runs in this process: ``dml`` straight on the
    dataset, the paper-table configuration."""
    from repro.server import wire

    import tracer as tracing

    result = Pass("engine_enforce")
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif tracing.installed():
        raise RuntimeError("an untraced pass needs a process no tracer ran in")
    streams = None
    probes: list[dict[str, int]] = []
    for __ in range(setups):
        cell = result.time_setup(
            clock, lambda: deploy.build_cell(PARENTS, DATASET_SEED))
        db = cell.db
        if streams is None:
            streams = loadgen.engine_stream(seed, cell.dataset.parent_keys)
            result.stream_sha256 = streams.sha256
        ops = streams.clients[0]
        before = db.tracker.snapshot()
        primed, __ = loadgen.engine_loop(
            db, loadgen.prime_ops(cell.dataset.parent_keys), 0, 3600.0)
        warm, position = loadgen.engine_loop(db, ops[:ENGINE_PROBE_OPS], 0, 3600.0)
        probes.append(db.tracker.snapshot().diff(before).as_dict())
    if any(probe != probes[0] for probe in probes):
        result.problems.append("logical counters differ between set-ups")
    result.engine_cost = probes[0]
    if tracer is not None:
        tracer.reset()
    before = db.tracker.snapshot()
    window, position = loadgen.engine_loop(db, ops, position, seconds)
    cost = db.tracker.snapshot().diff(before).as_dict()
    result.windows = {"mix": window}
    result.close_window(clock)
    for lead_in in (primed, warm):
        window.samples.inserted.extend(lead_in.samples.inserted)
        window.samples.deleted.extend(lead_in.samples.deleted)
        window.samples.failed += lead_in.samples.failed

    if not db.verify_integrity().ok:
        result.problems.append("verify_integrity is not clean")
    result.problems += _row_accounting(
        [wire.encode_row(row) for row in db.select("C")],
        [list(row) for row in db.select("P")], window.samples,
    )
    result.peak_rss_mb = deploy.peak_rss_mb()
    if tracer is not None:
        result.engine_trace = {"trace": tracer.report(), "cost": cost}
    return result


def run_pass(
    workload: str, seed: int, seconds: float, traced: bool, setups: int,
    workdir: Path,
) -> Pass:
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with loadgen.CoreClock() as clock:
            if workload == "engine_enforce":
                return _engine_pass(seed, seconds, traced, setups, clock)
            return _served_pass(
                workload, seed, seconds, traced, setups, workdir, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Metrics


def _ms(window: loadgen.Window | None, kind: str, q: float) -> float:
    """A percentile over the whole window, in ms (0 without a window).
    The sandbox's noise is multi-second shifts in CPU speed, not
    isolated stalls, so pooling the window (which blends the shifts)
    repeats better than a median of per-second percentiles (which flips
    between them)."""
    if window is None:
        return 0.0
    timed = window.samples.timed.get(kind, [])
    return percentile([latency for __, latency in timed], q) * 1e3


def _count(window: loadgen.Window | None, kind: str) -> int:
    return len(window.samples.timed.get(kind, [])) if window else 0


def _headline_window(result: Pass) -> loadgen.Window:
    """The window whose single inserts are the workload's headline."""
    for name in ("mix", "hi"):
        if name in result.windows:
            return result.windows[name]
    raise KeyError(result.workload)


def end_to_end(result: Pass) -> tuple[dict[str, float], dict[str, int]]:
    """The bounded metrics, defined on every workload and scaled to the
    reference core speed, and the sample count behind each percentile."""
    head = _headline_window(result)
    if result.workload == "served_bulk":
        # Rows acknowledged per second, single and batched together.
        ops_s = head.rate(
            _count(head, "insert") * loadgen.PIPELINE_DEPTH
            + _count(head, "batch") * loadgen.BATCH_ROWS)
    elif result.workload == "served_open":
        # The schedule fixes how many ops a second complete, so the rate
        # is taken over the time a request was outstanding: in a closed
        # loop that is the whole window, here it is what the server
        # would sustain were it kept busy, and it falls with any
        # regression long before the schedule saturates.
        ops_s = _count(head, "insert") / result.busy_s
    else:
        ops_s = head.rate(sum(len(v) for v in head.samples.timed.values()))
    metrics = {
        "setup_s": statistics.median(result.setup_s),
        "ops_s": ops_s / result.speed,
        "insert_p50_ms": _ms(head, "insert", 0.50) * result.speed,
        "peak_rss_mb": result.peak_rss_mb,
    }
    samples = {"insert_p50_ms": _count(head, "insert")}
    return metrics, samples


def loadgen_metrics(result: Pass) -> tuple[dict[str, float], dict[str, int]]:
    """What only the generator can see, measured untraced and scaled to
    the reference core speed like the end-to-end metrics: the op classes
    and phases that exist on some workloads only, and tails."""
    head = _headline_window(result)
    windows = result.windows
    every = [
        latency for window in windows.values()
        for values in window.samples.timed.values() for __, latency in values
    ]
    metrics: dict[str, float] = {
        "loadgen.stall_ops": sum(1 for latency in every if latency > loadgen.STALL_S),
        "loadgen.retries": result.samples.retries,
        "loadgen.late_p95_ms": percentile(result.lateness, 0.95) * 1e3,
        "loadgen.core_speed": result.speed,
    }
    samples: dict[str, int] = {}
    for stem, window, kind, q in (
        ("insert_p95_ms", head, "insert", 0.95),
        ("insert_p99_ms", head, "insert", 0.99),
        ("delete_p50_ms", head, "delete", 0.50),
        ("delete_p95_ms", head, "delete", 0.95),
        ("select_p50_ms", head, "select", 0.50),
        ("select_p95_ms", head, "select", 0.95),
        ("xshard_insert_p50_ms", head, "xinsert", 0.50),
        ("xshard_insert_p95_ms", head, "xinsert", 0.95),
        ("open_lo_p50_ms", windows.get("lo"), "insert", 0.50),
        ("open_hi_p50_ms", windows.get("hi"), "insert", 0.50),
        ("open_hi_p95_ms", windows.get("hi"), "insert", 0.95),
    ):
        metrics[f"loadgen.{stem}"] = _ms(window, kind, q) * result.speed
        samples[f"loadgen.{stem}"] = _count(window, kind)
    # served_bulk's samples are times per row / per pipelined insert.
    bulk = head if result.workload == "served_bulk" else None
    for stem, kind in (("batch_rows_s", "batch"), ("pipeline_ops_s", "insert")):
        metrics[f"loadgen.{stem}"] = _ratio(1e3, _ms(bulk, kind, 0.5) * result.speed)
        samples[f"loadgen.{stem}"] = _count(bulk, kind)
    return metrics, samples


class _Spans:
    """Span aggregates of a set of process dumps, summed by name."""

    def __init__(self, dumps: list[dict[str, Any]]) -> None:
        self._dumps = [dump for dump in dumps if dump.get("trace")]
        #: Self time some metric reported, and all there was.
        self.claimed_s = 0.0
        self.recorded_s = sum(
            span["self_s"] for dump in self._dumps
            for span in dump["trace"]["spans"].values()
        )

    def _sum(self, names: tuple[str, ...], key: str) -> float:
        return sum(
            dump["trace"]["spans"].get(name, {}).get(key, 0)
            for dump in self._dumps for name in names
        )

    def own(self, *names: str) -> float:
        """Summed self time of *names*; each name is asked for once."""
        seconds = self._sum(names, "self_s")
        self.claimed_s += seconds
        return seconds

    def calls(self, *names: str) -> int:
        return int(self._sum(names, "calls"))

    def counter(self, name: str) -> float:
        return sum(dump["trace"]["counters"].get(name, 0) for dump in self._dumps)

    def execute_p50_ms(self) -> float:
        """Median ``Session.execute`` span, pooled by count."""
        parts = [
            dump["trace"]["durations"].get("concurrency.session.execute")
            for dump in self._dumps
        ]
        parts = [part for part in parts if part]
        weight = sum(part["count"] for part in parts)
        if not weight:
            return 0.0
        return sum(part["p50_ms"] * part["count"] for part in parts) / weight


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: Pass, untraced: Pass) -> tuple[dict[str, float], float]:
    """Per-layer numbers of the traced pass: ``*_s`` are self times
    (seconds, summed over the deployment's processes), counts come from
    the processes' own counters.  Also returns the share of all recorded
    self time that these metrics report — 1.0 when every span the tracer
    opened feeds some row."""
    if traced.engine_trace is not None:
        data = [{"role": "server", **traced.engine_trace}]
    else:
        data = traced.dumps
    nodes = [dump for dump in data if dump["role"] != "coordinator"]
    fronts = [dump for dump in data if dump["role"] == "coordinator"]
    node, front = _Spans(nodes), _Spans(fronts)

    def stat(group: str, name: str, dumps: list[dict[str, Any]] = nodes) -> float:
        return sum(dump.get(group, {}).get(name, 0) for dump in dumps)

    head = _headline_window(traced)
    served = traced.workload != "engine_enforce"
    single = served and traced.workload != "sharded_mix"
    samples = traced.samples
    ops = max(1, samples.attempted)
    insert_p50 = _ms(head, "insert", 0.5)
    inserts = node.calls("query.dml.insert")
    deletes = node.calls("query.dml.delete")
    commits = node.calls("storage.wal.commit")
    syncs = sum(dump.get("segment_syncs", 0) for dump in nodes)
    written = node.counter("segment_bytes") + node.counter("checkpoint_bytes")
    batch_calls = node.calls("core.batch")
    batch_rows = loadgen.batch_rows_acknowledged(samples) if batch_calls else 0
    restart = traced.restart_dump or {}
    recover = (restart.get("startup_spans") or {}).get("storage.wal.recover", {})

    # How much of a traced insert's latency is the tracing itself; each
    # half at reference speed, so the core's drift between them cancels.
    plain_p50 = _ms(_headline_window(untraced), "insert", 0.5) * untraced.speed
    overhead = 1 - _ratio(plain_p50, insert_p50 * traced.speed)

    frame = 0.0
    if served:
        frame = loadgen.frame_us(
            {"op": "insert", "table": "C", "client": "e2e-0", "req": 12345,
             "values": [17, None, 23, 5, 11, loadgen.PAYLOAD_BASE]},
            {"ok": True, "rid": 12345},
        )
    metrics = {
        "loadgen.trace_overhead_share": overhead,
        "server.wire.frame_us": frame,
        "server.wire.bytes_per_op": traced.wire_bytes / ops if served else 0.0,
        "server.server.ping_p50_ms": traced.ping_p50_ms,
        "server.server.overhead_ms":
            insert_p50 - node.execute_p50_ms() if single else 0.0,
        "server.server.requests": stat("server", "requests"),
        "server.server.rejected": stat("server", "rejected"),
        "server.server.checkpoints": stat("server", "checkpoints"),
        "server.server.idempotent_replays": stat("server", "idempotent_replays"),
        "server.ledger.busy_s": node.own("server.ledger"),
        "server.ledger.calls": node.calls("server.ledger"),
        "concurrency.session.execute_s": node.own(
            "concurrency.session.execute", "concurrency.session.snapshot_select"),
        "concurrency.session.execute_calls": node.calls("concurrency.session.execute"),
        "concurrency.locks.acquire_s":
            node.own("concurrency.locks.acquire", "concurrency.locks.release_all"),
        "concurrency.locks.acquire_calls": node.calls("concurrency.locks.acquire"),
        "concurrency.locks.waits": stat("locks", "waits"),
        "concurrency.locks.wait_s": stat("locks", "wait_time_s"),
        "concurrency.locks.latch_wait_s": node.own("concurrency.locks.latch"),
        "concurrency.locks.deadlocks": stat("locks", "deadlocks"),
        "concurrency.locks.timeouts": stat("locks", "timeouts"),
        "concurrency.hooks.verify_s": node.own("concurrency.hooks.verify"),
        "concurrency.hooks.verify_calls": node.calls("concurrency.hooks.verify"),
        "concurrency.hooks.revalidate_s": node.own("concurrency.hooks.revalidate"),
        "query.dml.insert_self_s": node.own("query.dml.insert"),
        # ... with the SET NULL updates its cascade runs.
        "query.dml.delete_self_s": node.own(
            "query.dml.delete", "query.dml.delete_rid", "query.dml.update"),
        "query.dml.calls": inserts + deletes,
        "query.probes.busy_s": node.own("query.probes"),
        "query.probes.calls": node.calls("query.probes"),
        "query.probes.node_reads_per_insert": _ratio(
            node.counter("query.dml.insert.index_node_reads"), inserts),
        "query.probes.entries_scanned_per_delete": _ratio(
            node.counter("query.dml.delete.index_entries_scanned"), deletes),
        "query.probes.rows_examined": stat("cost", "rows_examined"),
        "triggers.framework.fire_self_s": node.own("triggers.framework.fire"),
        "triggers.framework.invocations": stat("cost", "trigger_invocations"),
        "triggers.framework.state_checks": stat("cost", "state_checks"),
        "core.batch.busy_s": node.own("core.batch"),
        "core.batch.rows_per_call": _ratio(batch_rows, batch_calls),
        "indexes.manager.maint_s": node.own("indexes.manager"),
        "indexes.manager.maint_ops": stat("cost", "index_maintenance_ops"),
        "indexes.btree.node_reads": stat("cost", "index_node_reads"),
        "indexes.btree.insert_run_calls": node.counter("btree_insert_run_calls"),
        "storage.versions.busy_s": node.own("storage.versions"),
        "storage.versions.prune_s": node.own("storage.versions.prune"),
        "storage.versions.version_count_end": stat("locks", "row_versions"),
        "storage.wal.commit_s": node.own(
            "storage.wal.log", "storage.wal.commit", "storage.wal.flush"),
        "storage.wal.commits": commits,
        "storage.wal.flushes": sum(dump.get("wal_flushes", 0) for dump in nodes),
        "storage.wal.checkpoint_s": node.own(
            "storage.wal.checkpoint", "storage.segments.write_checkpoint"),
        "storage.wal.checkpoints": node.calls("storage.wal.checkpoint"),
        "storage.wal.recover_s": recover.get("total_s", 0.0),
        "storage.segments.append_s": node.own("storage.segments.append"),
        "storage.segments.syncs": syncs,
        "storage.segments.syncs_per_commit": _ratio(syncs, commits),
        "storage.segments.bytes_per_row": _ratio(written, samples.row_bytes),
        "storage.segments.checkpoint_bytes": node.counter("checkpoint_bytes"),
        "sharding.coordinator.decision_log_s": front.own(
            "sharding.coordinator.decision_log", "storage.segments.append"),
        "sharding.coordinator.decision_syncs":
            front.calls("storage.segments.append"),
        "sharding.coordinator.hop_ms":
            insert_p50 - node.execute_p50_ms() if fronts else 0.0,
        "sharding.twophase.prepare_s": node.own("sharding.twophase.prepare"),
        "sharding.twophase.decide_s": node.own("sharding.twophase.decide"),
        "sharding.twophase.prepares": stat("twophase", "prepares"),
        "sharding.twophase.in_doubt_end": stat("twophase", "in_doubt"),
        "sharding.catalog.route_s": front.own("sharding.catalog.route"),
        "sharding.catalog.route_calls": front.calls("sharding.catalog.route"),
    }
    for name in ("one_phase", "commits_2pc", "aborts_2pc", "scatters",
                 "cascades", "replays"):
        metrics[f"sharding.coordinator.{name}"] = stat("coordinator", name, fronts)
    share = _ratio(
        node.claimed_s + front.claimed_s, node.recorded_s + front.recorded_s)
    return metrics, share


def trace_document(traced: Pass, share: float) -> dict[str, Any]:
    """``trace_<workload>.json``: per-process span aggregates and the
    first whole span trees, plus how much of the statement time the
    per-layer self times account for."""
    if traced.engine_trace is not None:
        processes = [{"role": "engine", **traced.engine_trace}]
    else:
        processes = list(traced.dumps)
    statement_s = sum(
        sum(process["trace"]["roots_s"].values()) for process in processes
    )
    if traced.restart_dump:
        # Listed for its recovery spans; it served only the oracle.
        processes.append({**traced.restart_dump, "role": "server (restarted)"})
    return {
        "workload": traced.workload,
        "statement_span_s": statement_s,
        "layer_share_of_statements": share,
        "processes": processes,
    }


# ----------------------------------------------------------------------
# Running workloads and reporting


def environment(seed: int) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    from repro.server.server import DEFAULT_CHECKPOINT_EVERY

    core = _pin()
    return {
        "git": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinning": f"everything on core {core}" if core is not None else "none",
        "load_average_1m": os.getloadavg()[0],
        "fsync_policy": FSYNC_POLICY,
        "checkpoint_every": DEFAULT_CHECKPOINT_EVERY,
        "open_rates_ops_s": list(OPEN_RATES),
        "core_clock_reference_ms": loadgen.CLOCK_REFERENCE_S * 1e3,
        "parents": PARENTS,
        "shard_parents": SHARD_PARENTS,
        "seed": seed,
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, setups: int,
) -> dict[str, Any]:
    """One run of one workload: the contract's result object, plus the
    sample counts and stream hash the full report keeps."""
    scratch = TRACE_DIR / f"{workload}-{os.getpid()}"
    if not trace:
        result = run_pass(workload, seed, seconds, False, setups, scratch)
        metrics, samples = end_to_end(result)
        passes = [result]
    else:
        # Half the window untraced (the generator's own numbers, and the
        # base the tracing overhead is measured against), half traced.
        plain = run_pass(workload, seed, seconds / 2, False, 1, scratch)
        traced = run_pass(workload, seed, seconds / 2, True, 1, scratch)
        metrics, samples = loadgen_metrics(plain)
        layers, share = layer_metrics(traced, plain)
        metrics.update(layers)
        passes = [plain, traced]
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        (TRACE_DIR / f"trace_{workload}.json").write_text(
            json.dumps(trace_document(traced, share)))
    problems = [p for result in passes for p in result.problems]
    problems += [e for result in passes for e in result.samples.errors[:3]]
    return {
        "correct": not problems,
        "attempted": sum(result.samples.attempted for result in passes),
        "failed": sum(result.samples.failed for result in passes),
        "metrics": metrics,
        "samples": samples,
        "problems": problems,
        "stream_sha256": passes[0].stream_sha256,
        "engine_cost": passes[0].engine_cost,
        "core_speed": passes[0].speed,
        "pid": os.getpid(),
    }


def contract_line(outcome: dict[str, Any], spec: dict[str, Any], trace: bool) -> str:
    """The last line the driver reads: exactly the four keys, every
    metric of the requested list with its unit."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return json.dumps({
        "correct": outcome["correct"],
        "attempted": max(1, outcome["attempted"]),
        "failed": outcome["failed"],
        "metrics": {
            entry["name"]: {
                "value": outcome["metrics"][entry["name"]], "unit": entry["unit"],
            }
            for entry in listed
        },
    })


def _print_outcome(
    workload: str, outcome: dict[str, Any], spec: dict[str, Any], trace: bool
) -> None:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    verdict = "correct" if outcome["correct"] else "INCORRECT"
    print(f"== {workload}: {outcome['attempted']} attempted, "
          f"{outcome['failed']} failed, {verdict}")
    print(f"   core speed {outcome['core_speed']:.3f} of the reference; times "
          "and rates below are scaled to it")
    for problem in outcome["problems"]:
        print(f"   problem: {problem}")
    for entry in listed:
        name = entry["name"]
        count = outcome["samples"].get(name)
        note = f"  (n={count})" if count is not None else ""
        print(f"   {name:<44}{outcome['metrics'][name]:>14.4f} {entry['unit']}{note}")


def _fresh_run(
    workload: str, args: argparse.Namespace, trace: bool
) -> dict[str, Any]:
    """One run in the driver's form, in a process of its own — the way
    the driver makes it.  A tracer cannot be taken out of a process it
    was installed in, and ``VmHWM`` only ever rises, so a run that
    shared a process with an earlier one would not measure the same
    thing.  The child prints its own listing."""
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    out = TRACE_DIR / f"outcome-{os.getpid()}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    if args.quick:
        command.append("--quick")
    sys.stdout.flush()
    try:
        subprocess.run(command, cwd=str(ROOT), check=True, timeout=600)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def full_report(args: argparse.Namespace, spec: dict[str, Any]) -> dict[str, Any]:
    """Every requested workload, ``--repeats`` times round-robin."""
    workloads = args.workload or list(WORKLOADS)
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in workloads}
    report: dict[str, Any] = {"environment": environment(args.seed),
                              "seconds": args.seconds, "repeats": args.repeats}
    for __ in range(args.repeats):
        for workload in workloads:
            outcome = _fresh_run(workload, args, False)
            if args.trace:
                traced = _fresh_run(workload, args, True)
                outcome["per_layer"] = traced["metrics"]
                outcome["correct"] = outcome["correct"] and traced["correct"]
                outcome["problems"] += traced["problems"]
            runs[workload].append(outcome)
    summary: dict[str, Any] = {}
    for workload, outcomes in runs.items():
        hashes = {outcome["stream_sha256"] for outcome in outcomes}
        costs = [outcome["engine_cost"] for outcome in outcomes]
        if len(hashes) != 1 or any(cost != costs[0] for cost in costs):
            for outcome in outcomes:
                outcome["correct"] = False
                outcome["problems"].append("stream or counters differ across repeats")
        summary[workload] = {
            "correct": all(outcome["correct"] for outcome in outcomes),
            "attempted": sum(outcome["attempted"] for outcome in outcomes),
            "failed": sum(outcome["failed"] for outcome in outcomes),
            "stream_sha256": sorted(hashes),
            "problems": [p for outcome in outcomes for p in outcome["problems"]],
            "pids": [outcome["pid"] for outcome in outcomes],
            "core_speed": [outcome["core_speed"] for outcome in outcomes],
            "metrics": {
                entry["name"]: _spread(
                    [outcome["metrics"][entry["name"]] for outcome in outcomes],
                    entry["unit"], outcomes[0]["samples"].get(entry["name"]),
                )
                for entry in spec["end_to_end"]
            },
        }
        if args.trace:
            summary[workload]["per_layer"] = {
                entry["name"]: _spread(
                    [outcome["per_layer"][entry["name"]] for outcome in outcomes],
                    entry["unit"], None,
                )
                for entry in spec["per_layer"]
            }
    report["workloads"] = summary
    return report


def _spread(values: list[float], unit: str, samples: int | None) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "unit": unit, "values": values,
    }
    if samples is not None:
        entry["samples_per_run"] = samples
    return entry


def compare(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    """B against A, per workload and end-to-end metric: the relative
    change of the median in the metric's worse direction, against its
    bound.  ``unresolved`` where either side's own repeats spread wider
    than the bound.  A workload that is incorrect on either side, or
    fails more operations in B than in A, is a miss whatever its
    numbers say.  Exit status 1 on any miss."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    missed = 0
    for workload in a:
        if workload not in b:
            continue
        cells = []
        if not (a[workload]["correct"] and b[workload]["correct"]):
            cells.append("INCORRECT")
            missed += 1
        if b[workload]["failed"] > a[workload]["failed"]:
            cells.append(
                f"failed {a[workload]['failed']} -> {b[workload]['failed']} MISS")
            missed += 1
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            one, two = a[workload]["metrics"][name], b[workload]["metrics"][name]
            change = _ratio(two["median"] - one["median"], one["median"])
            worse = change if entry["better"] == "lower" else -change
            noise = max(
                _ratio(side["max"] - side["min"], side["median"])
                for side in (one, two)
            )
            if worse > bound:
                verdict = "MISS"
                missed += 1
            elif noise > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            cells.append(f"{name} {change:+.1%}/{bound:.0%} {verdict}")
        print(f"{workload}: " + "; ".join(cells))
    print(f"{missed} miss(es)")
    return 1 if missed else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="a twentieth of the window and one set-up")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)

    _pin()
    single = args.workload is not None and len(args.workload) == 1
    if single and args.repeats == 1:
        # The driver's form: one workload, one run, one result line.
        workload = args.workload[0]
        outcome = run_workload(
            workload, args.seed,
            args.seconds / 20 if args.quick else args.seconds,
            bool(args.trace), 1 if args.quick else SETUPS)
        _print_outcome(workload, outcome, spec, bool(args.trace))
        print(f"   stream sha256 {outcome['stream_sha256']}")
        if args.out:
            Path(args.out).write_text(json.dumps(outcome) + "\n")
        print(contract_line(outcome, spec, bool(args.trace)), flush=True)
        return 0
    report = full_report(args, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    healthy = {
        name: entry["correct"] and not entry["failed"]
        for name, entry in report["workloads"].items()
    }
    print(json.dumps(healthy))
    return 0 if all(healthy.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
