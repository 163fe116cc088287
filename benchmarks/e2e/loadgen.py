"""The load generator: seeded op streams, the drivers that replay them
against a deployment, and the statistics both passes report.

Everything a system under test receives is generated here from the run's
seed.  Delete victims are a reserved slice of the parent keys, disjoint
per client, that no insert derives its row from — so every insert is
valid by construction and any error reply that survives the retry loop
is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.states import apply_state, iter_null_states
from repro.errors import ReproError
from repro.server import ReproClient, ServerError, wire

#: Share of the parent keys reserved as delete victims.  It bounds the
#: stream length: a stream ends when its client's victims run out.
VICTIM_SHARE = 0.30

#: The closed-loop mix of served_mem and served_durable, by count.
SERVED_MIX = (("insert", 0.70), ("select", 0.25), ("delete", 0.05))

#: The sharded mix, by count.
SHARDED_MIX = (
    ("insert", 0.60), ("xinsert", 0.25), ("select", 0.10), ("delete", 0.05),
)

#: engine_enforce: one parent delete after this many child inserts.
ENGINE_INSERTS_PER_DELETE = 50

#: Parents (the first in key order) set aside for :func:`prime_ops` to
#: delete; no seeded stream inserts from or deletes them.
PRIME_VICTIMS = 4

#: served_bulk: requests per pipeline round, rows per ``batch`` op, and
#: how many of each make one cycle of the stream.
PIPELINE_DEPTH = 64
BATCH_ROWS = 1_000
CYCLE_ROUNDS = 4
CYCLE_BATCHES = 2

#: The client number bulk batches draw their payloads under (single
#: inserts use 0), so a payload says which path acknowledged it.
BATCH_CLIENT = 1

#: served_open: raw connections the schedule is dealt over.
OPEN_CONNECTIONS = 2

#: Share of generated child rows that carry NULL markers (as loaded).
NULL_FRACTION = 0.25

#: Payloads of generated child rows start here, above every seed row's.
PAYLOAD_BASE = 10_000_000

#: Retry budget for retryable server errors (deadlock victim, lock
#: timeout, serialization failure); the op's latency includes retries.
ATTEMPTS = 6

#: An op slower than this is a stall (``loadgen.stall_ops``).
STALL_S = 0.010

Op = tuple[str, Any]


# ----------------------------------------------------------------------
# Streams


@dataclass
class Streams:
    """Per-client op lists plus what the oracle needs to judge them."""

    clients: list[list[Op]]
    victims: list[list[tuple[int, ...]]]
    sha256: str


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


def _pick(rng: random.Random, mix: Sequence[tuple[str, float]]) -> str:
    roll = rng.random()
    for kind, share in mix:
        roll -= share
        if roll < 0:
            return kind
    return mix[-1][0]


class _RowMaker:
    """Child rows drawn like the loaded distribution: a surviving
    parent's key with a null state applied (total with probability
    ``1 - NULL_FRACTION``), and a payload unique to the row."""

    def __init__(
        self, rng: random.Random, sources: Sequence[tuple[int, ...]]
    ) -> None:
        self._rng = rng
        self._sources = sources
        self._states = list(iter_null_states(
            len(sources[0]), include_total=False, include_all_null=True
        ))
        self._made = 0

    def row(self, client: int, source: tuple[int, ...] | None = None) -> list[Any]:
        rng = self._rng
        key = source or self._sources[rng.randrange(len(self._sources))]
        if rng.random() < NULL_FRACTION:
            key = apply_state(key, self._states[rng.randrange(len(self._states))])
        self._made += 1
        payload = PAYLOAD_BASE + client * 1_000_000 + self._made
        return wire.encode_row(key) + [payload]


def prime_ops(parent_keys: Sequence[tuple[int, ...]]) -> list[Op]:
    """The same few ops before every seeded stream: one insert per null
    state and ``PRIME_VICTIMS`` parent deletes, from fixed keys.

    The engine's prepared probes fix their access path from the values
    of the first probe of each shape; left to the seeded stream, that
    choice made runs of different seeds differ two-fold in insert cost.
    Priming every shape with the same values pins one plan set for all
    seeds, so the seed varies the traffic and not the plans.
    """
    keys = sorted(tuple(k) for k in parent_keys)
    source = keys[PRIME_VICTIMS]
    states = [()] + list(iter_null_states(
        len(source), include_total=False, include_all_null=True
    ))
    ops: list[Op] = [
        ("insert", wire.encode_row(apply_state(source, state))
         + [PAYLOAD_BASE + 900_000 + i])
        for i, state in enumerate(states)
    ]
    ops.extend(("delete", list(victim)) for victim in keys[:PRIME_VICTIMS])
    return ops


def _split_keys(
    rng: random.Random, parent_keys: Sequence[tuple[int, ...]], clients: int
) -> tuple[list[tuple[int, ...]], list[list[tuple[int, ...]]]]:
    keys = sorted(tuple(k) for k in parent_keys)[PRIME_VICTIMS:]
    rng.shuffle(keys)
    reserved = int(len(keys) * VICTIM_SHARE)
    victims = [keys[i:reserved:clients] for i in range(clients)]
    return keys[reserved:], victims


def mixed_streams(
    seed: int, parent_keys: Sequence[tuple[int, ...]], clients: int,
    max_ops: int = 40_000,
) -> Streams:
    """served_mem / served_durable: 70% insert, 25% snapshot select of
    ``C`` by ``f1``, 5% parent delete, per client."""
    rng = random.Random(seed)
    sources, victims = _split_keys(rng, parent_keys, clients)
    rows = _RowMaker(rng, sources)
    streams: list[list[Op]] = []
    for client in range(clients):
        ops: list[Op] = []
        doomed = iter(victims[client])
        while len(ops) < max_ops:
            kind = _pick(rng, SERVED_MIX)
            if kind == "insert":
                ops.append(("insert", rows.row(client)))
            elif kind == "select":
                ops.append(("select", sources[rng.randrange(len(sources))][0]))
            else:
                victim = next(doomed, None)
                if victim is None:
                    break
                ops.append(("delete", list(victim)))
        streams.append(ops)
    return Streams(streams, victims, _digest(streams))


def engine_stream(
    seed: int, parent_keys: Sequence[tuple[int, ...]], max_ops: int = 100_000
) -> Streams:
    """engine_enforce: uniform child inserts, one parent delete after
    every ``ENGINE_INSERTS_PER_DELETE``."""
    rng = random.Random(seed)
    sources, victims = _split_keys(rng, parent_keys, 1)
    rows = _RowMaker(rng, sources)
    ops: list[Op] = []
    for victim in victims[0]:
        if len(ops) >= max_ops:
            break
        ops.extend(
            ("insert", rows.row(0)) for __ in range(ENGINE_INSERTS_PER_DELETE)
        )
        ops.append(("delete", list(victim)))
    return Streams([ops], victims, _digest(ops))


def bulk_streams(
    seed: int, parent_keys: Sequence[tuple[int, ...]],
    batches: int = 160, batch_rows: int = BATCH_ROWS, singles: int = 24_000,
    hot_parents: int = 20,
) -> Streams:
    """served_bulk: uniform single inserts for the pipeline rounds, and
    batches clustered on a few hot parents (they fit the B+ tree leaf
    cache and deduplicate witness probes) for the ``batch`` ops."""
    rng = random.Random(seed)
    sources, __ = _split_keys(rng, parent_keys, 1)
    rows = _RowMaker(rng, sources)
    single_ops: list[Op] = [("insert", rows.row(0)) for __ in range(singles)]
    hot = [sources[rng.randrange(len(sources))] for __ in range(hot_parents)]
    batch_ops: list[Op] = [
        ("batch", [
            rows.row(BATCH_CLIENT, hot[rng.randrange(hot_parents)])
            for __ in range(batch_rows)
        ])
        for __ in range(batches)
    ]
    streams = [single_ops, batch_ops]
    return Streams(streams, [[]], _digest(streams))


def open_stream(
    seed: int, parent_keys: Sequence[tuple[int, ...]], count: int
) -> Streams:
    """served_open: single inserts only; the schedule supplies the rest."""
    rng = random.Random(seed)
    sources, __ = _split_keys(rng, parent_keys, 1)
    rows = _RowMaker(rng, sources)
    ops: list[Op] = [("insert", rows.row(0)) for __ in range(count)]
    return Streams([ops], [[]], _digest(ops))


def sharded_streams(
    seed: int, parent_rows: int, clients: int, max_ops: int = 12_000
) -> Streams:
    """sharded_mix over ``P(k1, k2 = 10 * k1)`` / ``C(id, k1, k2)``:
    full-FK inserts co-locate with their parent (one-phase), inserts
    with a NULL component scatter-probe for a witness (2PC when it is
    remote), selects by ``id`` scatter, parent deletes cascade."""
    rng = random.Random(seed)
    sources, victims = _split_keys(
        rng, [(k,) for k in range(parent_rows)], clients
    )
    streams: list[list[Op]] = []
    for client in range(clients):
        ops: list[Op] = []
        ids: list[int] = []
        made = 0
        doomed = iter(victims[client])
        while len(ops) < max_ops:
            kind = _pick(rng, SHARDED_MIX) if ids else "insert"
            k1 = sources[rng.randrange(len(sources))][0]
            if kind in ("insert", "xinsert"):
                row_id = (client + 1) * 1_000_000 + made
                made += 1
                if kind == "insert":
                    # Selects look up one-phase rows only: a 2PC insert
                    # is acknowledged once its decision is durable, before
                    # the shards apply it, so a snapshot read right behind
                    # the ack may legitimately miss it.
                    ids.append(row_id)
                    row = [row_id, k1, k1 * 10]
                elif rng.random() < 0.5:
                    row = [row_id, k1, None]
                else:
                    row = [row_id, None, k1 * 10]
                ops.append((kind, row))
            elif kind == "select":
                ops.append(("select", ids[rng.randrange(len(ids))]))
            else:
                victim = next(doomed, None)
                if victim is None:
                    break
                ops.append(("delete", [victim[0], victim[0] * 10]))
        streams.append(ops)
    return Streams(
        streams, [[(v[0], v[0] * 10) for v in vs] for vs in victims],
        _digest(streams),
    )


# ----------------------------------------------------------------------
# Samples and statistics


@dataclass
class Samples:
    """What one driver thread observed: ``(completed_at, latency)`` per
    op class, plus the acknowledgements the oracle checks against."""

    timed: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    retries: int = 0
    inserted: list[int] = field(default_factory=list)
    deleted: list[tuple[int, ...]] = field(default_factory=list)
    row_bytes: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, kind: str, done: float, latency: float) -> None:
        self.timed.setdefault(kind, []).append((done, latency))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def merge(self, other: "Samples") -> None:
        for kind, values in other.timed.items():
            self.timed.setdefault(kind, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.retries += other.retries
        self.inserted.extend(other.inserted)
        self.deleted.extend(other.deleted)
        self.row_bytes += other.row_bytes
        self.errors.extend(other.errors)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


# ----------------------------------------------------------------------
# The speed of the core while a run is measured

#: :class:`CoreClock`: iterations of its loop, the pause between two
#: loops, and the CPU time one loop takes at reference speed (this
#: sandbox's core in its calm spells).
CLOCK_LOOP = 4_000
CLOCK_PAUSE_S = 0.04
CLOCK_REFERENCE_S = 0.200e-3


class CoreClock:
    """How fast the core everything is pinned to runs, while it runs it.

    This sandbox's core changes speed by up to a factor of two for
    seconds at a time (a neighbour on the host, not steal: CPU time
    stretches with wall time), and a twelve-second window lands in
    whatever mix it finds: the same engine run gave 3,390 and 5,080
    ops/s within one hour.  So a thread of the generator times the same
    small loop in its **own CPU time** twenty-five times a second — waiting
    for the core or the interpreter lock does not count, only how long
    the core took over the work — and every time and rate the generator
    reports is scaled to the reference speed by the mean over the
    interval it was measured in.  Over ten seeds that halves the
    interquartile spread and cuts the range to a third (README, "Core
    speed").  The loop takes 1% of the core.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="loadgen-clock", daemon=True)

    def __enter__(self) -> "CoreClock":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        cpu_time = time.thread_time
        while not self._stop.wait(CLOCK_PAUSE_S):
            # Twice, the second one counts: the first wakes a core that
            # had gone idle and refills its caches (an idle core read
            # 20% slow without it, which would tie the reading to how
            # busy the workload keeps the core).
            for __ in range(2):
                begun = cpu_time()
                total = 0
                for i in range(CLOCK_LOOP):
                    total += i * i % 7
                cost = cpu_time() - begun
            self._samples.append((time.perf_counter(), cost))

    def speed(self, start: float, end: float) -> float:
        """Mean speed between two ``perf_counter`` readings, as a share
        of the reference speed (1.0 when nothing was sampled)."""
        taken = [cost for at, cost in list(self._samples) if start <= at <= end]
        if not taken:
            return 1.0
        return CLOCK_REFERENCE_S / (sum(taken) / len(taken))


# ----------------------------------------------------------------------
# Closed-loop drivers


def retrying(samples: Samples, call: Callable[[], Any]) -> tuple[bool, Any]:
    """Run *call*, retrying retryable server errors; any other outcome
    but success is a failed op."""
    for attempt in range(ATTEMPTS):
        try:
            return True, call()
        except ServerError as exc:
            if not exc.retryable or attempt == ATTEMPTS - 1:
                samples.fail(f"{exc.error_type}: {exc}")
                return False, None
            samples.retries += 1
            time.sleep(exc.retry_after or 0.002 * (attempt + 1))
        except (ReproError, OSError) as exc:
            samples.fail(f"{type(exc).__name__}: {exc}")
            return False, None
    return False, None


def _json_bytes(value: Any) -> int:
    return len(json.dumps(value, separators=(",", ":")))


def _op(
    client: ReproClient, samples: Samples, kind: str, arg: Any, sharded: bool
) -> bool:
    """One op of a closed-loop mix, checked on the spot.  The two
    schemas differ in where a child row's identity sits (``payload``
    last, ``id`` first) and in what a select looks up."""
    if kind in ("insert", "xinsert"):
        ok, __ = retrying(samples, lambda: client.insert("C", arg))
        if ok:
            samples.inserted.append(arg[0] if sharded else arg[-1])
            samples.row_bytes += _json_bytes(arg)
        return ok
    if kind == "select" and sharded:
        ok, rows = retrying(samples, lambda: client.select(
            "C", equals={"id": arg}, snapshot=True
        ))
        wrong = ok and [row[0] for row in rows] != [arg]
    elif kind == "select":
        ok, rows = retrying(samples, lambda: client.select(
            "C", equals={"f1": arg}, limit=20, snapshot=True
        ))
        wrong = ok and (len(rows) > 20 or any(row[0] != arg for row in rows))
    else:
        keys = {f"k{i + 1}": value for i, value in enumerate(arg)}
        ok, count = retrying(samples, lambda: client.delete("P", equals=keys))
        wrong = ok and count != 1
        if ok and not wrong:
            samples.deleted.append(tuple(arg))
    if wrong:
        samples.fail(f"{kind} {arg} returned a wrong result")
        return False
    return ok


def prime(address: tuple[str, int], parent_keys: Sequence[tuple[int, ...]]) -> Samples:
    """Run :func:`prime_ops` against a served deployment, unmeasured."""
    samples = Samples()
    with ReproClient(*address, client_id="e2e-prime") as client:
        for kind, arg in prime_ops(parent_keys):
            _op(client, samples, kind, arg, sharded=False)
    return samples


@dataclass
class Window:
    """When measuring began, and what was observed from then on."""

    start: float
    samples: Samples

    @property
    def last(self) -> float:
        """When the last measured op completed."""
        return max(
            done for values in self.samples.timed.values() for done, __ in values)

    def rate(self, count: int) -> float:
        """*count* per second, from the start to the last completion."""
        return count / (self.last - self.start)


def closed_loop(
    address: tuple[str, int], streams: Streams, seconds: float,
    warmup: float, sharded: bool = False,
    wrap_socket: Callable[[socket.socket], Any] | None = None,
) -> Window:
    """One stop-and-wait client thread per stream, all released together.

    Each replays its stream — unmeasured for *warmup* seconds so caches
    fill and lazy set-up finishes, then measured for *seconds* (or until
    the stream ends).  Warm-up acknowledgements still count for the
    oracle; they just carry no latency sample.
    """
    count = len(streams.clients)
    barrier = threading.Barrier(count + 1)
    results = [Samples() for __ in range(count)]
    marks: dict[str, float] = {}

    def run(index: int) -> None:
        samples = results[index]
        with ReproClient(*address, client_id=f"e2e-{index}") as client:
            if wrap_socket is not None:
                client._sock = wrap_socket(client._sock)
            barrier.wait()
            measure_from = marks["start"]
            deadline = marks["end"]
            for kind, arg in streams.clients[index]:
                begun = time.perf_counter()
                if begun >= deadline:
                    break
                ok = _op(client, samples, kind, arg, sharded)
                done = time.perf_counter()
                if begun >= measure_from:
                    samples.attempted += 1
                    if ok:
                        samples.add(kind, done, done - begun)
                elif not ok:
                    samples.attempted += 1

    threads = [
        threading.Thread(target=run, args=(i,), name=f"loadgen-{i}")
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    now = time.perf_counter()
    marks["start"] = now + warmup
    marks["end"] = now + warmup + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    merged = Samples()
    for samples in results:
        merged.merge(samples)
    return Window(marks["start"], merged)


def batch_rows_acknowledged(samples: Samples) -> int:
    """Rows of *samples* that ``batch`` ops inserted."""
    floor = PAYLOAD_BASE + BATCH_CLIENT * 1_000_000
    return sum(1 for payload in samples.inserted if payload >= floor)


def bulk_load(
    address: tuple[str, int], streams: Streams, seconds: float, warmup: float,
    wrap_socket: Callable[[socket.socket], Any] | None = None,
) -> Window:
    """served_bulk, one client, one cycle over and over until the window
    closes: ``CYCLE_ROUNDS`` pipeline rounds of ``PIPELINE_DEPTH`` single
    inserts, then ``CYCLE_BATCHES`` ``batch`` ops of ``BATCH_ROWS`` rows.

    The cycle is fixed by count, so the n-th round meets a table of the
    same size however fast the machine ran before it; and both classes
    are sampled across the whole window, not one in its first part and
    one in its last, so a slow spell of the machine lands on both.
    Samples are amortised times: per insert of a round, per row of a
    batch.
    """
    depth = PIPELINE_DEPTH
    singles, batches = streams.clients
    samples = Samples()
    with ReproClient(*address, client_id="e2e-bulk") as client:
        if wrap_socket is not None:
            client._sock = wrap_socket(client._sock)
        start = time.perf_counter() + warmup
        deadline = start + seconds

        def pipeline_round(rows: list[list[Any]]) -> None:
            begun = time.perf_counter()
            pipeline = client.pipeline()
            for row in rows:
                pipeline.send("insert", table="C", values=row)
            replies = pipeline.drain()
            done = time.perf_counter()
            measured = begun >= start
            if measured:
                samples.attempted += depth
            for row, reply in zip(rows, replies):
                if reply.get("ok"):
                    samples.inserted.append(row[-1])
                    samples.row_bytes += _json_bytes(row)
                else:
                    if not measured:
                        samples.attempted += 1
                    samples.fail(f"pipelined insert: {reply.get('error')}")
            if measured and all(reply.get("ok") for reply in replies):
                samples.add("insert", done, (done - begun) / depth)

        def batch(rows: list[list[Any]]) -> None:
            begun = time.perf_counter()
            measured = begun >= start
            failed = samples.failed
            ok, rids = retrying(samples, lambda: client.batch_insert("C", rows))
            done = time.perf_counter()
            if ok and len(rids) != len(rows):
                samples.fail(f"batch acknowledged {len(rids)} of {len(rows)} rows")
            if measured or samples.failed > failed:
                samples.attempted += 1
            if samples.failed == failed:
                samples.inserted.extend(row[-1] for row in rows)
                samples.row_bytes += _json_bytes(rows)
                if measured:
                    samples.add("batch", done, (done - begun) / len(rows))

        def ops() -> Any:
            cycles = min(
                len(singles) // (depth * CYCLE_ROUNDS),
                len(batches) // CYCLE_BATCHES,
            )
            for cycle in range(cycles):
                for index in range(cycle * CYCLE_ROUNDS, (cycle + 1) * CYCLE_ROUNDS):
                    rows = singles[index * depth:(index + 1) * depth]
                    yield pipeline_round, [arg for __, arg in rows]
                first = cycle * CYCLE_BATCHES
                for __, rows in batches[first:first + CYCLE_BATCHES]:
                    yield batch, rows

        for op, rows in ops():
            if time.perf_counter() >= deadline:
                break
            op(rows)
    return Window(start, samples)


# ----------------------------------------------------------------------
# Open loop


@dataclass
class OpenPhase:
    window: Window
    #: How late each request left the generator, against its due time.
    lateness: list[float]
    #: Seconds during which at least one request was outstanding.
    busy_s: float = 0.0


def open_loop(
    address: tuple[str, int], streams: Streams,
    phases: Sequence[tuple[float, float]], warmup: float,
    wrap_socket: Callable[[socket.socket], Any] | None = None,
) -> list[OpenPhase]:
    """Send single inserts on a fixed schedule, whatever the replies do.

    One sender thread walks the schedule (``(rate, seconds)`` per phase)
    round-robin over ``OPEN_CONNECTIONS`` raw sockets; one receiver thread
    matches replies by their echoed ``id``.  Latency runs from the
    moment a request was **due**, so a stall is charged to every request
    it delayed, and how late the generator itself ran is reported
    beside it.
    """
    connections = OPEN_CONNECTIONS
    ops = streams.clients[0]
    # Warm-up: a short stretch at the first phase's rate, not reported.
    plan = [(phases[0][0], warmup, None)] + [
        (rate, seconds, index) for index, (rate, seconds) in enumerate(phases)
    ]
    due: list[float] = []
    phase_of: list[int | None] = []
    starts = [0.0] * len(phases)
    offset = 0.0
    for rate, seconds, index in plan:
        count = int(rate * seconds)
        if index is not None:
            starts[index] = offset
        due.extend(offset + i / rate for i in range(count))
        phase_of.extend([index] * count)
        offset += seconds
    total = min(len(due), len(ops))
    socks: list[Any] = []
    for __ in range(connections):
        sock = socket.create_connection(address, 5.0)
        sock.settimeout(30.0)
        socks.append(wrap_socket(sock) if wrap_socket is not None else sock)
    sent_late = [0.0] * total
    done_at = [0.0] * total
    ok_flags = [False] * total
    errors: list[str] = []
    epoch = time.perf_counter() + 0.05

    send_failed = threading.Event()

    def send() -> None:
        per_conn = [0] * connections
        try:
            for i in range(total):
                wait = epoch + due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                conn = i % connections
                per_conn[conn] += 1
                sent_late[i] = max(0.0, time.perf_counter() - epoch - due[i])
                wire.send_frame(socks[conn], {
                    "op": "insert", "table": "C", "values": ops[i][1], "id": i,
                    "client": f"e2e-open-{conn}", "req": per_conn[conn],
                })
        except (ReproError, OSError) as exc:
            errors.append(f"sender stopped: {exc}")
            send_failed.set()

    def receive() -> None:
        selector = selectors.DefaultSelector()
        for sock in socks:
            selector.register(getattr(sock, "raw", sock), selectors.EVENT_READ, sock)
        pending = total
        give_up = epoch + offset + 30.0
        while pending and time.perf_counter() < give_up and not send_failed.is_set():
            for key, __ in selector.select(timeout=0.5):
                reply = wire.recv_frame(key.data)
                if reply is None:
                    errors.append("server closed an open-loop connection")
                    return
                index = reply["id"]
                done_at[index] = time.perf_counter() - epoch
                ok_flags[index] = bool(reply.get("ok"))
                if not ok_flags[index] and len(errors) < 5:
                    errors.append(str(reply.get("error")))
                pending -= 1
        selector.close()

    threads = [
        threading.Thread(target=send, name="loadgen-send"),
        threading.Thread(target=receive, name="loadgen-recv"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for sock in socks:
        sock.close()

    results = [OpenPhase(Window(epoch + lo, Samples()), []) for lo in starts]
    outstanding: list[list[tuple[float, float]]] = [[] for __ in phases]
    warm = Samples()  # acknowledgements only: no latency samples
    for i in range(total):
        index = phase_of[i]
        samples = warm if index is None else results[index].window.samples
        if index is not None:
            results[index].lateness.append(sent_late[i])
        if index is not None or not ok_flags[i]:
            samples.attempted += 1
        if not ok_flags[i]:
            samples.fail(errors[0] if errors else "no reply")
            continue
        row = ops[i][1]
        samples.inserted.append(row[-1])
        samples.row_bytes += _json_bytes(row)
        if index is not None:
            samples.add("insert", epoch + done_at[i], done_at[i] - due[i])
            outstanding[index].append((due[i] + sent_late[i], done_at[i]))
    for phase, intervals in zip(results, outstanding):
        # Length of the union of the (sent, answered) intervals; they
        # are already in send order.
        covered_to = 0.0
        for sent, answered in intervals:
            phase.busy_s += max(0.0, answered - max(sent, covered_to))
            covered_to = max(covered_to, answered)
    # Warm-up acknowledgements count for the oracle, under phase 0.
    results[0].window.samples.merge(warm)
    return results


# ----------------------------------------------------------------------
# In-process engine driver


def engine_loop(
    db: Any, ops: Sequence[Op], position: int, seconds: float
) -> tuple[Window, int]:
    """Replay *ops* from *position* straight into ``dml`` — no server,
    sessions, WAL or MVCC — for *seconds*.  Returns the window and the
    position reached.  ``dml`` is resolved per call so a tracer
    installed on the module is honoured."""
    from repro.query import dml
    from repro.query.predicate import equalities

    key_columns = [f"k{i + 1}" for i in range(len(ops[0][1]) - 1)]
    samples = Samples()
    start = time.perf_counter()
    deadline = start + seconds
    while position < len(ops):
        kind, arg = ops[position]
        if kind == "insert":
            row = wire.decode_values(arg)
            begun = time.perf_counter()
            if begun >= deadline:
                break
            dml.insert(db, "C", row)
            done = time.perf_counter()
            samples.inserted.append(arg[-1])
        else:
            predicate = equalities(key_columns, arg)
            begun = time.perf_counter()
            if begun >= deadline:
                break
            removed = dml.delete_where(db, "P", predicate)
            done = time.perf_counter()
            if removed != 1:
                samples.fail(f"delete of parent {arg} removed {removed} rows")
            samples.deleted.append(tuple(arg))
        position += 1
        samples.attempted += 1
        samples.add(kind, done, done - begun)
    return Window(start, samples), position


# ----------------------------------------------------------------------
# Small probes of the wire itself


class CountingSocket:
    """A socket that counts the bytes the wire helpers push through it
    (traced pass only: ``server.wire.bytes_per_op``)."""

    def __init__(self, raw: socket.socket, tally: list[int]) -> None:
        self.raw = raw
        self._tally = tally

    def sendall(self, data: bytes) -> None:
        self._tally[0] += len(data)
        self.raw.sendall(data)

    def recv(self, size: int) -> bytes:
        chunk = self.raw.recv(size)
        self._tally[0] += len(chunk)
        return chunk

    def settimeout(self, value: float | None) -> None:
        self.raw.settimeout(value)

    def close(self) -> None:
        self.raw.close()


def ping_p50_ms(address: tuple[str, int], count: int = 200) -> float:
    """Median no-op round trip: framing, loop queue and executor hop."""
    with ReproClient(*address) as client:
        timings = []
        for __ in range(count):
            begun = time.perf_counter()
            client.ping()
            timings.append(time.perf_counter() - begun)
    return percentile(timings, 0.5) * 1e3


def frame_us(request: dict[str, Any], reply: dict[str, Any], rounds: int = 2_000) -> float:
    """Microseconds to push one request and one reply of the run's own
    shape through ``send_frame``/``recv_frame`` on a socketpair."""
    left, right = socket.socketpair()
    try:
        timings = []
        for __ in range(rounds):
            begun = time.perf_counter()
            wire.send_frame(left, request)
            wire.recv_frame(right)
            wire.send_frame(right, reply)
            wire.recv_frame(left)
            timings.append(time.perf_counter() - begun)
    finally:
        left.close()
        right.close()
    return percentile(timings, 0.5) * 1e6
