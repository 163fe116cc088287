"""Systematic fault injection for the enforcement engine.

The engine's crash-consistency claim is only testable if a failure can
be provoked *at every interesting step* of enforcement: mid-trigger,
mid-index-split, mid-batch.  This module provides named **fault points**
threaded through the storage, query, trigger and batch layers, plus
**injectors** that decide what happens when execution reaches one:

* :class:`FailInjector` — raise an exception (a vetoed statement, a
  broken disk, an assertion);
* :class:`CrashInjector` — freeze the database and raise
  :class:`~repro.errors.SimulatedCrash`, which unwinds to the harness
  like a process death (cleanup handlers are skipped — it derives from
  ``BaseException``); recovery then proceeds from the write-ahead log;
* :class:`TransientInjector` — fail the first *k* arrivals, then pass,
  modelling lock timeouts and lost writes that succeed on retry under
  :func:`retry_transient`'s capped exponential backoff.

Fault points are **disabled by default** and compiled down to a single
module-global boolean test per crossing, so production paths pay no
measurable overhead (asserted by ``benchmarks/bench_table01_insertions``
staying within noise).

Usage::

    from repro.testing import faults

    with faults.injected("trigger.parent_delete", faults.CrashInjector(db)):
        db.delete_where("P", Eq("k1", 7))     # raises SimulatedCrash
    wal.simulate_crash(db)                     # recover to last commit

    with faults.tracing() as hits:             # which points does a
        run_workload(db)                       # workload actually cross?
    assert "btree.split" in hits
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from ..errors import ReproError, SimulatedCrash, TransientFault

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.database import Database

#: Every fault point compiled into the engine, registered up front so
#: harnesses can enumerate them without first running a workload.
#: Threading a new ``faults.fire(...)`` call through the engine must be
#: accompanied by an entry here.  This is machine-enforced twice: lint
#: rule RPR001 (``python -m repro lint``) cross-checks every ``fire``
#: literal in the source against this registry and vice versa, and
#: :func:`_validate_registry` below rejects a malformed registry at
#: import time (tests/test_faults.py asserts both agree).
KNOWN_POINTS: tuple[str, ...] = (
    # indexes/btree.py — structural changes of the B+ tree
    "btree.split",
    "btree.unlink",
    # query/dml.py — around each physical row mutation
    "dml.insert.pre",
    "dml.insert.post",
    "dml.delete.pre",
    "dml.delete.post",
    "dml.update.pre",
    "dml.update.post",
    # triggers/partial_ri.py — the generated §6.1 trigger bodies
    "trigger.child_check",
    "trigger.parent_restrict",
    "trigger.parent_delete",
    # query/enforcement.py — inside the state loop
    "enforce.state_probe",
    "enforce.apply_action",
    # concurrency/locks.py — every lock request / each blocking wait
    # (a TransientInjector here simulates lock-contention storms)
    "lock.acquire",
    "lock.wait",
    # server/server.py — once per decoded client request
    "server.request",
    # server/wire.py + server/core.py — the wire transport: before
    # each frame send, before each recv() chunk (so a TransientInjector
    # can tear a frame mid-payload), and per accepted connection
    "wire.send",
    "wire.recv",
    "wire.accept",
    # sharding/twophase.py — the distributed-commit hot path: on entry
    # to PREPARE (before the witness locks and the durable prepare
    # record), on entry to DECIDE (before the durable decision record
    # and the data commit/rollback), and per in-doubt resolution probe
    # against the coordinator's decision log.  A CrashInjector at any of
    # them must land recovery on a 2PC state the resolver can finish.
    "shard.prepare",
    "shard.decide",
    "shard.resolve",
)


class FaultError(ReproError):
    """Default exception raised by :class:`FailInjector`."""


def _validate_registry(points: tuple[str, ...]) -> None:
    """Reject a malformed registry the moment the module is imported.

    Duplicates would make ``install``/``uninstall`` ambiguous; names are
    constrained to the ``layer.point[.sub]`` shape the lint rule RPR001
    greps for, so a typo cannot silently fork the naming scheme.
    """
    seen: set[str] = set()
    for point in points:
        if point in seen:
            raise FaultError(f"duplicate fault point {point!r} in KNOWN_POINTS")
        seen.add(point)
        parts = point.split(".")
        if len(parts) < 2 or not all(
            part and part.replace("_", "a").isalnum() and part.islower()
            for part in parts
        ):
            raise FaultError(
                f"malformed fault point name {point!r}: expected "
                "lowercase dotted 'layer.point' segments"
            )


_validate_registry(KNOWN_POINTS)


class Injector:
    """Base class: fires on arrivals ``skip``‥``skip+times-1`` at a point.

    ``hits`` counts every arrival (fired or not) so harnesses can learn
    how often a workload crosses a point.
    """

    def __init__(self, skip: int = 0, times: int | None = 1) -> None:
        self.skip = skip
        self.times = times
        self.hits = 0
        self.fired = 0

    def arrive(self, point: str) -> None:
        index = self.hits
        self.hits += 1
        if index < self.skip:
            return
        if self.times is not None and index >= self.skip + self.times:
            return
        self.fired += 1
        self.fire(point)

    def fire(self, point: str) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class FailInjector(Injector):
    """Raise an exception at the fault point."""

    def __init__(
        self,
        exc_factory: Callable[[str], BaseException] | None = None,
        skip: int = 0,
        times: int | None = 1,
    ) -> None:
        super().__init__(skip, times)
        self._factory = exc_factory or (
            lambda point: FaultError(f"injected fault at {point!r}")
        )

    def fire(self, point: str) -> None:
        raise self._factory(point)


class CrashInjector(Injector):
    """Simulate a process death at the fault point.

    Freezes *db* first (transaction commit/rollback/log become no-ops, so
    context managers on the unwind path cannot tidy the state a real
    crash would have left torn), then raises
    :class:`~repro.errors.SimulatedCrash`.  The write-ahead log's
    volatile buffer dies with the process; recovery replays the durable
    prefix (:meth:`repro.storage.wal.WriteAheadLog.simulate_crash`).
    """

    def __init__(self, db: "Database", skip: int = 0, times: int | None = 1) -> None:
        super().__init__(skip, times)
        self._db = db

    def fire(self, point: str) -> None:
        self._db.freeze_for_crash()
        raise SimulatedCrash(f"simulated crash at {point!r}")


class TransientInjector(Injector):
    """Raise :class:`~repro.errors.TransientFault` for the first *times*
    arrivals, then let execution pass — the classic retryable fault."""

    def __init__(self, times: int = 1, skip: int = 0) -> None:
        super().__init__(skip, times)

    def fire(self, point: str) -> None:
        raise TransientFault(f"injected transient fault at {point!r}")


class _Tracer:
    """Records which points a workload crosses (never raises)."""

    def __init__(self) -> None:
        self.hits: dict[str, int] = {}

    def arrive(self, point: str) -> None:
        self.hits[point] = self.hits.get(point, 0) + 1


# ----------------------------------------------------------------------
# Registry.  ``_armed`` is the single flag the hot path tests: with no
# injector installed and no tracer active, fire() returns immediately.

_injectors: dict[str, Injector] = {}
_tracers: list[_Tracer] = []
_armed = False


def _rearm() -> None:
    global _armed
    _armed = bool(_injectors) or bool(_tracers)


def fire(point: str) -> None:
    """Cross a fault point.  No-op unless an injector or tracer is live."""
    if not _armed:
        return
    for tracer in _tracers:
        tracer.arrive(point)
    injector = _injectors.get(point)
    if injector is not None:
        injector.arrive(point)


def names() -> tuple[str, ...]:
    """Every registered fault point name."""
    return KNOWN_POINTS


def install(point: str, injector: Injector) -> Injector:
    """Install *injector* at *point* (replacing any previous one)."""
    if point not in KNOWN_POINTS:
        raise FaultError(f"unknown fault point {point!r}")
    _injectors[point] = injector
    _rearm()
    return injector


def uninstall(point: str) -> None:
    _injectors.pop(point, None)
    _rearm()


def reset() -> None:
    """Remove every injector and tracer (the default, zero-overhead state)."""
    _injectors.clear()
    _tracers.clear()
    _rearm()


def active() -> bool:
    return _armed


@contextmanager
def injected(point: str, injector: Injector) -> Iterator[Injector]:
    """Scope an injector to a ``with`` block."""
    install(point, injector)
    try:
        yield injector
    finally:
        uninstall(point)


@contextmanager
def tracing() -> Iterator[dict[str, int]]:
    """Record the fault points (and counts) a block crosses."""
    tracer = _Tracer()
    _tracers.append(tracer)
    _rearm()
    try:
        yield tracer.hits
    finally:
        _tracers.remove(tracer)
        _rearm()


# ----------------------------------------------------------------------
# Retry with capped exponential backoff, for transient faults.


def retry_transient(
    fn: Callable[[], Any],
    *,
    attempts: int = 6,
    base_delay: float = 0.001,
    max_delay: float = 0.05,
    sleep: Callable[[float], None] = time.sleep,
    retry_on: tuple[type[BaseException], ...] = (TransientFault,),
) -> Any:
    """Run *fn*, retrying on transient faults.

    Delays double from *base_delay* up to the *max_delay* cap; the final
    attempt re-raises.  *sleep* is injectable so tests can assert the
    backoff schedule without waiting for it.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    delay = base_delay
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on:
            if attempt == attempts - 1:
                raise
            sleep(min(delay, max_delay))
            delay *= 2
