"""Runtime lock-order sanitizer ("lockdep") for the strict-2PL engine.

Deadlocks are the one concurrency bug class that example-based tests are
structurally bad at finding: the buggy interleaving has to *fire* during
the run.  This module removes that requirement.  An observer hooked into
:meth:`repro.concurrency.locks.LockManager.acquire` / ``release_all``
records, per transaction, the order in which **resource classes** are
locked, accumulates those orders into a per-manager lock-order graph for
the whole run, and reports every cycle whose edges can actually block as
a *potential* deadlock — even when the scheduler never produced the
deadly interleaving.  (This is the database-engine analogue of the Linux
kernel's lockdep.)

Granularity — nodes of the graph (DESIGN.md §5f):

* a **table resource** ``("table", name)`` classifies to itself;
* a **key resource** ``("key", table, columns, values)`` classifies to
  ``("key", table, columns)`` — the *key class*, dropping the values.
  Two different values of the same key class are the *same* node:
  value-crossing AB-BA orders within one class (two updates swapping the
  same pair of key values) are data-dependent, unavoidable under
  key-value locking, and already resolved by the runtime waits-for
  detector, so same-class order edges are deliberately **not** recorded.

Edges carry the ``(held mode, acquired mode)`` pairs observed and come
in two kinds:

* **order** edges ``A -> B``: some transaction held class ``A`` while
  its first lock on class ``B`` was *granted*.  Recording at grant time
  (not request time) makes runtime-detected deadlocks self-suppressing:
  the victim aborts before its blocking grant, so its half of the cycle
  never enters the graph, and only orders that each fully materialised
  remain — exactly the "it never fired" cases lockdep exists for.
* **upgrade** edges ``A -> A``: a transaction strengthened its mode on a
  resource it already held (classically S→X).  These need their own
  kind because they are dangerous *without any second class*: two
  transactions that both hold S and both request X block each other.
  A single transaction upgrading is recorded but only *escalated* to a
  violation when two distinct transactions perform mutually-blocking
  upgrades on the same class (see :meth:`LockOrderGraph.upgrade_risks`).

A cycle is reported only if it can block at **every** node: for each
class on the cycle there must be an observed acquired-mode entering it
that conflicts with an observed held-mode leaving it.  This filters the
ubiquitous benign cycles through IX table locks (IX is self-compatible,
so ``parent-delete: table P → table C`` versus ``child-insert: table C →
key P`` cannot deadlock at the table nodes).

Besides ordering, the observer asserts three pieces of discipline the
code comments otherwise only promise:

* **strict 2PL** — no acquisition after the transaction's release
  (``release_all`` is the only release, so any later acquire under the
  same transaction id is a phase violation);
* **witness pinning** — :func:`repro.concurrency.hooks.verify_parent_exists`,
  the one witness pin of the child check, the parent-side state loop
  and the shard probe, reports each witness key it locks, and the
  observer checks the S-lock on exactly that resource is held by the
  transaction when the lock is granted (and, by strict 2PL, until
  commit);
* **snapshot reads are lock-free** — MVCC snapshot transactions
  legitimately hold *no* read locks at all: the snapshot read path
  (:meth:`repro.concurrency.session.Session._snapshot_read`) wraps
  itself in :func:`snapshot_read_scope`, and any lock-manager
  acquisition observed inside that scope is a ``snapshot`` violation.
  This is the runtime twin of lint rule RPR008.

Enabling: ``LockManager(sanitize=True)`` or ``REPRO_SANITIZE=1`` in the
environment.  When off (the default), the manager's hot path pays a
single ``self._sanitizer is None`` test per acquisition — the same
compile-to-a-boolean discipline as :mod:`repro.testing.faults`, pinned
by ``tests/test_lockdep.py``'s overhead tests.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Hashable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover
    from ..concurrency.locks import LockManager, LockMode

#: A lock-order graph node: a resource class (values stripped from keys).
ResourceClass = Hashable

#: Environment variable that arms the sanitizer for every LockManager
#: constructed without an explicit ``sanitize=`` argument.
ENV_FLAG = "REPRO_SANITIZE"


def env_enabled() -> bool:
    """Is ``REPRO_SANITIZE`` set to a truthy value?"""
    return os.environ.get(ENV_FLAG, "") not in ("", "0", "false", "no")


# Thread-local marker for the MVCC snapshot-read scope: while set, the
# current thread is executing a lock-free snapshot read and must not
# reach the lock manager at all.
_snapshot_local = threading.local()


@contextmanager
def snapshot_read_scope() -> Iterator[None]:
    """Mark the current thread as inside a lock-free snapshot read.

    The session's snapshot read path enters this scope; any
    :meth:`LockdepObserver.on_acquired` event fired by the same thread
    while inside is reported as a ``snapshot`` violation.  Costs one
    thread-local store — no effect when no sanitizer is attached.
    """
    depth = getattr(_snapshot_local, "depth", 0)
    _snapshot_local.depth = depth + 1
    try:
        yield
    finally:
        _snapshot_local.depth = depth


def in_snapshot_read() -> bool:
    """Is the current thread inside a snapshot-read scope?"""
    return getattr(_snapshot_local, "depth", 0) > 0


def classify(resource: Hashable) -> ResourceClass:
    """Map a lock resource to its graph node (its *resource class*).

    Key resources drop their values — all locks over one key of one
    table share a class; everything else classifies to itself.
    """
    if isinstance(resource, tuple) and len(resource) == 4 and resource[0] == "key":
        return ("key", resource[1], resource[2])
    return resource


def _mode_tables() -> tuple[dict, dict]:
    # Imported lazily: concurrency.locks imports this module's attach()
    # at construction time, so a top-level import would be circular.
    from ..concurrency.locks import _COMBINE, _COMPATIBLE

    return _COMPATIBLE, _COMBINE


# ----------------------------------------------------------------------
# Violations and the report


@dataclass(frozen=True)
class Violation:
    """One sanitizer finding.

    ``kind`` is stable for tests: ``cycle``, ``upgrade``, ``two-phase``,
    ``witness``, or ``snapshot``.
    """

    kind: str
    message: str

    def render(self) -> str:
        return f"[lockdep:{self.kind}] {self.message}"


@dataclass
class LockdepReport:
    """Aggregated findings across every registered observer."""

    violations: list[Violation] = field(default_factory=list)
    observers: int = 0
    edges: int = 0
    acquisitions: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"lockdep: {self.observers} lock manager(s), "
            f"{self.acquisitions} acquisitions, {self.edges} order edge(s), "
            f"{len(self.violations)} violation(s)"
        ]
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The lock-order graph


@dataclass
class _Edge:
    """Annotation set for one ``src -> dst`` order edge."""

    #: Observed (held mode on src, acquired mode on dst) pairs.
    mode_pairs: set[tuple["LockMode", "LockMode"]] = field(default_factory=set)
    #: One concrete (txn, held resource, acquired resource) example per
    #: mode pair, for actionable reports.
    examples: dict[tuple["LockMode", "LockMode"], tuple] = field(default_factory=dict)


class LockOrderGraph:
    """Directed graph over resource classes, accumulated across a run."""

    def __init__(self) -> None:
        self._edges: dict[ResourceClass, dict[ResourceClass, _Edge]] = {}
        #: class -> {(from_mode, to_mode) -> set of txn ids that upgraded}
        self._upgrades: dict[
            ResourceClass, dict[tuple["LockMode", "LockMode"], set[int]]
        ] = {}

    # -- construction ---------------------------------------------------

    def add_order(
        self,
        src: ResourceClass,
        dst: ResourceClass,
        held_mode: "LockMode",
        acq_mode: "LockMode",
        example: tuple,
    ) -> None:
        if src == dst:
            return  # same-class instance ordering: data-dependent, skipped
        edge = self._edges.setdefault(src, {}).setdefault(dst, _Edge())
        pair = (held_mode, acq_mode)
        if pair not in edge.mode_pairs:
            edge.mode_pairs.add(pair)
            edge.examples[pair] = example

    def add_upgrade(
        self,
        cls: ResourceClass,
        from_mode: "LockMode",
        to_mode: "LockMode",
        txn_id: int,
    ) -> None:
        per_class = self._upgrades.setdefault(cls, {})
        per_class.setdefault((from_mode, to_mode), set()).add(txn_id)

    # -- introspection --------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._edges.values())

    def edges(self) -> dict[ResourceClass, dict[ResourceClass, set]]:
        return {
            src: {dst: set(edge.mode_pairs) for dst, edge in dsts.items()}
            for src, dsts in self._edges.items()
        }

    def upgrades(self) -> dict[ResourceClass, dict[tuple, set[int]]]:
        return {
            cls: {pair: set(txns) for pair, txns in pairs.items()}
            for cls, pairs in self._upgrades.items()
        }

    # -- analysis -------------------------------------------------------

    def cycles(self) -> list[list[ResourceClass]]:
        """Every elementary cycle that can block at each of its nodes.

        A cycle ``c0 -> c1 -> ... -> c0`` is a potential deadlock iff at
        every node some acquired mode entering it (from the in-edge)
        conflicts with some held mode leaving it (from the out-edge) —
        participant *i* requests what participant *i+1* holds.
        """
        compat, _ = _mode_tables()
        found: list[list[ResourceClass]] = []
        seen: set[tuple[ResourceClass, ...]] = set()

        def blocking(cycle: list[ResourceClass]) -> bool:
            n = len(cycle)
            for i in range(n):
                in_edge = self._edges[cycle[i]][cycle[(i + 1) % n]]
                out_edge = self._edges[cycle[(i + 1) % n]][cycle[(i + 2) % n]]
                node_conflicts = any(
                    not compat[(held_out, acq_in)]
                    for (__, acq_in) in in_edge.mode_pairs
                    for (held_out, __) in out_edge.mode_pairs
                )
                if not node_conflicts:
                    return False
            return True

        def canonical(cycle: list[ResourceClass]) -> tuple[ResourceClass, ...]:
            pivot = min(range(len(cycle)), key=lambda i: repr(cycle[i]))
            return tuple(cycle[pivot:] + cycle[:pivot])

        path: list[ResourceClass] = []
        on_path: set[ResourceClass] = set()

        def dfs(node: ResourceClass, root: ResourceClass) -> None:
            path.append(node)
            on_path.add(node)
            for succ in self._edges.get(node, ()):
                if succ == root and len(path) > 1:
                    key = canonical(path)
                    if key not in seen:
                        seen.add(key)
                        if blocking(list(key)):
                            found.append(list(key))
                elif succ not in on_path and repr(succ) > repr(root):
                    # Only explore nodes "after" the root so each cycle
                    # is enumerated from exactly one starting point.
                    dfs(succ, root)
            path.pop()
            on_path.remove(node)

        for start in list(self._edges):
            dfs(start, start)
        return found

    def upgrade_risks(self) -> list[tuple[ResourceClass, tuple, tuple]]:
        """Upgrade pairs on one class that could block each other.

        Two transactions upgrading the same class deadlock when their
        start modes coexist but each target mode conflicts with the
        other's start mode (S→X against S→X is the classic case).  A
        single transaction's upgrade is a latent pattern, not a finding.
        """
        compat, _ = _mode_tables()
        risks = []
        for cls, pairs in self._upgrades.items():
            items = list(pairs.items())
            for i, ((f1, t1), txns1) in enumerate(items):
                for (f2, t2), txns2 in items[i:]:
                    if len(txns1 | txns2) < 2:
                        continue
                    if (
                        compat[(f1, f2)]
                        and not compat[(f2, t1)]
                        and not compat[(f1, t2)]
                    ):
                        risks.append((cls, (f1, t1), (f2, t2)))
        return risks

    def describe_cycle(self, cycle: list[ResourceClass]) -> str:
        n = len(cycle)
        hops = []
        for i in range(n):
            edge = self._edges[cycle[i]][cycle[(i + 1) % n]]
            held, acq = next(iter(edge.mode_pairs))
            hops.append(f"{cycle[i]!r} [{held.name}] -> {cycle[(i + 1) % n]!r} [{acq.name}]")
        return "; ".join(hops)


# ----------------------------------------------------------------------
# The per-manager observer


class LockdepObserver:
    """Shadow state for one :class:`LockManager`, fed by its hooks.

    Thread-safe: the manager calls in from arbitrary session threads,
    and not every event arrives under the manager's own mutex (release
    and witness pinning do not), so every mutation happens under the
    observer's private lock.
    """

    def __init__(self, manager: "LockManager | None" = None) -> None:
        self._manager = manager
        self._mu = threading.Lock()
        self.graph = LockOrderGraph()
        self.violations: list[Violation] = []
        self.acquisitions = 0
        #: txn id -> resource -> strongest mode observed held.
        self._held: dict[int, dict[Hashable, "LockMode"]] = {}
        #: txn id -> acquisition order of distinct resource classes.
        self._class_order: dict[int, list[ResourceClass]] = {}
        #: txn id -> strongest mode per class (for edge annotations).
        self._class_mode: dict[int, dict[ResourceClass, "LockMode"]] = {}
        #: Transactions that already went through release_all.
        self._released: set[int] = set()

    # -- events from the lock manager -----------------------------------

    def on_acquired(self, txn_id: int, resource: Hashable, mode: "LockMode") -> None:
        """A grant (immediate or after a wait) materialised for *txn_id*."""
        _, combine = _mode_tables()
        with self._mu:
            self.acquisitions += 1
            if in_snapshot_read():
                self._violate(
                    "snapshot",
                    f"transaction {txn_id} acquired {mode.name} on "
                    f"{resource!r} inside a snapshot-read scope; snapshot "
                    "reads must be lock-free (RPR008's runtime twin)",
                )
            if txn_id in self._released:
                self._violate(
                    "two-phase",
                    f"transaction {txn_id} acquired {mode.name} on "
                    f"{resource!r} after releasing its locks "
                    "(strict 2PL forbids a second growing phase)",
                )
            held = self._held.setdefault(txn_id, {})
            cls = classify(resource)
            classes = self._class_order.setdefault(txn_id, [])
            class_mode = self._class_mode.setdefault(txn_id, {})
            prior = held.get(resource)
            combined = mode if prior is None else combine[(prior, mode)]
            held[resource] = combined
            if prior is not None and combined != prior:
                self.graph.add_upgrade(cls, prior, combined, txn_id)
            if cls not in class_mode:
                # First touch of this class: record order edges from
                # everything already held, annotated with current modes.
                for held_cls in classes:
                    self.graph.add_order(
                        held_cls,
                        cls,
                        class_mode[held_cls],
                        mode,
                        (txn_id, held_cls, resource),
                    )
                classes.append(cls)
                class_mode[cls] = combined
            else:
                class_mode[cls] = combine[(class_mode[cls], combined)]

    def on_release_all(self, txn_id: int) -> None:
        with self._mu:
            self._held.pop(txn_id, None)
            self._class_order.pop(txn_id, None)
            self._class_mode.pop(txn_id, None)
            self._released.add(txn_id)

    def on_witness_pinned(self, txn_id: int, resource: Hashable) -> None:
        """The FK probe window closed claiming *resource* as its witness."""
        from ..concurrency.locks import LockMode

        with self._mu:
            mode = self._held.get(txn_id, {}).get(resource)
            if mode is None or LockMode.S not in _covers(mode):
                self._violate(
                    "witness",
                    f"transaction {txn_id} finished its FK probe window "
                    f"without holding the witness S-lock on {resource!r} "
                    f"(held: {mode.name if mode else 'nothing'})",
                )

    # -- reporting ------------------------------------------------------

    def _violate(self, kind: str, message: str) -> None:
        self.violations.append(Violation(kind, message))

    def findings(self) -> list[Violation]:
        """Discipline violations plus graph findings, for this manager."""
        with self._mu:
            out = list(self.violations)
            for cycle in self.graph.cycles():
                out.append(
                    Violation(
                        "cycle",
                        "potential deadlock: lock-order cycle "
                        + self.graph.describe_cycle(cycle),
                    )
                )
            for cls, pair1, pair2 in self.graph.upgrade_risks():
                out.append(
                    Violation(
                        "upgrade",
                        f"potential deadlock: transactions upgrade "
                        f"{cls!r} {pair1[0].name}->{pair1[1].name} and "
                        f"{pair2[0].name}->{pair2[1].name}; the starts "
                        "coexist but each target blocks on the other",
                    )
                )
            return out


def _covers(mode: "LockMode") -> frozenset:
    from ..concurrency.locks import _COVERS

    return _COVERS[mode]


# ----------------------------------------------------------------------
# Global registry: one graph per lock manager, one report per run.

_registry_lock = threading.Lock()
_observers: list[LockdepObserver] = []


def attach(manager: "LockManager | None" = None) -> LockdepObserver:
    """Create and register the observer for one lock manager."""
    observer = LockdepObserver(manager)
    with _registry_lock:
        _observers.append(observer)
    return observer


def observers() -> list[LockdepObserver]:
    with _registry_lock:
        return list(_observers)


def reset() -> None:
    """Forget every registered observer (test hygiene)."""
    with _registry_lock:
        _observers.clear()


@contextmanager
def scoped() -> Iterator[list[LockdepObserver]]:
    """Run a block against a fresh, isolated observer registry.

    Tests that *seed* violations on purpose use this so their findings
    never leak into the run-wide report the conftest asserts clean.
    """
    global _observers
    with _registry_lock:
        saved = _observers
        _observers = []
    try:
        yield _observers
    finally:
        with _registry_lock:
            _observers = saved


def report() -> LockdepReport:
    """Aggregate findings across every observer registered this run."""
    out = LockdepReport()
    for observer in observers():
        out.observers += 1
        out.acquisitions += observer.acquisitions
        out.edges += observer.graph.edge_count
        out.violations.extend(observer.findings())
    return out


def assert_clean() -> LockdepReport:
    """Raise :class:`AnalysisError` if any observer saw a violation."""
    out = report()
    if not out.ok:
        raise AnalysisError(out.render())
    return out
