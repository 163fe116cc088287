"""Prepared probes: the enforcement triggers' hot search primitives.

The generated triggers of §6.1 issue the same few probe shapes millions
of times during an experiment:

* *subsumption probe* — does some parent match the total components of a
  foreign-key value? (child insert / update);
* *state probe* — does some child exist in null-state S referencing the
  removed parent key? (parent delete, one per state);
* *alternative-parent probe* — does a parent other than the removed one
  match the state's total columns?  The AFTER DELETE action asks it
  once the row is gone; the RESTRICT veto and intelligent deletion ask
  it too, the veto before the row changes, through a one-row read view
  that shows the table as the write will leave it.

A real engine runs these as prepared statements; building full predicate
trees per probe would make Python object construction — not the index
structure — the measured quantity.  Each probe shape (table, equality
columns, IS NULL columns) is compiled once into a :class:`PreparedProbe`
holding the resolved column positions, the chosen access path and the
optimizer dive list, cached on the table and invalidated through the
catalog epoch counter (``table.indexes.version``, bumped on every index
create/drop).  Executing a probe then just binds values: no per-call
planning, no dict/zip construction.  The cost accounting is identical to
the per-call-planned path — ``planner_candidates`` per execution, real
index dives, the same scan counters — so the experiment's logical costs
are unchanged; only interpreter overhead is removed.

Execution is range-at-a-time (DESIGN.md §5k).  One kernel,
:meth:`PreparedProbe._search`, serves full scans, index ranges and MVCC
read views: it takes rows a batch at a time — the heap, or one leaf run
of :meth:`~repro.indexes.btree.BPlusTree.runs` — finds the first match
at C level (:func:`_first_hit`) and *computes* every scan counter from
where the hit fell instead of counting row by row.  Probes that share a
:class:`RangeScope` (the ``2^n - 2`` state probes of one parent delete)
read each index range's entries once.  Where a B+ tree indexes exactly
the tested columns, a probe finds its hit by one point lookup of the
full pattern there and its position in the range by one bisect; where
none does, the range's rows are classified once into a *census* —
null/value pattern → first position — and each probe is one dictionary
lookup.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Collection, Iterable, Sequence
from itertools import compress, count, islice, repeat
from operator import eq, itemgetter
from typing import Any

from ..indexes.definition import IndexKind
from ..indexes.keys import EncodedKey, Entry, encode_component, encode_key
from ..nulls import NULL
from ..storage.heap import Row
from ..storage.table import Table
from .planner import _plan_uncached
from .predicate import ConjunctionProfile

#: Cap on distinct probe shapes cached per table; enforcement issues a
#: handful per foreign key (one per null-state), so this never trips on
#: the paper's workloads — it only bounds pathological callers.
_PROBE_CACHE_LIMIT = 256

_RID = itemgetter(-1)  # the rid of an index entry
_ROW = itemgetter(1)  # the row of a heap item


class RangeScope(dict):
    """The index ranges one statement's probes share.

    Maps ``(index, encoded prefix)`` to the range as it stood when first
    probed — ``(entries, leaf-step offsets, descent reads, censuses)``,
    everything a later probe of the same range needs to answer and to
    charge itself exactly as if it had walked the index again.  The
    entries are ``(c1, …, cn, rid)`` tuples in index order; no row is
    fetched to read a range.

    A probe whose tested columns (equalities and IS NULL columns) are
    exactly the columns of a B+ tree on the table, and whose range's
    columns are all among them, needs nothing more: its first match is
    the first entry of its full pattern in that tree, and where that
    match sits in the range is one bisect (:meth:`PreparedProbe._locate`).
    Any other shape asks a *census*: each row's projection onto the
    tested columns (keyed by their schema positions, in schema order)
    mapped to the first position that shows it, built from the range's
    rows the first time it is asked.  The ``2^n - 2`` state probes of one
    parent delete (§6.1) revisit the same few ranges with different
    residuals, and since every state tests the same columns — the
    foreign key's — they share one census per range.

    Bound: one range per probed ``(index, prefix)`` and one census per
    distinct tested-column set on it that no full-key B+ tree covers.
    The §6.1 loop draws every prefix from the one removed key, so it
    holds at most one range per prefix length ``1..n-1`` of each child
    index: ``2n - 1`` under Bounded, whose compound child index covers
    every state, so a Bounded delete builds no census and bulk-fetches
    no heap row; ``n`` under Singleton, which has no such index and
    builds one census per range.  A snapshot is only as good as the
    table is still: the owner must :meth:`clear` the scope the moment
    anything writes the probed table, and drops it with the loop it was
    opened for.
    """

    __slots__ = ()


def _first_hit(
    project: Callable[[Row], Any] | None, expected: Any, rows: Iterable[Row]
) -> int:
    """Index of the first of *rows* whose projection equals *expected*,
    or -1.  Runs at C level (project, compare, take the first true) and
    consumes *rows* no further than the hit."""
    if project is None:  # nothing to test: the first row is the hit
        for __ in rows:
            return 0
        return -1
    return next(
        compress(count(), map(eq, map(project, rows), repeat(expected))), -1
    )


class PreparedProbe:
    """One compiled probe shape over one table.

    Holds everything value-independent: the access path chosen by the
    planner, the slot indices that bind prefix values, the list of
    B-tree indexes the optimizer dives into per execution, and the
    *compiled tests* — an ``operator.itemgetter`` over the schema
    positions a row must be checked on, whose output is compared against
    one expected tuple (bound values, then ``NULL`` per IS NULL column;
    ``NULL`` is a singleton without ``__eq__``, so it equals only
    itself and a NULL column never equals a bound value).  For a
    :class:`RangeScope` the plan also keeps the full-key B+ tree that
    answers the probe by a point lookup, when the table has one, and
    otherwise the census test in schema order (:meth:`_plan`).
    Re-plans itself lazily whenever ``table.indexes.version`` has moved
    since the last execution.

    The probe keeps the parts of its table an execution reads (heap,
    indexes, tracker, name) and only a weak reference to the table
    itself, which planning reads: the table's probe cache holds
    the probe, so a strong reference back would make every table a
    reference cycle that outlives ``del`` until a full collection.
    """

    __slots__ = (
        "_table",
        "heap",
        "indexes",
        "tracker",
        "table_name",
        "columns",
        "null_columns",
        "_null_tail",
        "_full_project",
        "_version",
        "_index",
        "_prefix_slots",
        "_residual_slots",
        "_residual_project",
        "_census_positions",
        "_census_pattern",
        "_point",
        "_point_sources",
        "_tail_sources",
        "_dives",
    )

    def __init__(
        self,
        table: Table,
        columns: tuple[str, ...],
        null_columns: tuple[str, ...],
    ) -> None:
        self._table = weakref.ref(table)
        self.heap = table.heap
        self.indexes = table.indexes
        self.tracker = table.tracker
        self.table_name = table.name
        self.columns = columns
        self.null_columns = null_columns
        self._null_tail = (NULL,) * len(null_columns)
        self._full_project = self._projector(columns)
        self._version = -1  # forces planning on first execution
        self._index: Any = None  # None: full scan
        self._prefix_slots: tuple[int, ...] = ()
        self._residual_slots: tuple[int, ...] = ()
        self._residual_project: Callable[[Row], Any] | None = None
        self._census_positions: tuple[int, ...] = ()
        self._census_pattern: Callable[[tuple[Any, ...]], Any] | None = None
        self._point: Any = None  # None: a scope answers through a census
        self._point_sources: tuple[int, ...] = ()
        self._tail_sources: tuple[int, ...] = ()
        self._dives: tuple[tuple[Any, int], ...] = ()

    @property
    def table(self) -> Table:
        table = self._table()
        assert table is not None, "probe of a dropped table"
        return table

    def _projector(self, eq_columns: Sequence[str]) -> Callable[[Row], Any] | None:
        """The row projection that tests *eq_columns* and the probe's
        IS NULL columns (None when there is nothing to test)."""
        positions = self.table.schema.positions((*eq_columns, *self.null_columns))
        return itemgetter(*positions) if positions else None

    def _expected(self, bound: Iterable[Any]) -> Any:
        """What a projection built by :meth:`_projector` must equal,
        given the values *bound* to its equality columns."""
        expected = (*bound, *self._null_tail)
        # a one-position itemgetter returns the bare value
        return expected[0] if len(expected) == 1 else expected

    # ------------------------------------------------------------------

    def _plan(self, values: Sequence[Any]) -> None:
        """Choose the access path for this shape (first call / new epoch).

        Planning is value-dependent only through the statistics estimate,
        exactly like the plan cache it replaces: the first execution after
        an epoch change decides the path for all later ones.
        """
        table = self.table
        columns = self.columns
        profile = ConjunctionProfile.from_parts(
            dict(zip(columns, values)), frozenset(self.null_columns)
        )
        slot_of = {c: slot for slot, c in enumerate(columns)}
        dives = []
        for index in table.indexes:
            if index.kind is IndexKind.BTREE and index.columns[0] in slot_of:
                dives.append((index, slot_of[index.columns[0]]))
        self._dives = tuple(dives)

        path = _plan_uncached(table, profile, True)
        self._index = index = path.index
        self._point = None
        if index is None:
            return
        bound = index.columns[: len(path.prefix_values)]
        self._prefix_slots = tuple(slot_of[c] for c in bound)
        residual = [c for c in columns if c not in bound]
        self._residual_slots = tuple(slot_of[c] for c in residual)
        self._residual_project = self._projector(residual)
        # The same test in schema order, whichever way this shape splits
        # the tested columns between ``=`` and IS NULL, so that every
        # shape testing them shares one census of a range: positions,
        # and what picks the expected pattern out of ``(*values, NULL)``.
        # (Scans keep equalities first: a tuple comparison stops at its
        # first mismatch, and value-to-NULL comparisons are the slow ones.)
        position = table.schema.position
        tested = sorted(
            [(position(c), slot_of[c]) for c in residual]
            + [(position(c), len(columns)) for c in self.null_columns]
        )
        self._census_positions = tuple(p for p, __ in tested)
        self._census_pattern = (
            itemgetter(*[source for __, source in tested]) if tested else None
        )
        # A scope answers by a full-key lookup instead of a census when
        # a B+ tree indexes exactly the tested columns: it holds every
        # row's pattern as its key, NULLs included, so its first entry of
        # the probe's pattern is the probe's first match (equal keys sort
        # by rid).  That match's place in the range needs the range's own
        # key for the pattern, so every column of the planned index must
        # be tested too.  The plan and the charges stay those of the
        # range: IS NULL is not sargable (DESIGN §2).
        tested_columns = {*columns, *self.null_columns}
        if index.kind is not IndexKind.BTREE or not tested_columns.issuperset(
            index.columns
        ):
            return
        null_source = len(columns)  # where NULL sits in (*values, NULL)
        for point in table.indexes:
            if (
                point.kind is IndexKind.BTREE
                and len(point.columns) == len(tested_columns)
                and tested_columns.issuperset(point.columns)
            ):
                self._point = point
                self._point_sources = tuple(
                    slot_of.get(c, null_source) for c in point.columns
                )
                self._tail_sources = tuple(
                    slot_of.get(c, null_source) for c in index.columns[len(bound):]
                )
                return

    def _bind(self, values: Sequence[Any]) -> None:
        """Per-execution planner work: epoch check, candidate charge, dives."""
        indexes = self.indexes
        if indexes.version != self._version:
            self._plan(values)
            self._version = indexes.version
        count = self.tracker.count
        count("planner_candidates", len(indexes))
        # A dive into a tree of uniform depth charges its height and
        # nothing else (TableIndex.dive): those are charged as one sum.
        reads = 0
        for index, slot in self._dives:
            tree = index._structure
            if tree._uniform:
                reads += tree._height
            else:
                index.dive(values[slot])
        if reads:
            count("index_node_reads", reads)

    # ------------------------------------------------------------------

    def exists(
        self,
        values: Sequence[Any],
        view: Any = None,
        scope: RangeScope | None = None,
    ) -> bool:
        """LIMIT-1 probe: any row with ``columns = values`` (total
        values) and ``null_columns IS NULL``?

        With a *view* (an MVCC :class:`~repro.storage.versions.ReadView`)
        the probe answers as of the view's read LSN instead of the
        committed tip; the lock-free snapshot read path goes through
        this.  With a
        *scope* the index range is read once for every probe that
        shares the scope (see :class:`RangeScope`).
        """
        return self._search(values, view, scope) is not None

    def find(self, values: Sequence[Any], view: Any = None) -> Row | None:
        """LIMIT-1 *witness* probe: the first matching row, or None."""
        return self._search(values, view, None)

    def _search(
        self, values: Sequence[Any], view: Any, scope: RangeScope | None
    ) -> Row | None:
        """The one probe kernel: full scan or index range, tip or view.

        Rows are tested a batch at a time — the whole heap or a leaf run
        by :func:`_first_hit`, a scope's range by a full-key point lookup
        or its census (:meth:`_locate`) — and
        every charge follows from where the hit fell: node reads for the
        descent and for each leaf step up to the hit's leaf, index
        entries for those consumed before the hit (with the hit, under
        a hash index), heap fetches and examined rows up to and
        including it; a miss pays for the whole range.  That is what a
        row-at-a-time LIMIT-1 scan would have counted.

        Against a *view*, rids it marks divergent are skipped (their
        heap state must not be trusted: consumed from the index, never
        fetched) and afterwards re-resolved through
        :meth:`ReadView.row` under the full test, since an index hit
        alone cannot prove a row visible at the read LSN.
        """
        self._bind(values)
        divergent = (
            view.divergent_rids(self.table_name) if view is not None else ()
        )
        if self._index is None:
            hit = self._search_heap(values, divergent)
        else:
            hit = self._search_range(values, divergent, scope)
        if hit is None and divergent:
            versions = [view.row(self.table_name, rid) for rid in sorted(divergent)]
            rows = [row for row in versions if row is not None]
            at = _first_hit(
                self._full_project, self._expected(values), rows
            )
            if at >= 0:
                hit = rows[at]
            self.tracker.count("rows_examined", at + 1 if at >= 0 else len(rows))
        return hit

    def _search_heap(
        self, values: Sequence[Any], divergent: Collection[int]
    ) -> Row | None:
        """:meth:`_search` by full scan, in insertion order."""
        tracker = self.tracker
        heap = self.heap
        tracker.count("full_scans")
        if divergent:
            kept = [
                item for item in heap.scan_unordered() if item[0] not in divergent
            ]
            scan: Callable[[], Iterable[tuple[int, Row]]] = kept.__iter__
            examined = len(kept)
        else:
            scan = heap.scan_unordered
            examined = len(heap)
        hit = None
        at = _first_hit(
            self._full_project,
            self._expected(values),
            map(_ROW, scan()),
        )
        if at >= 0:
            examined = at + 1
            hit = next(islice(scan(), at, None))[1]
        tracker.count("rows_examined", examined)
        return hit

    def _search_range(
        self,
        values: Sequence[Any],
        divergent: Collection[int],
        scope: RangeScope | None,
    ) -> Row | None:
        """:meth:`_search` over the planned index range: the scope's
        snapshot of it when there is one (:meth:`_locate` finds the
        hit), else leaf run by leaf run, stopping at the run that holds
        the hit."""
        index = self._index
        heap = self.heap
        prefix = tuple(
            [encode_component(values[slot]) for slot in self._prefix_slots]
        )
        project = self._residual_project
        hit_scanned = index.hit_scanned
        hit = None
        reads = scanned = fetched = 0
        if scope is not None and not divergent:
            snapshot = scope.get((index, prefix))
            if snapshot is None:
                snapshot = scope[index, prefix] = self._read_range(prefix)
            entries, steps, reads, censuses = snapshot
            at = self._locate(values, prefix, entries, censuses)
            if at < 0:
                reads += len(steps)
                scanned = fetched = len(entries)
            else:
                hit = heap.get(entries[at][-1])
                reads += bisect_right(steps, at)
                scanned = at + hit_scanned
                fetched = at + 1
        elif project is None and not divergent:
            # nothing to test: the first entry of the range is the hit
            first, reads = index.first_entry(prefix)
            if first is not None:
                hit = heap.get(first[-1])
                scanned = hit_scanned
                fetched = 1
        else:
            expected = (
                self._expected([values[slot] for slot in self._residual_slots])
                if project is not None
                else None
            )
            for entries, run_reads in index.runs(prefix):
                reads += run_reads
                rids = list(map(_RID, entries))
                kept = (
                    [rid for rid in rids if rid not in divergent]
                    if divergent
                    else rids
                )
                rows = heap.fetch(kept)
                at = _first_hit(project, expected, rows)
                if at >= 0:
                    hit = rows[at]
                    scanned += rids.index(kept[at]) + hit_scanned
                    fetched += at + 1
                    break
                scanned += len(rids)
                fetched += len(rows)
        tracker = self.tracker
        tracker.count("index_node_reads", reads)
        tracker.count("index_entries_scanned", scanned)
        tracker.count("rows_fetched", fetched)
        tracker.count("rows_examined", fetched)
        return hit

    def _locate(
        self,
        values: Sequence[Any],
        prefix: EncodedKey,
        entries: list[Entry],
        censuses: dict[tuple[int, ...], dict[Any, int]],
    ) -> int:
        """Position in a scoped range's *entries* of the first row that
        matches, or -1: by a point lookup on the full-key B+ tree when
        the plan found one, else from the range's census."""
        positions = self._census_positions
        if not positions:  # nothing to test: the first entry is the hit
            return 0 if entries else -1
        pattern = (*values, NULL)
        point = self._point
        if point is not None:
            key = tuple([encode_component(pattern[s]) for s in self._point_sources])
            first, __ = point.first_entry(key)
            if first is None:
                return -1
            # every match has the same key in the range, so the first
            # match sits where that key and its rid sort
            tail = [encode_component(pattern[s]) for s in self._tail_sources]
            return bisect_left(entries, (*prefix, *tail, first[-1]))
        census = censuses.get(positions)
        if census is None:
            rows = self.heap.fetch(map(_RID, entries))
            # first position wins: written last, in reverse
            census = censuses[positions] = dict(
                zip(
                    map(itemgetter(*positions), reversed(rows)),
                    range(len(rows) - 1, -1, -1),
                )
            )
        return census.get(self._census_pattern(pattern), -1)

    def _read_range(
        self, prefix: EncodedKey
    ) -> tuple[list[Entry], list[int], int, dict[tuple[int, ...], dict[Any, int]]]:
        """The whole range under *prefix* for a :class:`RangeScope`:
        its entries in index order, the offset into them
        at which each leaf step was taken, the node reads of the descent,
        and its censuses (none yet)."""
        entries: list[Entry] = []
        steps: list[int] = []
        descent = 0
        for run, reads in self._index.runs(prefix):
            if descent:
                steps += [len(entries)] * reads
            else:
                descent = reads
            entries += run
        return entries, steps, descent, {}


def prepared(
    table: Table,
    columns: Sequence[str],
    null_columns: Sequence[str] = (),
) -> PreparedProbe:
    """The cached :class:`PreparedProbe` for one shape on *table*."""
    key = (tuple(columns), tuple(null_columns))
    cache = table._probe_cache
    probe = cache.get(key)
    if probe is None:
        if len(cache) >= _PROBE_CACHE_LIMIT:
            cache.clear()
        probe = PreparedProbe(table, key[0], key[1])
        cache[key] = probe
    return probe


def exists_eq(
    table: Table,
    columns: Sequence[str],
    values: Sequence[Any],
    null_columns: Sequence[str] = (),
    view: Any = None,
    scope: RangeScope | None = None,
) -> bool:
    """LIMIT-1 probe: any row with ``columns = values`` (total values)
    and ``null_columns IS NULL``?

    Equivalent to ``executor.exists(db, table, equalities(...))`` but
    through the prepared-probe cache: no predicate objects, no per-call
    planning.  With *view*, answers as of that MVCC read view; with
    *scope*, shares index ranges with the scope's other probes.
    """
    return prepared(table, columns, null_columns).exists(values, view, scope)


def find_eq(
    table: Table,
    columns: Sequence[str],
    values: Sequence[Any],
    null_columns: Sequence[str] = (),
    view: Any = None,
) -> Row | None:
    """LIMIT-1 *witness* probe: the first row with ``columns = values``
    (and ``null_columns IS NULL``), or None.

    Same plan and cost accounting as :func:`exists_eq`, but the matching
    row itself is returned — the concurrency layer locks the witness's
    full key before trusting the probe (see
    :func:`repro.concurrency.hooks.verify_parent_exists`).
    """
    return prepared(table, columns, null_columns).find(values, view)


def check_distinct(
    probe: PreparedProbe,
    values_list: Sequence[Sequence[Any]],
    check: Callable[[tuple[Any, ...]], bool],
) -> list[bool]:
    """One answer per entry of *values_list*, running *check* — one
    execution of *probe*, plus whatever the caller ties to it — once per
    **distinct** key.

    Keys are deduplicated and checked in encoded-key order, so a batch
    of K rows referencing m distinct parents costs m sorted descents
    instead of K arbitrary ones (and a locking *check* takes its locks
    in one global order).  The *logical* cost counters stay
    bit-identical to K independent checks: the probed table is not
    mutated between the checks of one batch, so every duplicate of a key
    would have charged exactly what its first check charged — the
    duplicates' charges are replayed from a tracker snapshot delta
    instead of from re-descending.

    One exception to the order: when *probe* has a replan pending (new
    shape or moved catalog epoch), its next execution fixes the access
    path from that execution's values, so the batch plans with the key a
    per-row loop would have used — the first in arrival order.  Sorting
    first could pick a different index and break the charge parity.
    """
    if not values_list:
        return []
    tracker = probe.tracker
    groups: dict[tuple[Any, ...], list[int]] = {}
    for position, values in enumerate(values_list):
        groups.setdefault(tuple(values), []).append(position)
    ordered = sorted(groups, key=encode_key)
    first_key = tuple(values_list[0])
    if probe._version != probe.indexes.version and ordered[0] != first_key:
        ordered.remove(first_key)
        ordered.insert(0, first_key)
    results = [False] * len(values_list)
    for key in ordered:
        positions = groups[key]
        before = tracker.snapshot() if len(positions) > 1 else None
        hit = check(key)
        if before is not None:
            delta = tracker.snapshot().diff(before)
            extra = len(positions) - 1
            for name, amount in delta.counters.items():
                if amount:
                    tracker.count(name, amount * extra)
        for position in positions:
            results[position] = hit
    return results


def exists_eq_many(
    table: Table,
    columns: Sequence[str],
    values_list: Sequence[Sequence[Any]],
    null_columns: Sequence[str] = (),
    view: Any = None,
) -> list[bool]:
    """Vectorized :func:`exists_eq`: one answer per entry of
    *values_list*, walking the index once per distinct key
    (:func:`check_distinct`)."""
    probe = prepared(table, columns, null_columns)
    return check_distinct(probe, values_list, lambda key: probe.exists(key, view))
