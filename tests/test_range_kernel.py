"""Counter parity of the range-at-a-time probe kernel.

``PreparedProbe`` answers a probe a leaf run (or a scope's whole range)
at a time and *computes* its charges from where the hit fell.  The
entry-at-a-time generators and per-row loops it replaced are kept here,
verbatim in behaviour, as the reference: for every tree shape, prefix,
residual and hit position the result and all four scan counters —
``index_node_reads``, ``index_entries_scanned``, ``rows_fetched``,
``rows_examined`` — must be what the reference counts.  So is the
``_first_hit`` scan of a scope's range (:func:`ref_scoped_find`), which
a scoped probe now answers by a point lookup on a full-key B+ tree, or
by a census where the table has none.

``derandomize=True`` fixes the example generation so tier-1 stays
reproducible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import prepare_cell
from repro.constraints.actions import ReferentialAction
from repro.core.strategies import IndexStructure
from repro.indexes.btree import BPlusTree
from repro.indexes.cost import CostTracker
from repro.indexes.definition import IndexDefinition, IndexKind
from repro.indexes.hash import HashIndex
from repro.indexes.keys import encode_component, encode_key
from repro.nulls import NULL
from repro.query import dml, probes
from repro.query.predicate import equalities
from repro.storage.schema import Column
from repro.storage.table import Table
from repro.workloads import synthetic

SCAN_COUNTERS = (
    "index_node_reads",
    "index_entries_scanned",
    "rows_fetched",
    "rows_examined",
    "full_scans",
)


# ----------------------------------------------------------------------
# The reference: the per-entry generators and per-row loops as they were.


def ref_scan_from(tree: BPlusTree, tracker: CostTracker, low):
    node = tree._root
    reads = 1
    while not node.is_leaf:
        node = node.children[bisect_right(node.separators, low)]
        reads += 1
    tracker.count("index_node_reads", reads)
    leaf = node
    pos = bisect_left(leaf.entries, low)
    while leaf is not None:
        entries = leaf.entries
        start = pos
        try:
            while pos < len(entries):
                yield entries[pos]
                pos += 1
        finally:
            tracker.count("index_entries_scanned", pos - start)
        leaf = leaf.next
        pos = 0
        if leaf is not None:
            tracker.count("index_node_reads")


def ref_scan_prefix(tree: BPlusTree, tracker: CostTracker, prefix):
    for entry in ref_scan_from(tree, tracker, prefix):
        if entry[: len(prefix)] != prefix:
            return
        yield entry


def ref_lookup(index, tracker: CostTracker, key):
    tracker.count("index_node_reads")
    for rid in index._structure._buckets.get(key, ()):
        tracker.count("index_entries_scanned")
        yield (*key, rid)


def ref_matches(row, eq_position_slots, null_positions, values) -> bool:
    for position, slot in eq_position_slots:
        actual = row[position]
        if actual is NULL or actual != values[slot]:
            return False
    for position in null_positions:
        if row[position] is not NULL:
            return False
    return True


def ref_find(probe: probes.PreparedProbe, values, view=None):
    """The old ``find`` / ``_find_view``: one row at a time."""
    probe._bind(values)
    table = probe.table
    tracker = table.tracker
    position = table.schema.position
    eq_positions = [(position(c), s) for s, c in enumerate(probe.columns)]
    null_positions = [position(c) for c in probe.null_columns]
    divergent = view.divergent_rids(table.name) if view is not None else ()

    index = probe._index
    if index is None:
        tracker.count("full_scans")
        examined = 0
        try:
            for rid, row in table.heap.scan_unordered():
                if rid in divergent:
                    continue
                examined += 1
                if ref_matches(row, eq_positions, null_positions, values):
                    return row
        finally:
            tracker.count("rows_examined", examined)
    else:
        prefix = tuple(encode_component(values[s]) for s in probe._prefix_slots)
        residual = [
            (position(probe.columns[s]), s) for s in probe._residual_slots
        ]
        if index.kind is IndexKind.BTREE:
            scan = ref_scan_prefix(index._structure, tracker, prefix)
        else:
            scan = ref_lookup(index, tracker, prefix)
        fetched = 0
        try:
            for *__, rid in scan:
                if rid in divergent:
                    continue
                fetched += 1
                row = table.heap.get(rid)
                if ref_matches(row, residual, null_positions, values):
                    return row
        finally:
            scan.close()
            tracker.count("rows_fetched", fetched)
            tracker.count("rows_examined", fetched)

    examined = 0
    try:
        for rid in sorted(divergent):
            old_row = view.row(table.name, rid)
            if old_row is None:
                continue
            examined += 1
            if ref_matches(old_row, eq_positions, null_positions, values):
                return old_row
        return None
    finally:
        tracker.count("rows_examined", examined)


def ref_read_range(index, heap, prefix):
    """A range's rows in index order, the offset at which each leaf step
    was taken, and the descent's node reads."""
    rids, steps, descent = [], [], 0
    for entries, reads in index.runs(prefix):
        if descent:
            steps += [len(rids)] * reads
        else:
            descent = reads
        rids += [rid for *__, rid in entries]
    return [heap.get(rid) for rid in rids], steps, descent


def ref_scoped_find(probe: probes.PreparedProbe, values):
    """The scoped branch as it was before the census and the point
    lookup: read the whole range, scan it with ``_first_hit`` under the
    probe's own projection (residual equalities, then IS NULL columns),
    charge from the hit."""
    probe._bind(values)
    tracker = probe.table.tracker
    prefix = tuple(encode_component(values[s]) for s in probe._prefix_slots)
    rows, steps, reads = ref_read_range(probe._index, probe.table.heap, prefix)
    project = probe._residual_project
    expected = (
        probe._expected([values[s] for s in probe._residual_slots])
        if project is not None
        else None
    )
    at = probes._first_hit(project, expected, rows)
    if at < 0:
        tracker.count("index_node_reads", reads + len(steps))
        tracker.count("index_entries_scanned", len(rows))
        fetched = len(rows)
    else:
        tracker.count("index_node_reads", reads + bisect_right(steps, at))
        tracker.count("index_entries_scanned", at + probe._index.hit_scanned)
        fetched = at + 1
    tracker.count("rows_fetched", fetched)
    tracker.count("rows_examined", fetched)
    return rows[at] if at >= 0 else None


def measured(table: Table, run):
    before = table.tracker.snapshot()
    result = run()
    cost = table.tracker.snapshot().diff(before)
    return result, {name: cost[name] for name in SCAN_COUNTERS}


def assert_parity(table: Table, columns, values, null_columns=(), view=None, scope=None):
    probe = probes.prepared(table, columns, null_columns)
    expected = measured(table, lambda: ref_find(probe, values, view))
    assert measured(table, lambda: probe.find(values, view)) == expected
    found, cost = expected
    assert measured(table, lambda: probe.exists(values, view)) == (
        found is not None, cost
    )
    if scope is not None:
        assert measured(table, lambda: probe.exists(values, None, scope)) == (
            found is not None, cost
        )
    return expected


def via_index(table: Table, columns, null_columns=()) -> bool:
    """Did the planner give this shape an index (tiny tables scan)?"""
    return probes.prepared(table, columns, null_columns)._index is not None


# ----------------------------------------------------------------------
# Tables over deep, thinned-out trees.


def make_table(rows, deleted=(), index_defs=(IndexDefinition("by_a", ("a",)),)):
    """``t(a, b, c)`` with order-4 trees; ``c`` is unique per row, so a
    probe on ``(a, c)`` hits at one chosen position of the ``a`` range."""
    table = Table("t", [Column("a"), Column("b"), Column("c")], index_order=4)
    for definition in index_defs:
        table.create_index(definition)
    rids = [table.insert_row((a, b, c)) for c, (a, b) in enumerate(rows)]
    for position in sorted(set(deleted)):
        table.delete_rid(rids[position])
    for index in table.indexes:
        if index.kind is IndexKind.BTREE:
            index._structure.check_invariants()
    return table


def range_rows(table: Table, a):
    """The live rows with ``a = a`` in index order."""
    index = table.indexes.get("by_a")
    return [table.heap.get(rid) for rid in index.scan_equal((a,))]


values_ab = st.tuples(
    st.integers(0, 3), st.one_of(st.integers(0, 2), st.just(NULL))
)


@given(
    rows=st.lists(values_ab, max_size=90),
    data=st.data(),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_every_hit_position_charges_what_the_row_loop_counted(rows, data):
    deleted = data.draw(
        st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=len(rows))
        if rows else st.just([])
    )
    table = make_table(rows, deleted)
    tree = table.indexes.get("by_a")._structure
    assert table.indexes.get("by_a").hit_scanned == 0
    for a in range(5):  # 4 is never present: the empty range
        scope = probes.RangeScope()
        in_range = range_rows(table, a)
        # LIMIT 1 with nothing to test: the first entry is the hit
        found, cost = assert_parity(table, ("a",), (a,), scope=scope)
        assert (found is None) == (not in_range)
        if in_range and via_index(table, ("a",)):
            assert cost["index_entries_scanned"] == 0
            assert cost["rows_fetched"] == 1
        # a hit at every position of the range, then no hit at all
        for position, row in enumerate(in_range):
            found, cost = assert_parity(
                table, ("a", "c"), (a, row[2]), scope=scope
            )
            assert found == row
            if via_index(table, ("a", "c")):
                assert cost["index_entries_scanned"] == position
                assert cost["rows_fetched"] == position + 1
                assert cost["rows_examined"] == position + 1
        found, cost = assert_parity(table, ("a", "c"), (a, -1), scope=scope)
        assert found is None
        if via_index(table, ("a", "c")):
            assert cost["index_entries_scanned"] == len(in_range)
        # the state-probe shape: residual equality plus IS NULL
        for b in (0, NULL):
            if b is NULL:
                assert_parity(table, ("a",), (a,), ("b",), scope=scope)
            else:
                assert_parity(table, ("a", "b"), (a, b), scope=scope)
        assert len(scope) <= 1  # one range, read once, served them all
    # the entry-at-a-time scan re-expressed over the same primitive
    for a in range(5):
        prefix = encode_key((a,))
        stops = len(range_rows(table, a)) + 1
        for stop in range(stops + 1):
            reference, actual = CostTracker(), CostTracker()
            tree._tracker = actual
            try:
                ours = tree.scan_prefix(prefix)
                theirs = ref_scan_prefix(tree, reference, prefix)
                for __ in range(stop):
                    assert next(ours, None) == next(theirs, None)
                ours.close()
                theirs.close()
            finally:
                tree._tracker = table.tracker
            assert actual.counters == reference.counters


@given(
    rows=st.lists(values_ab, max_size=40),
    data=st.data(),
)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_full_scans_and_compound_prefixes_keep_their_charges(rows, data):
    compound = (IndexDefinition("by_ab", ("a", "b")),)
    for index_defs in ((), compound):
        table = make_table(rows, index_defs=index_defs)
        for a in range(5):
            assert_parity(table, ("a",), (a,))
            assert_parity(table, ("a", "b"), (a, 1))
            assert_parity(table, ("a",), (a,), ("b",))
            for row in table.rows():
                if row[0] == a:
                    assert_parity(table, ("a", "c"), (a, row[2]))
                    assert_parity(table, ("c",), (row[2],))


def test_hash_lookups_are_charged_the_entry_they_stop_on():
    rows = [(i % 3, i % 2) for i in range(30)]
    table = make_table(
        rows, index_defs=(IndexDefinition("h_a", ("a",), IndexKind.HASH),)
    )
    assert table.indexes.get("h_a").hit_scanned == 1
    scope = probes.RangeScope()
    for row in table.rows():
        found, cost = assert_parity(
            table, ("a", "c"), (row[0], row[2]), scope=scope
        )
        assert found == row
        assert cost["index_entries_scanned"] == cost["rows_fetched"]
    assert_parity(table, ("a",), (1,), scope=scope)
    assert_parity(table, ("a", "c"), (1, -1), scope=scope)
    assert_parity(table, ("a",), (7,), scope=scope)


# ----------------------------------------------------------------------
# ``first_entry``: the LIMIT-1 probes' one-descent lookup.


def first_of_runs(structure, prefix):
    """The reference: what a consumer of ``runs(prefix)`` that stops at
    its first non-empty slice sees (that slice's first entry) and pays
    (the reads of every slice it asked for)."""
    reads = 0
    for entries, run_reads in structure.runs(prefix):
        reads += run_reads
        if entries:
            return entries[0], reads
    return None, reads


def assert_first_entry_parity(structure, prefixes):
    tracker = structure._tracker
    for prefix in prefixes:
        before = tracker.snapshot()
        assert structure.first_entry(prefix) == first_of_runs(structure, prefix)
        assert tracker.snapshot().diff(before).total_logical_cost() == 0


def all_prefixes(components, width=2):
    """The empty prefix, every one-component prefix and, over a
    two-column key, every full key over *components* — present in the
    tree or not.  (A prefix is never wider than the key: past the key
    an entry holds its rid.)"""
    ones = [encode_key((a,)) for a in components]
    if width == 1:
        return [()] + ones
    return [()] + ones + [one + encode_key((b,)) for one in ones for b in components]


key_parts = st.one_of(st.integers(0, 3), st.just(NULL))


@given(
    keys=st.lists(st.tuples(key_parts, key_parts), max_size=120),
    data=st.data(),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_first_entry_is_the_first_hit_of_runs(keys, data):
    tree = BPlusTree(order=4, tracker=CostTracker())
    entries = [(encode_key(key), rid) for rid, key in enumerate(keys)]
    for key, rid in entries:
        tree.insert(key, rid)
    deleted = data.draw(st.sets(st.sampled_from(entries)) if entries else st.just(set()))
    for key, rid in deleted:
        tree.delete(key, rid)
    tree.check_invariants()
    assert_first_entry_parity(tree, all_prefixes([NULL, 0, 1, 2, 3, 4]))


def test_first_entry_over_a_non_uniform_tree():
    tree = BPlusTree(order=4, tracker=CostTracker())
    for i in range(96):
        tree.insert(encode_key((i // 16, i)), i)
    for i in range(96):
        if i % 16 < 12 and i // 16 in (1, 2):
            tree.delete(encode_key((i // 16, i)), i)
    assert tree._uniform is False  # a one-child node was spliced out
    assert_first_entry_parity(
        tree, all_prefixes([0, 1, 2, 3, 5, 6, 7]) + [encode_key((1, 13))]
    )


def test_first_entry_steps_past_an_exhausted_descent_leaf():
    index = leaf_table().indexes.get("by_a")
    prefix = encode_key((1,))
    (first, descent), (second, step) = list(index.runs(prefix))[:2]
    assert first == [] and second  # the range starts in the next leaf
    assert index.first_entry(prefix) == (second[0], descent + step)
    assert_first_entry_parity(
        index._structure, all_prefixes([NULL, 0, 1, 2, 3], width=1)
    )


def test_first_entry_of_a_hash_bucket():
    tracker = CostTracker()
    index = HashIndex(tracker)
    for rid in range(30):
        index.insert(encode_key((rid % 3, rid % 2)), rid)
    full_keys = [p for p in all_prefixes([NULL, 0, 1, 2, 3]) if len(p) == 2]
    assert_first_entry_parity(index, full_keys)
    assert index.first_entry(encode_key((9, 9))) == (None, 1)


# ----------------------------------------------------------------------
# The edge cases, pinned by name.


def leaf_table():
    """24 rows, ``a = c // 8``: three ranges of eight over order-4
    leaves, inserted in key order so every range starts on a leaf's
    first entry and ends on a leaf's last."""
    return make_table([(c // 8, NULL) for c in range(24)])


def runs_of(table: Table, a):
    return list(table.indexes.get("by_a").runs(encode_key((a,))))


def dive_reads(table: Table, columns, values) -> int:
    """What the optimizer's dives charge before the scan starts."""
    probe = probes.prepared(table, columns)
    return measured(table, lambda: probe._bind(values))[1]["index_node_reads"]


def test_descent_leaf_already_exhausted():
    table = leaf_table()
    # the separator is the range's first entry, so (prefix, -1) routes to
    # the leaf on its left, whose entries all sort before the range
    first, second = runs_of(table, 1)[:2]
    assert first[0] == [] and second[0] and second[1] == 1
    found, cost = assert_parity(table, ("a",), (1,))
    assert found == (1, NULL, 8)
    # the descent, and the step to where the run starts
    assert cost["index_node_reads"] - dive_reads(table, ("a",), (1,)) == first[1] + 1
    assert cost["index_entries_scanned"] == 0
    assert_parity(table, ("a", "c"), (1, 12), scope=probes.RangeScope())


def test_run_ending_exactly_on_a_leaf_boundary():
    table = leaf_table()
    runs = runs_of(table, 1)
    assert runs[-1] == ([], 1)  # one more step, zero entries
    assert sum(len(entries) for entries, __ in runs) == 8
    found, cost = assert_parity(
        table, ("a", "c"), (1, -1), scope=probes.RangeScope()
    )
    assert found is None
    assert cost["index_node_reads"] - dive_reads(table, ("a", "c"), (1, -1)) == sum(
        reads for __, reads in runs
    )
    assert cost["index_entries_scanned"] == 8
    # a hit on the run's last entry stops before that step
    found, hit_cost = assert_parity(table, ("a", "c"), (1, 15))
    assert found == (1, NULL, 15)
    assert hit_cost["index_node_reads"] == cost["index_node_reads"] - 1
    # the last range of the tree has no leaf to step to
    assert runs_of(table, 2)[-1][0] != []
    assert_parity(table, ("a", "c"), (2, -1))


def test_limit_one_hit_at_index_zero_scans_no_entry():
    table = leaf_table()
    for columns, values in ((("a",), (0,)), (("a", "c"), (0, 0))):
        found, cost = assert_parity(
            table, columns, values, scope=probes.RangeScope()
        )
        assert found == (0, NULL, 0)
        assert cost["index_entries_scanned"] == 0
        assert cost["rows_fetched"] == cost["rows_examined"] == 1


def test_limit_one_outside_a_scope_reads_no_further_than_its_hit(monkeypatch):
    table = leaf_table()
    fetched: list[int] = []
    fetch = table.heap.fetch

    def counting_fetch(rids):
        rids = list(rids)
        fetched.extend(rids)
        return fetch(rids)

    monkeypatch.setattr(table.heap, "fetch", counting_fetch)
    assert probes.find_eq(table, ("a", "c"), (1, 9)) == (1, NULL, 9)
    assert 0 < len(fetched) <= 4  # one order-4 leaf run, not the range of 8


def test_scope_reuse_after_an_early_hit():
    table = leaf_table()
    scope = probes.RangeScope()
    early = assert_parity(table, ("a", "c"), (1, 8), scope=scope)
    assert early[1]["rows_fetched"] == 1
    ((entries, steps, descent, censuses),) = scope.values()
    assert len(entries) == 8  # the whole range was read, once
    (by_c,) = censuses.values()  # ...and classified, once
    assert by_c == {c: c - 8 for c in range(8, 16)}
    # later probes answer from it, each charged as a fresh walk
    for c in (15, 11, -1, 8):
        assert_parity(table, ("a", "c"), (1, c), scope=scope)
    assert list(censuses.values()) == [by_c]
    assert_parity(table, ("a",), (1,), ("b",), scope=scope)
    assert list(scope.values()) == [(entries, steps, descent, censuses)]
    assert len(censuses) == 2  # another tested column, another census
    assert next(iter(censuses.values())) is by_c


# ----------------------------------------------------------------------
# The census: one classification pass per range, one lookup per probe.


def census_table(rows, kind=IndexKind.BTREE):
    """``t(a, b, c, d)`` over order-4 structures, indexed on ``a``;
    ``b`` and ``c`` repeat and may be NULL, ``d`` is unique per row."""
    table = Table(
        "t", [Column("a"), Column("b"), Column("c"), Column("d")], index_order=4
    )
    table.create_index(IndexDefinition("by_a", ("a",), kind))
    for d, (a, b, c) in enumerate(rows):
        table.insert_row((a, b, c, d))
    return table


def assert_census_parity(table, scope, columns, values, null_columns=()):
    """A scoped probe answers and charges what the ``_first_hit`` scan
    of the same range did; False when the planner chose a full scan."""
    probe = probes.prepared(table, columns, null_columns)
    actual = measured(table, lambda: probe.exists(values, None, scope))
    if probe._index is None:
        return False
    found, cost = measured(table, lambda: ref_scoped_find(probe, values))
    assert actual == (found is not None, cost)
    return True


small = st.one_of(st.integers(0, 2), st.just(NULL))


@given(rows=st.lists(st.tuples(st.integers(0, 2), small, small), max_size=70))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_census_answers_and_charges_like_the_first_hit_scan(rows):
    for kind in (IndexKind.BTREE, IndexKind.HASH):
        table = census_table(rows, kind)
        for a in range(4):  # 3 is never present: the empty range
            scope = probes.RangeScope()
            in_range = [row for row in table.rows() if row[0] == a]
            patterns = {row[1:3] for row in in_range} | {(0, 1), (NULL, NULL), (7, 7)}
            indexed = True
            for b, c in sorted(patterns, key=repr):
                # one tested column set (b, c), split four ways between
                # ``=`` and IS NULL the way the null-states split a key
                eq = [(n, v) for n, v in (("b", b), ("c", c)) if v is not NULL]
                columns = ("a", *[n for n, __ in eq])
                values = (a, *[v for __, v in eq])
                nulls = tuple(n for n, v in (("b", b), ("c", c)) if v is NULL)
                indexed &= assert_census_parity(table, scope, columns, values, nulls)
            if indexed and scope:
                ((__, __, __, censuses),) = scope.values()
                assert list(censuses) == [(1, 2)]  # shared by every split
            # one-column residuals project to the bare value: a hit at
            # every position, a miss, an IS NULL pattern, many duplicates
            for row in in_range:
                assert_census_parity(table, scope, ("a", "d"), (a, row[3]))
            assert_census_parity(table, scope, ("a", "d"), (a, -1))
            assert_census_parity(table, scope, ("a",), (a,), ("b",))
            for b in range(3):
                assert_census_parity(table, scope, ("a", "b"), (a, b))
            assert_census_parity(table, scope, ("a",), (a,))  # nothing to test
            assert len(scope) <= 1


def test_state_shapes_reading_one_range_share_one_census():
    # 30 rows under a = 1; the first of each (b, c) pattern sits at 0..8
    rows = [(1, (NULL, 0, 1)[i % 3], (NULL, 0, 1)[i // 3 % 3]) for i in range(30)]
    table = census_table(rows + [(0, 0, 0)] * 30)
    scope = probes.RangeScope()
    assert assert_census_parity(table, scope, ("a", "b"), (1, 0), ("c",))
    ((entries_read, __, __, censuses),) = scope.values()
    (census,) = censuses.values()
    assert len(entries_read) == 30
    assert census == {
        ((NULL, 0, 1)[i % 3], (NULL, 0, 1)[i // 3 % 3]): i for i in range(9)
    }
    # the other states of the "key" (b, c), and a total probe, read the
    # same range and ask the same census: nothing is built again
    assert assert_census_parity(table, scope, ("a", "c"), (1, 1), ("b",))
    assert assert_census_parity(table, scope, ("a",), (1,), ("b", "c"))
    assert assert_census_parity(table, scope, ("a", "b", "c"), (1, 1, 1))
    assert assert_census_parity(table, scope, ("a", "b", "c"), (1, 1, 7))  # a miss
    assert len(scope) == 1 and list(censuses.values()) == [census]
    assert next(iter(censuses.values())) is census
    # cleared, the next probe reads and classifies the range again
    scope.clear()
    assert assert_census_parity(table, scope, ("a", "b"), (1, 0), ("c",))
    ((again, __, __, recount),) = scope.values()
    assert again is not entries_read and recount is not censuses
    assert recount == censuses


# ----------------------------------------------------------------------
# The point lookup: a B+ tree over exactly the tested columns answers a
# scoped probe with one lookup of the full pattern and one bisect.


def triple_table(rows, index_defs, deleted=()):
    """``t(a, b, c)`` over order-4 structures; every column may repeat
    and ``b``, ``c`` may be NULL, so patterns have duplicates."""
    table = Table("t", [Column("a"), Column("b"), Column("c")], index_order=4)
    for definition in index_defs:
        table.create_index(definition)
    rids = [table.insert_row(row) for row in rows]
    for position in sorted(set(deleted)):
        table.delete_rid(rids[position])
    return table


BOUNDED_ABC = (
    IndexDefinition("by_abc", ("a", "b", "c")),
    IndexDefinition("by_a", ("a",)),
    IndexDefinition("by_b", ("b",)),
    IndexDefinition("by_c", ("c",)),
)
HYBRID_ABC = (IndexDefinition("by_abc", ("a", "b", "c")),)


def state_shapes(key):
    """Every null-state probe of *key* over ``(a, b, c)``, as the §6.1
    loop asks them: ``(columns, values, IS NULL columns)``."""
    names = ("a", "b", "c")
    for mask in range(1, 7):  # neither all-total nor all-null
        nulls = tuple(n for i, n in enumerate(names) if mask >> i & 1)
        total = [(n, v) for i, (n, v) in enumerate(zip(names, key)) if not mask >> i & 1]
        yield tuple(n for n, __ in total), tuple(v for __, v in total), nulls


def assert_point_parity(table, scope, columns, values, null_columns=()):
    """A scoped probe answers and charges what the ``_first_hit`` scan
    of its range did.  None when the planner chose a full scan, else
    whether the point lookup answered it."""
    probe = probes.prepared(table, columns, null_columns)
    actual = measured(table, lambda: probe.exists(values, None, scope))
    if probe._index is None:
        return None
    found, cost = measured(table, lambda: ref_scoped_find(probe, values))
    assert actual == (found is not None, cost)
    return probe._point is not None


def assert_states_parity(table, keys):
    """Every state of every key through one scope per key, as the §6.1
    loop shares it; returns how many probes the point lookup answered."""
    answered = 0
    for key in keys:
        scope = probes.RangeScope()
        for columns, values, nulls in state_shapes(key):
            answered += bool(assert_point_parity(table, scope, columns, values, nulls))
        # a B+ tree over (a, b, c) covers every state: nothing classified
        assert all(not censuses for *__, censuses in scope.values())
    return answered


triples = st.tuples(st.integers(0, 2), small, small)


@given(
    rows=st.lists(triples, max_size=80),
    data=st.data(),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_point_lookup_answers_and_charges_like_the_first_hit_scan(rows, data):
    deleted = data.draw(
        st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=len(rows) // 2)
        if rows else st.just([])
    )
    for index_defs in (BOUNDED_ABC, HYBRID_ABC):
        table = triple_table(rows, index_defs, deleted)
        # every row's own key: a hit at the first position of each of
        # its patterns, duplicates included, in every range it falls in;
        # then misses, and the empty range (a = 3 is never present)
        keys = set(table.rows())
        answered = assert_states_parity(
            table,
            sorted(keys | {(0, 7, 7), (1, NULL, 7), (3, 0, NULL), (3, 1, 1)}, key=repr),
        )
        assert answered or not keys


def test_point_lookup_at_every_position_between_leaf_boundaries():
    """``by_a`` over 24 rows in key order: the range ``a = 1`` starts on
    a leaf's first entry (the descent leaf is already exhausted) and
    ends on a leaf boundary (one more step, zero entries).  The pattern
    ``(1, NULL)`` is planted at every position of it, then nowhere."""
    defs = (IndexDefinition("by_a", ("a",)), IndexDefinition("by_ab", ("a", "b")))
    for position in (*range(8), None):
        # the pattern at *position*, and a duplicate after it
        planted = (
            {8 + position, 8 + min(position + 3, 7)} if position is not None else set()
        )
        table = make_table(
            [(c // 8, NULL if c in planted else 0) for c in range(24)],
            index_defs=defs,
        )
        runs = runs_of(table, 1)
        assert runs[0][0] == [] and runs[-1] == ([], 1)
        scope = probes.RangeScope()
        found, cost = assert_parity(table, ("a",), (1,), ("b",), scope=scope)
        probe = probes.prepared(table, ("a",), ("b",))
        assert (probe._index.name, probe._point.name) == ("by_a", "by_ab")
        ((entries, __, __, censuses),) = scope.values()
        assert len(entries) == 8 and not censuses
        if position is None:
            assert found is None and cost["index_entries_scanned"] == 8
        else:
            assert found == (1, NULL, 8 + position)
            assert cost["index_entries_scanned"] == position
            assert cost["rows_fetched"] == cost["rows_examined"] == position + 1


def test_point_lookup_over_a_non_uniform_tree():
    """After a one-child splice ``by_a`` has leaves at two depths: dives
    walk instead of charging a flat height, and a range's descent is
    whatever its path costs.  The point path charges what the scan did."""
    rows = [(c // 16, NULL if c % 3 else 0, c % 5) for c in range(96)]
    deleted = [i for i in range(96) if i % 16 < 12 and i // 16 in (1, 2)]
    table = triple_table(rows, BOUNDED_ABC, deleted)
    assert table.indexes.get("by_a")._structure._uniform is False
    keys = set(table.rows()) | {(1, 0, 7), (2, NULL, NULL), (9, 0, 0)}
    assert assert_states_parity(table, sorted(keys, key=repr))


def test_hash_planned_range_answers_through_the_census():
    """A hash bucket has no key order to bisect: a probe planned on the
    hash index asks a census even though a full-key B+ tree exists."""
    rows = [(i % 3, (NULL, 0, 1)[i % 4 % 3], (NULL, 0)[i % 5 % 2]) for i in range(40)]
    table = triple_table(
        rows,
        (IndexDefinition("a_hash", ("a",), IndexKind.HASH), *HYBRID_ABC),
    )
    for key in sorted(set(table.rows()) | {(1, 7, 7), (5, 0, 0)}, key=repr):
        scope = probes.RangeScope()
        assert assert_point_parity(table, scope, ("a",), key[:1], ("b", "c")) is False
        probe = probes.prepared(table, ("a",), ("b", "c"))
        assert probe._index.kind is IndexKind.HASH and probe._point is None
        if scope:
            ((__, __, __, censuses),) = scope.values()
            assert list(censuses) == [(1, 2)]
        # a shape the B+ tree plans still takes the point path beside it
        if key[1] is not NULL:
            assert assert_point_parity(table, scope, ("a", "b"), key[:2], ("c",))


def test_a_table_without_a_full_key_index_answers_through_the_census(monkeypatch):
    """The selection is on the catalog: with no B+ tree over exactly the
    tested columns a probe asks a census of its range; once one exists,
    a point lookup answers, classifies nothing and fetches no range row.
    Both charge what the scan of their planned range charged."""
    rows = [(1, (NULL, 0, 1)[i % 3], (NULL, 0, 1)[i // 3 % 3]) for i in range(30)]
    table = census_table(rows + [(0, 0, 0)] * 30)
    fetched = []
    fetch = table.heap.fetch
    monkeypatch.setattr(
        table.heap, "fetch", lambda rids: fetched.append(1) or fetch(rids)
    )
    shapes = [
        (("a", "b"), (1, 0), ("c",)),
        (("a", "c"), (1, 1), ("b",)),
        (("a",), (1,), ("b", "c")),
        (("a", "b"), (1, 7), ("c",)),
    ]
    answers = []
    for by_point in (False, True):
        if by_point:
            table.create_index(IndexDefinition("by_abc", ("a", "b", "c")))
        fetched.clear()
        scope = probes.RangeScope()
        for columns, values, nulls in shapes:
            assert assert_census_parity(table, scope, columns, values, nulls)
            assert (probes.prepared(table, columns, nulls)._point is not None) is by_point
        assert any(censuses for *__, censuses in scope.values()) is not by_point
        assert bool(fetched) is not by_point
        answers.append(
            [probes.exists_eq(table, c, v, n) for c, v, n in shapes]
        )
    assert answers[0] == answers[1] == [True, True, True, False]


@pytest.mark.parametrize("structure", list(IndexStructure), ids=lambda s: s.value)
def test_point_path_charges_what_the_census_charged_under_every_structure(
    structure, monkeypatch
):
    """Parent deletes over a cell with many partial children, once as
    the catalog selects and once with the point lookup forced off: the
    same counters, the same child rows."""
    plan = probes.PreparedProbe._plan

    def census_only(self, values):
        plan(self, values)
        self._point = None

    for n in (2, 3, 5):
        config = synthetic.SyntheticConfig(
            n_columns=n, parent_rows=150, null_fraction=0.4, seed=11
        )
        keys = None
        results = []
        for forced in (False, True):
            cell = prepare_cell(config, structure)
            keys = keys or synthetic.delete_stream(cell.dataset, 20)
            fetched = counting_fetches(cell, monkeypatch)
            if forced:
                monkeypatch.setattr(probes.PreparedProbe, "_plan", census_only)
            results.append(run_deletes(cell, keys))
            monkeypatch.undo()
            if not forced:
                child = cell.db.table(cell.fk.child_table)
                covered = any(len(i.columns) == n for i in child.indexes)
                assert (fetched[0] == 0) is (covered or structure is IndexStructure.NO_INDEX)
        assert results[0] == results[1]
        assert results[0][0]["state_checks"] > 0


def state_loop_cell(
    action=ReferentialAction.SET_NULL, n_columns=3, structure=IndexStructure.BOUNDED
):
    config = synthetic.SyntheticConfig(
        n_columns=n_columns, parent_rows=60, null_fraction=0.6, seed=5
    )
    cell = prepare_cell(config, structure)
    cell.fk.on_delete = action  # read when the AFTER DELETE trigger fires
    return cell, synthetic.delete_stream(cell.dataset, 40)


def run_deletes(cell, keys):
    db, fk = cell.db, cell.fk
    before = db.tracker.snapshot()
    for key in keys:
        dml.delete_where(db, fk.parent_table, equalities(fk.key_columns, key))
    cost = db.tracker.snapshot().diff(before).as_dict()
    return cost, sorted(db.table(fk.child_table).rows(), key=repr)


def counting_fetches(cell, monkeypatch):
    """Count the child rows the probes bulk-fetch (``HeapFile.fetch``
    has no other caller)."""
    heap = cell.db.table(cell.fk.child_table).heap
    fetch = heap.fetch
    fetched = [0]

    def counting(rids):
        rows = fetch(rids)
        fetched[0] += len(rows)
        return rows

    monkeypatch.setattr(heap, "fetch", counting)
    return fetched


def assert_scope_is_cleared_by(action, monkeypatch):
    """The scoped state loop equals the un-scoped one, counter for
    counter and row for row — and only because it clears its scope.
    Bounded answers every scoped probe by a point lookup on its
    compound child index, Singleton from a census of each range: the
    same holds on both paths."""
    for structure, point in (
        (IndexStructure.BOUNDED, True), (IndexStructure.SINGLETON, False)
    ):
        scoped_cell, keys = state_loop_cell(action, structure=structure)
        fetched = counting_fetches(scoped_cell, monkeypatch)
        scoped = run_deletes(scoped_cell, keys)
        monkeypatch.undo()
        # the state loops did apply actions between their probes
        assert scoped[0]["index_maintenance_ops"] > len(keys) * 4
        # ...and went down the path the catalog selects
        assert (fetched[0] == 0) is point

        unscoped_cell, __ = state_loop_cell(action, structure=structure)
        exists = probes.PreparedProbe.exists
        monkeypatch.setattr(
            probes.PreparedProbe, "exists",
            lambda self, values, view=None, scope=None: exists(self, values, view),
        )
        assert run_deletes(unscoped_cell, keys) == scoped
        monkeypatch.undo()

        # ...and it is the invalidation that keeps them equal: a scope
        # that outlives the action charges ranges that are no longer there
        stale_cell, __ = state_loop_cell(action, structure=structure)
        monkeypatch.setattr(probes.RangeScope, "clear", lambda self: None)
        assert run_deletes(stale_cell, keys)[0] != scoped[0]
        monkeypatch.undo()


def test_scope_invalidation_when_set_null_rewrites_children_mid_loop(monkeypatch):
    assert_scope_is_cleared_by(ReferentialAction.SET_NULL, monkeypatch)


@pytest.mark.parametrize(
    "action", [ReferentialAction.CASCADE, ReferentialAction.SET_DEFAULT],
    ids=lambda action: action.name,
)
def test_scope_invalidation_under_cascade_and_set_default(action, monkeypatch):
    assert_scope_is_cleared_by(action, monkeypatch)


def test_scope_holds_one_range_and_one_census_per_index_prefix(monkeypatch):
    """RangeScope's bound.  Every prefix a state probe of one removed key
    binds is drawn from that key, so an index and a prefix length name
    one range: at most one per prefix length 1..n-1 of each child index,
    dropped with the key's loop.  Every probe of a range tests the same
    columns, the foreign key's.  Under Bounded the compound child index
    is a B+ tree over exactly those, so a delete holds at most ``2n - 1``
    ranges, builds no census and bulk-fetches no heap row; Singleton has
    no such index and builds one census per range, ``n`` at most."""
    peak = {"ranges": 0, "censuses": 0, "scopes": 0}

    class WatchedScope(probes.RangeScope):
        def __init__(self):
            super().__init__()
            peak["scopes"] += 1

        def get(self, key):
            peak["ranges"] = max(peak["ranges"], len(self))
            named = [(index.name, len(prefix)) for index, prefix in self]
            assert len(set(named)) == len(named)
            for __, __, __, censuses in self.values():
                assert len(censuses) <= 1
                peak["censuses"] = max(peak["censuses"], len(censuses))
            return super().get(key)

    n = 5
    for structure, widths, bound, censuses in (
        (IndexStructure.BOUNDED, [1] * n + [n], 2 * n - 1, 0),
        (IndexStructure.SINGLETON, [1] * n, n, 1),
    ):
        peak.update(ranges=0, censuses=0, scopes=0)
        cell, keys = state_loop_cell(n_columns=n, structure=structure)
        child = cell.db.table(cell.fk.child_table)
        assert sorted(len(index.columns) for index in child.indexes) == widths
        fetched = counting_fetches(cell, monkeypatch)
        monkeypatch.setattr(probes, "RangeScope", WatchedScope)
        run_deletes(cell, keys)
        monkeypatch.undo()
        assert peak["scopes"] == len(keys)  # one per removed key
        assert peak["censuses"] == censuses
        assert (fetched[0] == 0) is (censuses == 0)
        assert sum(min(width, n - 1) for width in widths) == bound
        assert peak["ranges"] <= bound
        if structure is IndexStructure.BOUNDED:
            # more than one per index: the compound one is read at
            # several depths
            assert len(widths) < peak["ranges"]


# ----------------------------------------------------------------------
# Views: divergent rids are consumed from the index but never fetched.


def test_view_probes_skip_and_then_resolve_divergent_rids():
    from repro import Column as C, Database, DataType

    db = Database("kernel-view")
    db.create_table("t", [
        C("a", DataType.INTEGER), C("b", DataType.INTEGER),
        C("c", DataType.INTEGER),
    ])
    table = db.table("t")
    table.create_index(IndexDefinition("by_a", ("a",)))
    db.enable_mvcc()
    for c in range(24):
        db.insert("t", (c // 8, NULL, c))
    snap = db.versions.open_snapshot()
    dml.update_where(db, "t", {"b": 5}, equalities(("c",), (10,)))
    dml.delete_where(db, "t", equalities(("c",), (12,)))
    db.insert("t", (1, NULL, 99))
    view = snap.view()
    assert len(view.divergent_rids("t")) == 3
    for c in (8, 10, 11, 12, 13, 15, 99, -1):
        assert_parity(table, ("a", "c"), (1, c), view=view)
    assert_parity(table, ("a",), (1,), view=view)
    assert_parity(table, ("a",), (1,), ("b",), view=view)
    assert_parity(table, ("c",), (12,), view=view)  # full scan
    assert probes.find_eq(table, ("a", "c"), (1, 12), view=view) == (1, NULL, 12)
    assert probes.find_eq(table, ("a", "c"), (1, 99), view=view) is None


# ----------------------------------------------------------------------
# Footprint: one flat tuple per index entry.


def entry_bytes(build):
    """Run *build* under tracemalloc; return what it returns and the
    bytes still allocated by the code that makes index entries and
    their keys (``indexes/manager.py`` and ``indexes/keys.py``) — the
    tree nodes and leaf lists are not entries."""
    import tracemalloc

    import repro.indexes.keys as keys_module
    import repro.indexes.manager as manager_module

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        result = build()
        snapshot = tracemalloc.take_snapshot()
    finally:
        if started:
            tracemalloc.stop()
    makers = [
        tracemalloc.Filter(True, module.__file__)
        for module in (manager_module, keys_module)
    ]
    traced = snapshot.filter_traces(makers).statistics("filename")
    return result, sum(stat.size for stat in traced)


def test_a_bounded_cell_allocates_one_small_tuple_per_index_entry():
    """A 2,000-parent Bounded cell (n = 5: six indexes a table, five of
    one column and one of five) and then inserts through the row
    fan-out: every entry is one tuple ``(c1, …, cn, rid)`` — 56 bytes
    for one column, 88 for five.  The nested ``((c1, …, cn), rid)``
    pair cost 104 and 136, about 109 a entry here."""
    config = synthetic.SyntheticConfig(n_columns=5, parent_rows=2000)
    cell, built = entry_bytes(
        lambda: prepare_cell(config, IndexStructure.BOUNDED)
    )
    tables = cell.db.tables.values()
    entries = sum(len(index) for table in tables for index in table.indexes)
    assert len(list(cell.db.table("C").indexes)) == 6
    assert built / entries <= 64, f"{built / entries:.1f} bytes per entry"

    rows = synthetic.insert_stream(cell.dataset, 300)
    __, inserted = entry_bytes(
        lambda: [dml.insert(cell.db, "C", row) for row in rows]
    )
    assert inserted / (300 * 6) <= 64, f"{inserted / 1800:.1f} bytes per entry"
