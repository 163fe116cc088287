"""Property-based tests: the B+ tree vs a sorted-list model, and the
flat ``(c1, …, cn, rid)`` entry layout vs the nested ``((c1, …, cn),
rid)`` pairs it replaced."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.indexes.btree import BPlusTree
from repro.indexes.cost import CostTracker
from repro.indexes.keys import AFTER_ALL, encode_key
from repro.nulls import NULL

values = st.one_of(st.integers(0, 30), st.just(NULL))
keys = st.tuples(values, values)


@st.composite
def entry_lists(draw):
    raw = draw(st.lists(st.tuples(keys, st.integers(0, 10_000)), max_size=200))
    seen = set()
    out = []
    for key, rid in raw:
        entry = (*encode_key(key), rid)
        if entry not in seen:
            seen.add(entry)
            out.append(entry)
    return out


@given(entry_lists())
@settings(max_examples=60)
def test_scan_all_is_sorted_and_complete(entries):
    t = BPlusTree(order=4)
    for entry in entries:
        t.insert_entry(entry)
    result = list(t.scan_all())
    assert result == sorted(entries)
    t.check_invariants()


@given(entry_lists(), st.data())
@settings(max_examples=60)
def test_delete_subset_matches_model(entries, data):
    t = BPlusTree(order=4)
    for entry in entries:
        t.insert_entry(entry)
    if entries:
        doomed = data.draw(st.lists(st.sampled_from(entries), unique=True))
    else:
        doomed = []
    for entry in doomed:
        t.delete_entry(entry)
    survivors = sorted(set(entries) - set(doomed))
    assert list(t.scan_all()) == survivors
    t.check_invariants()


@given(entry_lists(), keys)
@settings(max_examples=60)
def test_prefix_scan_matches_filter(entries, probe):
    t = BPlusTree(order=4)
    for entry in entries:
        t.insert_entry(entry)
    prefix = encode_key(probe)[:1]
    expected = sorted(e for e in entries if e[:1] == prefix)
    assert list(t.scan_prefix(prefix)) == expected


@given(entry_lists())
@settings(max_examples=40)
def test_bulk_load_equals_incremental(entries):
    bulk = BPlusTree(order=6)
    bulk.bulk_load(entries)
    inc = BPlusTree(order=6)
    for entry in entries:
        inc.insert_entry(entry)
    assert list(bulk.scan_all()) == list(inc.scan_all())
    bulk.check_invariants()


class BTreeMachine(RuleBasedStateMachine):
    """Stateful comparison of the tree against a Python-set model."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.model: set = set()

    inserted = Bundle("inserted")

    @rule(target=inserted, key=keys, rid=st.integers(0, 500))
    def insert(self, key, rid):
        entry = (*encode_key(key), rid)
        if entry in self.model:
            return entry
        self.tree.insert(entry[:-1], rid)
        self.model.add(entry)
        return entry

    @rule(entry=inserted)
    def delete(self, entry):
        if entry in self.model:
            self.tree.delete(entry[:-1], entry[-1])
            self.model.remove(entry)

    @invariant()
    def matches_model(self):
        assert list(self.tree.scan_all()) == sorted(self.model)
        assert len(self.tree) == len(self.model)


TestBTreeStateful = BTreeMachine.TestCase
TestBTreeStateful.settings = settings(max_examples=25, stateful_step_count=40)


# ----------------------------------------------------------------------
# Flat entries against the nested pairs they replaced.  The tree orders
# whatever entries it is given, so a second tree fed ``(key, rid)`` pairs
# is the nested layout exactly, and its ranges are read with the nested
# bounds ``(prefix, -1)`` … ``(prefix + (AFTER_ALL,), -1)``.


def flat(entry):
    key, rid = entry
    return (*key, rid)


def leaves(tree):
    out, leaf = [], tree._first_leaf
    while leaf is not None:
        out.append(list(leaf.entries))
        leaf = leaf.next
    return out


def nested_runs(tree, prefix):
    return [
        ([flat(e) for e in run], reads)
        for run, reads in tree._leaf_runs((prefix, -1), (prefix + (AFTER_ALL,), -1))
    ]


def first_of(runs):
    reads = 0
    for entries, run_reads in runs:
        reads += run_reads
        if entries:
            return entries[0], reads
    return None, reads


@given(data=st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_flat_entries_match_the_nested_layout(data):
    width = data.draw(st.integers(1, 3), label="width")
    column = st.one_of(st.integers(0, 3), st.just(NULL))
    row_keys = data.draw(
        st.lists(st.tuples(*[column] * width), max_size=150), label="keys"
    )
    nested = [(encode_key(key), rid) for rid, key in enumerate(row_keys)]
    if data.draw(st.booleans(), label="sorted arrival"):
        nested.sort()
    cut = data.draw(st.integers(0, len(nested)), label="run starts at")
    flat_tree = BPlusTree(order=4, tracker=CostTracker())
    nested_tree = BPlusTree(order=4, tracker=CostTracker())
    for entry in nested[:cut]:  # one at a time, in arrival order
        nested_tree.insert_entry(entry)
        flat_tree.insert(*entry)
    nested_tree.insert_run(nested[cut:])  # the rest as one run
    flat_tree.insert_run([flat(e) for e in nested[cut:]])
    doomed = (
        data.draw(st.lists(st.sampled_from(nested), unique=True), label="deleted")
        if nested
        else []
    )
    for entry in doomed:
        nested_tree.delete_entry(entry)
        flat_tree.delete(*entry)

    # the same splits at the same points, the same node reads charged
    assert leaves(flat_tree) == [
        [flat(e) for e in leaf] for leaf in leaves(nested_tree)
    ]
    assert flat_tree._height == nested_tree._height
    assert flat_tree._uniform == nested_tree._uniform
    assert flat_tree._tracker.snapshot() == nested_tree._tracker.snapshot()
    flat_tree.check_invariants()

    # every prefix length: empty, partial, full key; present or absent
    lengths = range(1, width + 1)
    prefixes = [()] + [encode_key(key[:n]) for key in row_keys[:6] for n in lengths]
    for n in lengths:
        drawn = data.draw(st.lists(st.tuples(*[column] * n), max_size=3))
        prefixes += [encode_key(p) for p in drawn]
    tracker = flat_tree._tracker
    for prefix in prefixes:
        expected = nested_runs(nested_tree, prefix)
        before = tracker.snapshot()
        assert list(flat_tree.runs(prefix)) == expected
        assert flat_tree.first_entry(prefix) == first_of(expected)
        assert tracker.snapshot() == before  # both uncharged
        assert flat_tree.first_with_prefix(prefix) == first_of(expected)[0]
        charged = tracker.snapshot().diff(before)
        assert charged["index_node_reads"] == first_of(expected)[1]
        before = tracker.snapshot()
        assert list(flat_tree.scan_prefix(prefix)) == [
            e for run, __ in expected for e in run
        ]
        charged = tracker.snapshot().diff(before)
        assert charged["index_node_reads"] == sum(r for __, r in expected)
        assert charged["index_entries_scanned"] == sum(
            len(run) for run, __ in expected
        )
