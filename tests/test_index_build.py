"""One pass builds a table's indexes.

``IndexManager.create`` takes all of a table's new definitions, reads the
rows once and encodes each row once; every index then takes its entries
out of the shared encoding.  The parity test holds it to the
index-by-index build it replaced — kept below as the reference — on the
structures it leaves, the counters it charges and the error a duplicate
raises.  The restart test holds recovery to one heap scan per table.
"""

import gc
import hashlib
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Column,
    Database,
    EnforcedForeignKey,
    ForeignKey,
    IndexStructure,
    MatchSemantics,
    NULL,
    simulate_crash,
)
from repro.errors import KeyViolation
from repro.indexes.btree import BPlusTree
from repro.indexes.cost import CostTracker
from repro.indexes.definition import IndexDefinition, IndexKind
from repro.indexes.keys import NULL_COMPONENT, encode_key
from repro.indexes.manager import IndexManager, TableIndex
from repro.query import dml
from repro.query.predicate import Eq
from repro.storage.heap import HeapFile
from repro.storage.wal import WriteAheadLog

ORDER = 4
WIDTH = 3  # columns per row


def reference_build(tracker, specs, rows):
    """The index-by-index build: each index scans *rows* and encodes
    every row again for itself."""
    built = []
    for definition, positions in specs:
        index = TableIndex(definition, positions, tracker, ORDER)
        structure = index._structure
        name = definition.name
        if isinstance(structure, BPlusTree):
            entries = [
                (*encode_key([row[p] for p in positions]), rid) for rid, row in rows
            ]
            if definition.unique:
                seen = set()
                for entry in entries:
                    key = entry[:-1]
                    if NULL_COMPONENT in key:
                        continue
                    if key in seen:
                        raise KeyViolation(
                            f"unique index {name!r} violated by key {key!r}"
                        )
                    seen.add(key)
            structure.bulk_load(entries)
        else:
            for rid, row in rows:
                key = encode_key([row[p] for p in positions])
                if (
                    definition.unique
                    and NULL_COMPONENT not in key
                    and structure.first_with_key(key) is not None
                ):
                    raise KeyViolation(f"unique index {name!r} violated by key {key!r}")
                structure.insert(key, rid)
                tracker.count("index_maintenance_ops")
        built.append(index)
    return built


def shape(index, tracker):
    """What a build leaves, read without charging: a B+ tree's leaves,
    height, uniformity and entries, a hash index's buckets in the order
    they were made."""
    structure = index._structure
    tracker.enabled = False
    try:
        if isinstance(structure, BPlusTree):
            leaves = []
            leaf = structure._first_leaf
            while leaf is not None:
                leaves.append(list(leaf.entries))
                leaf = leaf.next
            return (
                index.name, leaves, structure._height, structure._uniform,
                list(index.scan_all()),
            )
        return (
            index.name,
            [(key, sorted(rids)) for key, rids in structure._buckets.items()],
            list(index.scan_all()),
        )
    finally:
        tracker.enabled = True


values = st.one_of(st.integers(0, 3), st.just(NULL))


@st.composite
def build_cases(draw):
    rows = draw(st.lists(st.tuples(*[values] * WIDTH), max_size=40))
    specs = []
    for number in range(draw(st.integers(1, 4))):
        positions = draw(st.permutations(range(WIDTH)))[: draw(st.integers(1, WIDTH))]
        definition = IndexDefinition(
            f"i{number}",
            tuple("abc"[p] for p in positions),
            kind=draw(st.sampled_from(IndexKind)),
            unique=draw(st.booleans()),
        )
        specs.append((definition, positions))
    # rids with gaps, as a heap with deleted rows has them
    return specs, [(3 * rid + 1, row) for rid, row in enumerate(rows)]


def outcome(build):
    try:
        return build(), None
    except KeyViolation as exc:
        return None, str(exc)


@given(build_cases())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_one_pass_build_matches_the_index_by_index_build(case):
    specs, rows = case
    ref_tracker, tracker = CostTracker(), CostTracker()
    reference, ref_error = outcome(lambda: reference_build(ref_tracker, specs, rows))
    manager = IndexManager(tracker, ORDER)
    (kept,) = manager.create([(IndexDefinition("kept", ("a",)), (0,))], rows)
    version = manager.version
    tracker.reset()
    built, error = outcome(lambda: manager.create(specs, iter(rows)))
    assert error == ref_error
    assert tracker.snapshot() == ref_tracker.snapshot()
    if error is not None:
        # all or none: nothing of the failed call is left
        assert list(manager) == [kept]
        assert manager.version == version
        return
    assert [shape(i, tracker) for i in built] == [
        shape(i, ref_tracker) for i in reference
    ]
    assert manager.names() == ["kept"] + [d.name for d, __ in specs]
    # the fan-out sees the new indexes too
    manager.insert_row(999, (NULL,) * WIDTH)
    assert all(len(index) == len(rows) + 1 for index in manager)


def test_build_charges_entries_and_maintenance_ops():
    rows = [(rid, (rid % 3, rid, NULL)) for rid in range(10)]
    specs = [
        (IndexDefinition("t_a", ("a",)), (0,)),
        (IndexDefinition("u_b", ("b",), unique=True), (1,)),
        (IndexDefinition("h_ab", ("a", "b"), kind=IndexKind.HASH), (0, 1)),
    ]
    tracker = CostTracker()
    IndexManager(tracker, ORDER).create(specs, rows)
    assert tracker["index_build_entries"] == 20  # the two B+ trees
    assert tracker["index_maintenance_ops"] == 10  # the hash index


def durable_table(rows):
    db = Database("build", index_order=ORDER)
    db.create_table("t", [Column("a"), Column("b")])
    for row in rows:
        db.insert("t", row)
    db.attach_wal(WriteAheadLog())
    return db


def create_index_records(db):
    return [r for r in db.wal.durable_records if r.kind == "create_index"]


def test_duplicate_leaves_no_index_and_no_wal_record():
    db = durable_table([(1, 5), (2, 5), (3, NULL), (4, NULL)])
    table = db.table("t")
    plain = IndexDefinition("t_a", ("a",))
    for kind in IndexKind:
        unique = IndexDefinition("u_b", ("b",), kind=kind, unique=True)
        with pytest.raises(KeyViolation, match="'u_b' violated"):
            db.create_indexes("t", [plain, unique])
        assert len(table.indexes) == 0
        assert create_index_records(db) == []
    # NULL keys never collide: a unique index over the NULL rows builds
    dml.delete_where(db, "t", Eq("a", 1))
    db.create_indexes("t", [plain, IndexDefinition("u_b", ("b",), unique=True)])
    assert table.indexes.names() == ["t_a", "u_b"]
    assert [r.payload[0].name for r in create_index_records(db)] == ["t_a", "u_b"]
    assert db.verify_integrity().ok


def test_one_create_logs_its_indexes_as_one_transaction():
    """Outside a transaction the records commit together: a crash keeps
    all of the indexes or none, and the call pays one commit."""
    db = durable_table([(a, a % 3) for a in range(6)])
    commits = len([r for r in db.wal.durable_records if r.kind == "commit"])
    db.create_indexes("t", [
        IndexDefinition("t_a", ("a",)),
        IndexDefinition("t_b", ("b",)),
        IndexDefinition("h_ab", ("a", "b"), kind=IndexKind.HASH),
    ])
    records = create_index_records(db)
    assert [r.payload[0].name for r in records] == ["t_a", "t_b", "h_ab"]
    assert len({r.txn_id for r in records}) == 1
    assert len([r for r in db.wal.durable_records if r.kind == "commit"]) == (
        commits + 1
    )
    simulate_crash(db)
    assert db.table("t").indexes.names() == ["t_a", "t_b", "h_ab"]


def digests(db):
    out = {}
    for table in db.tables.values():
        for index in table.indexes:
            entries = repr(list(index.scan_all())).encode()
            out[table.name, index.name] = hashlib.sha256(entries).hexdigest()
    return out


def test_recovery_rebuilds_every_index_with_one_heap_scan_per_table(monkeypatch):
    db = Database("restart", index_order=ORDER)
    db.create_table("p", [Column("k1", nullable=False), Column("k2", nullable=False)])
    db.create_table("c", [Column("x"), Column("f1"), Column("f2")])
    fk = ForeignKey(
        "fk", "c", ("f1", "f2"), "p", ("k1", "k2"), match=MatchSemantics.PARTIAL
    )
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    db.attach_wal(WriteAheadLog())
    with db.begin():
        for k in range(12):
            dml.insert(db, "p", (k % 4, k))
        for x in range(30):
            f1 = x % 4 if x % 3 else NULL
            dml.insert(db, "c", (x, f1, x % 12 if x % 5 else NULL))
    db.create_index("c", IndexDefinition("c_x", ("x",), unique=True))
    before = digests(db)
    assert len(before) == 2 + 4 + 1  # Bounded at n = 2, and c_x

    scans = []
    real_scan = HeapFile.scan

    def counting_scan(heap):
        scans.append(heap)
        return real_scan(heap)

    monkeypatch.setattr(HeapFile, "scan", counting_scan)
    report = simulate_crash(db)
    monkeypatch.undo()
    assert report.indexes_rebuilt == len(before)
    assert sorted(id(heap) for heap in scans) == sorted(
        id(table.heap) for table in db.tables.values()
    )
    assert db.verify_integrity().ok
    assert digests(db) == before


def index_problems(db):
    report = db.verify_integrity()
    return {
        index.name: index.problems
        for table in report.tables
        for index in table.indexes
        if index.problems
    }


def test_verify_encodes_each_row_once_and_names_what_is_wrong():
    db = durable_table([(a, a % 3) for a in range(8)])
    db.create_indexes("t", [
        IndexDefinition("t_a", ("a",)),
        IndexDefinition("h_b", ("b",), kind=IndexKind.HASH),
    ])
    assert db.verify_integrity().ok
    table = db.table("t")
    t_a = table.indexes.get("t_a")._structure
    h_b = table.indexes.get("h_b")._structure
    t_a.delete(encode_key((2,)), 2)  # rid 2 lost
    t_a.insert(encode_key((90,)), 3)  # rid 3 stale once re-keyed
    t_a.delete(encode_key((3,)), 3)
    h_b.insert(encode_key((1,)), 99)  # no row 99
    assert index_problems(db) == {
        "t_a": [
            "entry count 7 != row count 8",
            "row rid=2 missing from index",
            "row rid=3 missing from index",
            "stale entry rid=3: indexed key ((1, 90),) != row key",
        ],
        "h_b": ["entry count 9 != row count 8", "dangling entry rid=99"],
    }
    t_a.insert(encode_key((2,)), 2)
    t_a.insert(encode_key((3,)), 3)
    h_b.delete(encode_key((1,)), 99)
    # rid 3 is indexed under its own key and under a stale one
    assert index_problems(db) == {
        "t_a": ["entry count 9 != row count 8", "rids indexed more than once: [3]"],
    }


def test_a_dropped_table_is_freed_by_reference_counting():
    """A table's probe cache holds prepared probes; a probe must not hold
    the table back, or every table is a cycle left for the collector."""
    db = Database("freed")
    db.create_table("p", [Column("k1", nullable=False), Column("k2", nullable=False)])
    db.create_table("c", [Column("x"), Column("f1"), Column("f2")])
    fk = ForeignKey(
        "fk", "c", ("f1", "f2"), "p", ("k1", "k2"), match=MatchSemantics.PARTIAL
    )
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    for k in range(6):
        dml.insert(db, "p", (k % 3, k))
    for x in range(6):
        dml.insert(db, "c", (x, x % 3, NULL))
    # the parent-side probe: (0, 0) goes, (0, 3) still covers (0, NULL)
    dml.delete_where(db, "p", Eq("k2", 0))
    assert db.table("c")._probe_cache and db.table("p")._probe_cache
    tables = [weakref.ref(table) for table in db.tables.values()]
    database = weakref.ref(db)
    gc.disable()
    try:
        del db, fk
        assert database() is None
        assert [ref() for ref in tables] == [None, None]
    finally:
        gc.enable()
