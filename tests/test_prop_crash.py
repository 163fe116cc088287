"""Property-based tests for the crash-consistency layer.

Two properties, each checked against a shadow model:

* **WAL round-trip** — for any sequence of transactions, each ending in
  commit, rollback, or a simulated crash, the recovered database equals
  the model that applied exactly the committed transactions; recovery
  is equivalent to "commit or rollback", never anything in between.
* **Savepoint interleavings** — for any interleaving of mutations,
  savepoint creation, partial rollbacks and releases, the transaction's
  final state equals the shadow model's, and (because partial rollbacks
  emit compensating WAL records) replaying the committed log after a
  crash reproduces that exact state.
* **Flush frames** — a store-backed log writes each flush as one CRC
  frame: reopened after a tear at any byte, it holds exactly the
  flushes whose frames ended before the tear, records in LSN order.

``derandomize=True`` fixes the example generation so tier-1 stays
deterministic run to run.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Column, Database
from repro.query import dml
from repro.query.predicate import Eq
from repro.storage.segments import SegmentStore
from repro.storage.wal import WriteAheadLog, simulate_crash

#: One row mutation; applied deterministically against the smallest key.
OPS = st.sampled_from(["insert", "delete", "update"])
#: How a transaction ends.
OUTCOMES = st.sampled_from(["commit", "rollback", "crash"])

transactions = st.lists(
    st.tuples(st.lists(OPS, min_size=1, max_size=6), OUTCOMES),
    min_size=1,
    max_size=5,
)


def make_db() -> Database:
    from repro.indexes.definition import IndexDefinition

    db = Database("prop")
    t = db.create_table("t", [Column("a"), Column("b")])
    t.create_index(IndexDefinition("by_a", ("a",)))
    for i in range(3):
        t.insert_row((i, 0))
    db.attach_wal(WriteAheadLog(capacity=8))  # small: overflows mid-txn
    return db


def apply_op(db: Database, model: dict, op: str, counter: list) -> None:
    """Run *op* against the database and mirror it in *model* (a→b)."""
    if op == "insert" or not model:
        counter[0] += 1
        value = 100 + counter[0]
        dml.insert(db, "t", (value, 0))
        model[value] = 0
    elif op == "delete":
        value = min(model)
        dml.delete_where(db, "t", Eq("a", value))
        del model[value]
    else:
        value = min(model)
        model[value] += 1
        dml.update_where(db, "t", {"b": model[value]}, Eq("a", value))


def table_state(db: Database) -> dict:
    return {row[0]: row[1] for row in db.table("t").rows()}


@given(transactions)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_recovery_lands_on_a_transaction_boundary(txns):
    db = make_db()
    model = table_state(db)
    counter = [0]
    for ops, outcome in txns:
        txn = db.begin()
        staged = dict(model)
        for op in ops:
            apply_op(db, staged, op, counter)
        if outcome == "commit":
            txn.commit()
            model = staged
        elif outcome == "rollback":
            txn.rollback()
        else:  # crash mid-transaction: the staged work must vanish
            db.freeze_for_crash()
            simulate_crash(db)
        assert table_state(db) == model
    report = simulate_crash(db)  # a final crash changes nothing committed
    assert table_state(db) == model
    assert db.verify_integrity().ok
    assert report.checkpoint_lsn == 0


#: Savepoint interleaving actions; indices are drawn lazily so they can
#: target whatever savepoints are active at that moment.
ACTIONS = st.sampled_from(["mutate", "save", "rollback_to", "release"])


@given(st.lists(ACTIONS, min_size=1, max_size=20), st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_savepoint_interleavings_match_model(actions, data):
    db = make_db()
    counter = [0]
    with db.begin() as txn:
        model = table_state(db)
        stack = []  # (savepoint, model snapshot at creation)
        for action in actions:
            if action == "mutate":
                op = data.draw(OPS, label="op")
                apply_op(db, model, op, counter)
            elif action == "save":
                stack.append((txn.savepoint(), dict(model)))
            elif stack:
                index = data.draw(
                    st.integers(0, len(stack) - 1), label="target"
                )
                sp, snapshot = stack[index]
                if action == "rollback_to":
                    txn.rollback_to(sp)
                    model = dict(snapshot)
                    del stack[index + 1:]  # later savepoints invalidated
                else:
                    txn.release(sp)
                    del stack[index:]  # sp and everything nested in it
            assert table_state(db) == model
    # Committed: the log's compensating records must replay to the same
    # state the partial rollbacks left behind.
    assert table_state(db) == model
    simulate_crash(db)
    assert table_state(db) == model
    assert db.verify_integrity().ok


@given(st.lists(st.integers(1, 300), min_size=1, max_size=5), st.data())
@settings(max_examples=30, derandomize=True, deadline=None)
def test_flush_frames_round_trip_and_tear_whole(sizes, data):
    with tempfile.TemporaryDirectory() as directory:
        wal = WriteAheadLog(capacity=1000, store=SegmentStore(directory))
        flushes, ends = [], []
        for size in sizes:
            txn_id = wal.begin()
            for i in range(size - 1):
                wal.log_mutation(txn_id, ("insert", "t", i, (i, size)))
            wal.commit(txn_id, sync=False)
            flushes.append(list(wal._buffer))
            wal.flush()
            (path,) = SegmentStore(directory).segment_paths()
            ends.append(path.stat().st_size)
        wal.close()
        assert list(WriteAheadLog.open(directory).durable_records) == [
            r for f in flushes for r in f
        ]
        cut = data.draw(st.integers(0, ends[-1]), label="tear at byte")
        path.write_bytes(path.read_bytes()[:cut])
        kept = [r for f, end in zip(flushes, ends) if end <= cut for r in f]
        reopened = WriteAheadLog.open(directory)
        assert list(reopened.durable_records) == kept
        assert (reopened.torn_tail is None) == (cut in [0] + ends)
