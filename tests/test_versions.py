"""Unit tests for the MVCC version store (``repro.storage.versions``).

Chains, the pending overlay, visibility, GC, recovery reset, and the
well-formedness checks that ``verify_integrity`` runs per table.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Column, Database, DataType, Eq, PrimaryKey
from repro.errors import SessionError


def make_db(mvcc: bool = True) -> Database:
    db = Database("versions")
    db.create_table("t", [
        Column("id", DataType.INTEGER, nullable=False),
        Column("v", DataType.TEXT),
    ])
    db.add_candidate_key(PrimaryKey("t", ("id",)))
    if mvcc:
        db.enable_mvcc()
    return db


def _rid(db: Database, table: str = "t") -> int:
    # Single-row helper: the only rid in the heap.
    (rid,) = list(db.table(table).heap.rids())
    return rid


# ----------------------------------------------------------------------
# Chains and visibility.


def test_autocommit_mutations_build_newest_first_chains():
    db = make_db()
    versions = db.versions
    db.insert("t", (1, "a"))
    rid = _rid(db)
    before_update = versions.open_snapshot()
    db.update_where("t", {"v": "b"}, Eq("id", 1))
    chain = versions.chain("t", rid)
    assert [v.row for v in chain] == [(1, "b"), (1, "a")]
    lsns = [v.lsn for v in chain]
    assert lsns == sorted(lsns, reverse=True) and len(set(lsns)) == len(lsns)
    # The pinned snapshot still reads the pre-update image.
    assert before_update.view().row("t", rid) == (1, "a")
    assert versions.committed_view().row("t", rid) == (1, "b")
    before_update.close()


def test_snapshot_does_not_see_later_insert_or_delete():
    db = make_db()
    versions = db.versions
    db.insert("t", (1, "a"))
    snap = versions.open_snapshot()
    db.insert("t", (2, "b"))
    db.delete_where("t", Eq("id", 1))
    view = snap.view()
    rows = {view.row("t", rid) for rid in view.divergent_rids("t")}
    # Rid of (1, "a") diverged (deleted after the snapshot); rid of
    # (2, "b") diverged (inserted after) and resolves to absent.
    assert rows == {(1, "a"), None}
    fresh = versions.open_snapshot().view()
    assert fresh.divergent_rids("t") == set()
    snap.close()


def test_pending_overlay_hides_uncommitted_writes_from_other_views():
    db = make_db()
    versions = db.versions
    db.insert("t", (1, "a"))
    rid = _rid(db)
    with db.begin() as txn:
        db.update_where("t", {"v": "dirty"}, Eq("id", 1))
        assert versions.is_pending("t", rid)
        other = versions.committed_view()
        own = versions.committed_view(own_txn_id=txn.txn_id)
        assert other.row("t", rid) == (1, "a")  # not the dirty tip
        assert own.row("t", rid) == (1, "dirty")  # own writes visible
        assert rid in other.divergent_rids("t")
        assert rid not in own.divergent_rids("t")
    assert not versions.is_pending("t", rid)
    assert versions.committed_view().row("t", rid) == (1, "dirty")


def test_rollback_discards_overlay_and_stamps_no_version():
    db = make_db()
    versions = db.versions
    db.insert("t", (1, "a"))
    rid = _rid(db)
    count = versions.version_count()
    try:
        with db.begin():
            db.update_where("t", {"v": "doomed"}, Eq("id", 1))
            raise RuntimeError("abort")
    except RuntimeError:
        pass
    assert not versions.is_pending("t", rid)
    assert versions.version_count() == count
    assert versions.committed_view().row("t", rid) == (1, "a")
    assert versions.check_well_formed("t") == []


def test_net_noop_transaction_commits_nothing():
    db = make_db()
    versions = db.versions
    before = versions.lsn
    with db.begin():
        db.insert("t", (9, "ghost"))
        db.delete_where("t", Eq("id", 9))
    # insert-then-delete nets to "absent -> absent": no LSN, no chain.
    assert versions.lsn == before
    assert versions.version_count() == 0


def test_transaction_commits_all_changes_at_one_lsn():
    db = make_db()
    versions = db.versions
    with db.begin():
        db.insert("t", (1, "a"))
        db.insert("t", (2, "b"))
    heads = {chain[0].lsn for _, chain in versions.chain_items("t")}
    assert len(heads) == 1, "one commit, one LSN across every row"


# ----------------------------------------------------------------------
# Garbage collection.


def test_prune_collapses_history_nobody_can_read():
    db = make_db()
    versions = db.versions
    db.insert("t", (1, "a"))
    for value in ("b", "c", "d"):
        db.update_where("t", {"v": value}, Eq("id", 1))
    assert versions.version_count() >= 4
    dropped = versions.prune()
    assert dropped >= 4
    assert versions.version_count() == 0
    assert versions.check_well_formed("t") == []


def test_prune_keeps_the_boundary_version_for_active_snapshots():
    db = make_db()
    versions = db.versions
    db.insert("t", (1, "a"))
    rid = _rid(db)
    snap = versions.open_snapshot()
    db.update_where("t", {"v": "b"}, Eq("id", 1))
    db.update_where("t", {"v": "c"}, Eq("id", 1))
    versions.prune()
    # The snapshot must still resolve its boundary image...
    assert snap.view().row("t", rid) == (1, "a")
    snap.close()
    # ...and once released, a second prune clears the table.
    versions.prune()
    assert versions.chain("t", rid) == ()


def test_prune_recycles_rids_of_fully_dead_rows():
    db = make_db()
    heap = db.table("t").heap
    assert heap.recycle_rids is False  # enable_mvcc defers rid reuse
    db.insert("t", (1, "a"))
    rid = _rid(db)
    db.delete_where("t", Eq("id", 1))
    db.insert("t", (2, "b"))
    assert _rid(db) != rid, "rid must not be reused while history exists"
    db.versions.prune()
    db.insert("t", (3, "c"))
    rids = set(db.table("t").heap.rids())
    assert rid in rids, "pruned dead rid returns to the freelist"


def test_oldest_active_lsn_tracks_snapshot_registry():
    db = make_db()
    versions = db.versions
    db.insert("t", (1, "a"))
    s1 = versions.open_snapshot()
    db.update_where("t", {"v": "b"}, Eq("id", 1))
    s2 = versions.open_snapshot()
    assert versions.oldest_active_lsn() == s1.read_lsn < s2.read_lsn
    assert versions.active_snapshots == 2
    s1.close()
    assert versions.oldest_active_lsn() == s2.read_lsn
    s2.close()
    assert versions.active_snapshots == 0
    assert versions.oldest_active_lsn() == versions.lsn


# ----------------------------------------------------------------------
# Reset, closed snapshots, and well-formedness.


def test_reset_forgets_history_and_invalidates_snapshots():
    db = make_db()
    versions = db.versions
    db.insert("t", (1, "a"))
    snap = versions.open_snapshot()
    db.update_where("t", {"v": "b"}, Eq("id", 1))
    versions.reset()
    assert versions.version_count() == 0
    assert versions.active_snapshots == 0
    # The tip is now the only truth.
    assert versions.committed_view().row("t", _rid(db)) == (1, "b")
    snap.close()  # closing a pre-reset snapshot stays a no-op


def test_closed_snapshot_refuses_new_views():
    db = make_db()
    snap = db.versions.open_snapshot()
    snap.close()
    with pytest.raises(SessionError):
        snap.view()


def test_check_well_formed_flags_tip_divergence_and_bad_lsns():
    db = make_db()
    versions = db.versions
    db.insert("t", (1, "a"))
    rid = _rid(db)
    db.update_where("t", {"v": "b"}, Eq("id", 1))
    assert versions.check_well_formed("t") == []
    # Tamper 1: make the chain head disagree with the heap tip.
    chain = versions._chains["t"][rid]
    good_head = chain[0].row
    chain[0].row = (1, "zzz")
    problems = versions.check_well_formed("t")
    assert any("disagrees with committed tip" in p for p in problems)
    chain[0].row = good_head
    # Tamper 2: break the strictly-decreasing LSN invariant.
    chain[1].lsn = chain[0].lsn
    problems = versions.check_well_formed("t")
    assert any("not strictly decreasing" in p for p in problems)


def test_verify_integrity_reports_version_problems():
    from repro.storage.verify import verify_integrity

    db = make_db()
    db.insert("t", (1, "a"))
    db.update_where("t", {"v": "b"}, Eq("id", 1))
    assert verify_integrity(db).ok
    db.versions._chains["t"][_rid(db)][0].row = (1, "zzz")
    report = verify_integrity(db)
    assert not report.ok
    assert any("versions:" in p for p in report.problems())


def test_mvcc_off_keeps_rid_reuse_and_no_store():
    db = make_db(mvcc=False)
    assert db.versions is None
    heap = db.table("t").heap
    assert heap.recycle_rids is True
    db.insert("t", (1, "a"))
    rid = _rid(db)
    db.delete_where("t", Eq("id", 1))
    db.insert("t", (2, "b"))
    assert _rid(db) == rid, "without MVCC the freelist reuses rids eagerly"


# ----------------------------------------------------------------------
# The commit log: divergence without walking the chains.


class _NoWalk(dict):
    """A chain map that may be probed by rid but not iterated."""

    def _refuse(self, *args):
        raise AssertionError("a read walked every version chain of the table")

    __iter__ = keys = values = items = _refuse


def test_divergence_is_the_commit_log_tail_not_a_chain_walk():
    db = make_db()
    versions = db.versions
    pin = versions.open_snapshot()  # holds the horizon: nothing can be pruned
    for i in range(200):
        db.insert("t", (i, "old"))
    snap = versions.open_snapshot()
    db.insert("t", (1000, "new"))
    db.update_where("t", {"v": "newer"}, Eq("id", 7))
    changed = {
        rid for rid, row in db.table("t").heap.scan() if row[0] in (7, 1000)
    }
    versions._chains["t"] = _NoWalk(versions._chains["t"])

    assert snap.view().divergent_rids("t") == changed
    assert versions.committed_view().divergent_rids("t") == set()
    assert len(pin.view().divergent_rids("t")) == 201
    # ...and the reads built on it agree with the chains they no longer walk
    from repro.query import executor

    view = snap.view()
    assert executor.select(db, "t", Eq("id", 7), view=view) == [(7, "old")]
    assert executor.select(db, "t", Eq("id", 1000), view=view) == []


def test_prune_trims_the_commit_log_to_what_a_view_can_still_ask_for():
    db = make_db()
    versions = db.versions
    for i in range(50):
        db.insert("t", (i, "a"))
    snap = versions.open_snapshot()
    db.update_where("t", {"v": "b"}, Eq("id", 3))
    versions.prune()
    lsns, rids = versions._commits["t"]
    assert len(lsns) == len(rids) == 1  # only the commit newer than the snapshot
    assert snap.view().divergent_rids("t") == set(rids)
    snap.close()
    versions.prune()
    assert versions._commits == {}


def test_stats_polled_beside_a_writer_never_walks_growing_chains():
    """The server's ``stats`` op calls ``SessionManager.stats()`` without
    the statement latch, so ``row_versions`` must be one int read — not
    an iteration over chain dicts a writer thread is growing."""
    db = make_db()
    manager = db.enable_sessions()
    rows = 1500
    polls: list[int] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def write() -> None:
        try:
            with manager.session() as session:
                for i in range(rows):
                    session.insert("t", (i, "x"))
        finally:
            done.set()

    def poll() -> None:
        try:
            while not done.is_set():
                polls.append(manager.stats()["row_versions"])
        except RuntimeError as exc:  # dictionary changed size during iteration
            errors.append(exc)

    threads = [threading.Thread(target=write), threading.Thread(target=poll)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert polls and polls == sorted(polls)  # nothing prunes: it only grows
    chained = sum(len(chain) for __, chain in db.versions.chain_items("t"))
    assert manager.stats()["row_versions"] == chained == rows
