"""Tests for the sharded serving layer (``repro.sharding``).

Covers the routing catalog, end-to-end cross-shard FK enforcement
through a real coordinator over real shard servers, exactly-once
semantics across the coordinator hop, and the two-phase in-doubt
window: a participant that loses its coordinator between PREPARE and
the decision must block conflicting writers, resolve through the
decision log once the coordinator is back, and presume abort when it
never comes back.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from contextlib import ExitStack, contextmanager

import pytest

from repro.server import Overloaded, ReproClient, ReproServer, ServerError, wire
from repro.sharding import (
    CatalogError,
    ShardCoordinator,
    build_chaos_catalog,
    stable_hash,
)
from repro.sharding.coordinator import partial_orphans
from repro.testing.chaos import (
    N_PARENTS,
    ServerSupervisor,
    build_chaos_database,
    build_chaos_shard_database,
)


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _await(predicate, timeout_s: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


# ----------------------------------------------------------------------
# Catalog


def test_stable_hash_is_deterministic_and_null_safe():
    assert stable_hash([1, 10]) == stable_hash([1, 10])
    assert stable_hash([1, None]) == stable_hash([1, None])
    assert stable_hash([1, 10]) != stable_hash([10, 1])
    assert stable_hash([1, None]) != stable_hash([None, 1])


def test_child_colocates_with_fully_referencing_parent():
    catalog = build_chaos_catalog(4)
    for k1 in range(N_PARENTS):
        parent = {"k1": k1, "k2": k1 * 10}
        child = {"id": 7, "k1": k1, "k2": k1 * 10}
        assert catalog.shard_for("P", parent) == catalog.shard_for("C", child)


def test_rows_spread_over_shards():
    catalog = build_chaos_catalog(3)
    owners = {
        catalog.shard_for("P", {"k1": k, "k2": k * 10})
        for k in range(N_PARENTS)
    }
    assert owners == {0, 1, 2}


def test_catalog_rejects_unknown_table():
    catalog = build_chaos_catalog(2)
    with pytest.raises(CatalogError):
        catalog.route("nope")


def test_fk_route_partial_null_witness_pattern():
    catalog = build_chaos_catalog(2)
    fk = catalog.route("C").fk
    assert fk is not None
    assert fk.parent_equals({"id": 1, "k1": 3, "k2": None}) == {"k1": 3}
    assert fk.parent_equals({"id": 1, "k1": None, "k2": None}) == {}


def test_catalog_declares_the_index_design_shards_enforce_with():
    """Bounded (§6.2) on both sides of the foreign key, plus ``C.id``."""
    catalog = build_chaos_catalog(2)
    design = {
        table: [(d.name, d.columns) for d in definitions]
        for table, definitions in catalog.index_definitions().items()
    }
    assert design == {
        "P": [("fk_C_p_k1_k2", ("k1", "k2")), ("fk_C_p_k1", ("k1",)),
              ("fk_C_p_k2", ("k2",))],
        "C": [("C_id", ("id",)), ("fk_C_c_k1_k2", ("k1", "k2")),
              ("fk_C_c_k1", ("k1",)), ("fk_C_c_k2", ("k2",))],
    }
    assert catalog.index_design()["C"][0] == {"name": "C_id", "columns": ["id"]}


# ----------------------------------------------------------------------
# Provisioning the index design (the shard op)


def test_provisioning_is_idempotent_and_refuses_a_conflicting_index():
    design = build_chaos_catalog(1).index_design()
    with ReproServer(build_chaos_shard_database(0, 1)) as server:
        with ReproClient(*server.address) as client:
            created = client.request("provision", indexes=design)["created"]
            assert sorted(created) == sorted(
                spec["name"] for specs in design.values() for spec in specs
            )
            version = server.db.table("C").indexes.version
            assert client.request("provision", indexes=design)["created"] == []
            assert server.db.table("C").indexes.version == version
            with pytest.raises(ServerError, match="other columns"):
                client.request("provision", indexes={
                    "C": [{"name": "C_id", "columns": ["k1"]}],
                })
            # a name repeated within one request: created once, or, on
            # other columns, refused with nothing of the table created
            twice = {"P": [{"name": "P_by_k2", "columns": ["k2"]}] * 2}
            assert client.request("provision", indexes=twice)["created"] == [
                "P_by_k2"
            ]
            with pytest.raises(ServerError, match="other columns"):
                client.request("provision", indexes={"P": [
                    {"name": "P_x", "columns": ["k1"]},
                    {"name": "P_x", "columns": ["k2"]},
                ]})
            assert "P_x" not in server.db.table("P").indexes
            client.begin()
            with pytest.raises(ServerError) as excinfo:
                client.request("provision", indexes=design)
            assert excinfo.value.error_type == "TransactionStateError"
        assert server.db.verify_integrity().ok


def test_indexed_shard_answers_every_coordinator_probe_like_a_heap_scan():
    """Witness by k1 and by k2, child by id, child by (k1, k2) and child
    by k1 with k2 IS NULL — the shapes the coordinator's probes, forwards
    and cascade plans send — read the same rows from index ranges as
    from the heap."""
    design = build_chaos_catalog(1).index_design()
    shapes = [
        ("P", {"k1": 3}), ("P", {"k2": 70}), ("P", {"k1": 99}),
        ("C", {"id": 12}), ("C", {"id": 999}),
        ("C", {"k1": 3, "k2": 30}), ("C", {"k1": 3, "k2": None}),
        ("C", {"k1": None, "k2": 70}), ("C", {"k1": 5, "k2": None}),
    ]
    with ReproServer(build_chaos_shard_database(0, 1)) as scanned, \
            ReproServer(build_chaos_shard_database(0, 1)) as indexed:
        with ReproClient(*scanned.address) as plain, \
                ReproClient(*indexed.address) as client:
            client.request("provision", indexes=design)
            for each in (plain, client):
                each.insert("P", [3, 999])
                for child in range(40):
                    k1 = child % N_PARENTS
                    each.insert("C", [
                        child,
                        None if child % 5 == 0 else k1,
                        None if child % 3 == 0 else k1 * 10,
                    ])
            reads = indexed.db.tracker["index_node_reads"]
            scans = indexed.db.tracker["full_scans"]
            for table, equals in shapes:
                expected = sorted(
                    plain.select(table, equals, snapshot=True), key=repr
                )
                got = sorted(client.select(table, equals, snapshot=True), key=repr)
                assert got == expected, (table, equals)
            assert indexed.db.tracker["full_scans"] == scans
            assert indexed.db.tracker["index_node_reads"] > reads
            assert scanned.db.tracker["index_node_reads"] == 0


# ----------------------------------------------------------------------
# End-to-end: coordinator over real shard servers


@contextmanager
def _cluster(tmp_path, shards: int = 2, **server_kwargs):
    catalog = build_chaos_catalog(shards)
    servers = []
    for index in range(shards):
        server = ReproServer(
            build_chaos_shard_database(index, shards),
            data_dir=str(tmp_path / f"s{index}"),
            lock_timeout=2.0,
            resolve_after=0.3,
            **server_kwargs,
        )
        server.start()
        servers.append(server)
    coordinator = ShardCoordinator(
        catalog, [server.address for server in servers],
        data_dir=str(tmp_path / "coord"),
    )
    coordinator.start()
    client = ReproClient("127.0.0.1", coordinator.port)
    try:
        yield client, coordinator, servers
    finally:
        client.close()
        coordinator.shutdown()
        for server in servers:
            server.shutdown()


def test_inserts_route_and_enforce_across_shards(tmp_path):
    with _cluster(tmp_path) as (client, coordinator, servers):
        assert client.insert("C", [1, 3, 30]) >= 0        # fully referencing
        assert client.insert("C", [2, 5, None]) >= 0      # MATCH PARTIAL
        assert client.insert("C", [3, None, None]) >= 0   # all-NULL FK
        with pytest.raises(ServerError) as excinfo:
            client.insert("C", [4, 99, 990])              # orphan
        assert excinfo.value.error_type == "ReferentialIntegrityViolation"
        assert not excinfo.value.retryable
        ids = sorted(row[0] for row in client.select("C", columns=["id"]))
        assert ids == [1, 2, 3]


def _index_names(server, table: str) -> list[str]:
    return sorted(server.db.table(table).indexes.names())


def test_coordinator_provisions_each_shard_before_its_first_routed_request(
    tmp_path,
):
    """Start-up sends nothing; the first request routed to a shard is
    preceded by the provisioning op, and enforcement runs on indexes."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        assert [_index_names(server, "C") for server in servers] == [[], []]
        # A new client's first insert peeks every shard's ledger, and
        # the scatter probe of the second reaches every shard anyway.
        client.insert("C", [1, 3, 30])
        client.insert("C", [2, 5, None])
        for server in servers:
            assert _index_names(server, "C") == [
                "C_id", "fk_C_c_k1", "fk_C_c_k1_k2", "fk_C_c_k2",
            ]
            assert _index_names(server, "P") == [
                "fk_C_p_k1", "fk_C_p_k1_k2", "fk_C_p_k2",
            ]
        # The local key check is an index probe now, and still a veto.
        scans = [server.db.tracker["full_scans"] for server in servers]
        with pytest.raises(ServerError) as excinfo:
            client.insert("C", [1, 3, 30])
        assert excinfo.value.error_type == "KeyViolation"
        assert not excinfo.value.retryable
        assert [server.db.tracker["full_scans"] for server in servers] == scans
        assert client.request("verify", deep=True)["clean"]


def test_shard_first_reached_after_coordinator_start_is_provisioned(tmp_path):
    """The coordinator starts and serves with a shard down; once that
    shard is up, its first routed request provisions it."""
    catalog = build_chaos_catalog(2)
    # A parent insert is a plain forward to its home shard: it touches
    # no other shard (a child insert would peek every shard's ledger).
    keys = {
        catalog.shard_for("P", {"k1": k1, "k2": 1}): [k1, 1]
        for k1 in range(100, 140)
    }
    late_port = _free_port()
    up = ReproServer(
        build_chaos_shard_database(0, 2), data_dir=str(tmp_path / "s0")
    ).start()
    late = ReproServer(
        build_chaos_shard_database(1, 2), port=late_port,
        data_dir=str(tmp_path / "s1"),
    )
    coordinator = ShardCoordinator(
        catalog, [up.address, ("127.0.0.1", late_port)],
        data_dir=str(tmp_path / "coord"),
    ).start()
    try:
        with ReproClient("127.0.0.1", coordinator.port) as client:
            client.insert("P", keys[0])
            assert _index_names(up, "P") != []
            with pytest.raises(ServerError) as excinfo:
                client.insert("P", keys[1])
            assert excinfo.value.retryable  # nothing was sent
            late.start()
            client.insert("P", keys[1])
            assert _index_names(late, "P") == _index_names(up, "P")
            assert _index_names(late, "C") == _index_names(up, "C") != []
            assert client.request("verify", deep=True)["clean"]
    finally:
        coordinator.shutdown()
        up.shutdown()
        late.shutdown()


def test_refused_provisioning_ahead_of_a_ledger_peek_tears_not_errors(tmp_path):
    """A restarted coordinator's first contact with a shard may be the
    ledger peek for a redelivered stamp, and the provisioning op sent
    ahead of it passes the shard's admission control.  A refusal there
    must tear the client connection like an unreachable ledger does: an
    error reply would promise "not committed" for a stamp that did."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        stamped = dict(table="C", values=[900, 3, 30], client="dup", req=42)
        assert client.request("insert", **stamped)["ok"]
        refusals = []

        def refuse_once(session, sql_session, request, entry):
            del servers[0]._op_provision  # the class's own op from now on
            refusals.append(request["op"])
            raise Overloaded("busy", retry_after=0.01)

        servers[0]._op_provision = refuse_once
        restarted = ShardCoordinator(
            coordinator.catalog, [server.address for server in servers]
        ).start()
        try:
            with ReproClient(
                "127.0.0.1", restarted.port, reconnect_delay=0.01
            ) as again:
                assert again.request("insert", **stamped)["ok"]
                assert again.reconnects == 1  # torn and redelivered
        finally:
            restarted.shutdown()
        assert refusals == ["provision"]
        assert len(client.select("C", {"id": 900})) == 1


def test_killed_shard_comes_back_with_its_indexes(tmp_path):
    """Provisioning is WAL-logged DDL: a shard SIGKILLed and restarted
    on its data directory rebuilds the indexes in recovery, and a new
    coordinator's re-sent provisioning creates nothing."""
    design = build_chaos_catalog(1).index_design()
    shard_dir = tmp_path / "shard"
    shard_dir.mkdir()
    port = _free_port()
    shard = ServerSupervisor(shard_dir, port, 0, argv=[
        "serve", "--port", str(port), "--schema", "chaos",
        "--shard-index", "0", "--shard-count", "1",
        "--data-dir", str(shard_dir),
    ])
    @contextmanager
    def routed():
        coordinator = ShardCoordinator(
            build_chaos_catalog(1), [("127.0.0.1", port)]
        ).start()
        try:
            with ReproClient("127.0.0.1", coordinator.port) as client:
                yield client
        finally:
            coordinator.shutdown()

    shard.start()
    try:
        with routed() as client:
            client.insert("C", [1, 3, 30])
        shard.kill9()
        shard.start()
        with routed() as client:
            with pytest.raises(ServerError) as excinfo:
                client.insert("C", [1, 3, 30])
            assert excinfo.value.error_type == "KeyViolation"
            assert client.select("C", {"k1": 3, "k2": 30}) == [[1, 3, 30]]
        with ReproClient("127.0.0.1", port) as direct:
            assert direct.request("provision", indexes=design)["created"] == []
    finally:
        shard.stop()
    log = (shard_dir / "server.log").read_text()
    assert "7 index(es) rebuilt" in log


def test_partial_insert_vetoed_when_no_witness_anywhere(tmp_path):
    with _cluster(tmp_path) as (client, coordinator, servers):
        with pytest.raises(ServerError) as excinfo:
            client.insert("C", [1, 99, None])  # no P has k1=99 on any shard
        assert excinfo.value.error_type == "ReferentialIntegrityViolation"


def test_cascade_set_null_reaches_other_shards(tmp_path):
    with _cluster(tmp_path) as (client, coordinator, servers):
        client.insert("C", [1, 5, 50])
        client.insert("C", [2, 5, None])
        assert client.delete("P", {"k1": 5, "k2": 50}) == 1
        rows = {row[0]: row for row in client.select("C")}
        # Full match nulled; and with no surviving parent for k1=5 the
        # partial match is nulled too.
        assert rows[1][1:] == [None, None]
        assert rows[2][1:] == [None, None]
        # The cascade commits by 2PC, whose decides are pushed after the
        # ack; the deep verify reads snapshots, so until every decide has
        # landed it can see the parent gone and a child not yet nulled.
        _await(lambda: not coordinator.pending_decides()
               and not any(s.twophase.in_doubt() for s in servers),
               what="decide push")
        verdict = client.request("verify", deep=True)
        assert verdict["clean"], verdict


def test_partial_child_survives_cascade_with_surviving_witness(tmp_path):
    with _cluster(tmp_path) as (client, coordinator, servers):
        client.insert("P", [5, 999])          # second parent with k1=5
        client.insert("C", [1, 5, None])
        assert client.delete("P", {"k1": 5, "k2": 50}) == 1
        rows = client.select("C", {"id": 1})
        assert rows[0][1] == 5                # witness P(5, 999) survives
        assert client.request("verify", deep=True)["clean"]


def test_explicit_transaction_commits_across_shards(tmp_path):
    with _cluster(tmp_path) as (client, coordinator, servers):
        client.begin()
        client.insert("C", [10, 3, 30])
        client.insert("C", [11, 7, None])
        client.commit()
        ids = sorted(row[0] for row in client.select("C", columns=["id"]))
        assert ids == [10, 11]


def test_redelivered_insert_applies_once(tmp_path):
    with _cluster(tmp_path) as (client, coordinator, servers):
        first = client.request(
            "insert", table="C", values=[900, 3, 30], client="dup", req=42
        )
        again = client.request(
            "insert", table="C", values=[900, 3, 30], client="dup", req=42
        )
        assert first["ok"] and again["ok"]
        assert len(client.select("C", {"id": 900})) == 1


def test_stats_report_cluster_drained(tmp_path):
    with _cluster(tmp_path) as (client, coordinator, servers):
        client.insert("C", [1, 5, None])

        def drained() -> bool:
            # The commit ack races the async decide push; the cluster
            # must converge to zero residue, not be there instantly.
            stats = client.stats()
            if stats["coordinator"]["in_flight"]:
                return False
            if stats["coordinator"]["pending_decides"]:
                return False
            return all(
                shard["twophase"]["in_doubt"] == 0
                for shard in stats["shards"]
            )

        _await(drained, what="two-phase drain")


# ----------------------------------------------------------------------
# The one write path: insert, batch and begin … commit


#: The third row has no witness anywhere; on three shards the first two
#: home on different shards, and the second needs a scatter probe.
_VETOED = [[1, 1, 10], [2, 2, None], [3, None, 999999]]


def _send_batch(client, rows):
    return client.batch_insert("C", rows)


def _send_transaction(client, rows):
    client.begin()
    for row in rows:
        client.insert("C", row)
    client.commit()


@pytest.mark.parametrize("entry", ["batch", "commit", "single-server"])
def test_vetoed_row_vetoes_the_whole_write_on_every_entry_point(tmp_path, entry):
    """An update applies with all its side effects or not at all: one
    non-retryable error reply, no connection torn, no row left."""
    with ExitStack() as stack:
        if entry == "single-server":
            server = stack.enter_context(ReproServer(build_chaos_database()))
            client = stack.enter_context(ReproClient(*server.address))
        else:
            client, __, __ = stack.enter_context(_cluster(tmp_path, shards=3))
        send = _send_transaction if entry == "commit" else _send_batch
        with pytest.raises(ServerError) as excinfo:
            send(client, _VETOED)
        assert excinfo.value.error_type == "ReferentialIntegrityViolation"
        assert not excinfo.value.retryable
        assert client.reconnects == 0
        assert client.select("C") == []


def _cross_shard_rows(catalog, first_id: int) -> list[list[int]]:
    rows = [[first_id + k, k, k * 10] for k in range(6)]
    homes = {
        catalog.shard_for("C", {"id": r[0], "k1": r[1], "k2": r[2]}) for r in rows
    }
    assert len(homes) > 1
    return rows


def test_cross_shard_batch_is_one_transaction_and_replays_as_a_unit(tmp_path):
    """Two-phase commit under the client's stamp: the redelivery — on
    another connection, then through a restarted coordinator reading the
    same decision log — applies nothing and repeats the rids in row
    order."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        rows = _cross_shard_rows(coordinator.catalog, 100)
        stamped = dict(table="C", rows=rows, client="dup", req=7)
        first = client.request("batch", **stamped)
        assert first["rowcount"] == len(rows) and "replayed" not in first
        assert coordinator.stats.snapshot()["commits_2pc"] == 1
        with ReproClient("127.0.0.1", coordinator.port) as other:
            again = other.request("batch", **stamped)
        assert again["rids"] == first["rids"] and again["replayed"] is True
        _await(lambda: not any(s.twophase.in_doubt() for s in servers),
               what="decide push")
        coordinator.shutdown()
        restarted = ShardCoordinator(
            coordinator.catalog, [server.address for server in servers],
            data_dir=str(tmp_path / "coord"),
        ).start()
        try:
            with ReproClient("127.0.0.1", restarted.port) as late:
                replay = late.request("batch", **stamped)
                assert replay["rids"] == first["rids"] and replay["replayed"]
                assert restarted.stats.snapshot()["commits_2pc"] == 0
                by_id = {row[0]: row for row in late.select("C")}
                assert by_id == {row[0]: row for row in rows}
                # Row order, not shard order: each rid is its row's.
                for rid, row in zip(first["rids"], rows):
                    home = servers[coordinator.catalog.shard_for(
                        "C", dict(zip(("id", "k1", "k2"), row))
                    )]
                    assert list(home.db.table("C").heap.get(rid)) == row
        finally:
            restarted.shutdown()


def test_a_redelivered_pipeline_tail_replays_after_a_coordinator_restart(
    tmp_path,
):
    """A restarted coordinator learns a client's high-water mark from the
    first stamp it replays.  A redelivered stamp above it — the rest of
    a pipeline's unanswered tail — may have committed too, so it is
    looked up as well, not re-executed."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        batches = [_cross_shard_rows(coordinator.catalog, first)
                   for first in (100, 200)]
        acked = [
            client.request("batch", table="C", rows=rows, client="pipe", req=req)
            for req, rows in enumerate(batches, start=1)
        ]
        coordinator.shutdown()
        restarted = ShardCoordinator(
            coordinator.catalog, [server.address for server in servers],
            data_dir=str(tmp_path / "coord"),
        ).start()
        try:
            with ReproClient("127.0.0.1", restarted.port) as late:
                again = [
                    late.request("batch", table="C", rows=rows, client="pipe",
                                 req=req, redelivered=True)
                    for req, rows in enumerate(batches, start=1)
                ]
            assert [a["rids"] for a in again] == [a["rids"] for a in acked]
            assert all(a["replayed"] for a in again)
            assert restarted.stats.snapshot()["commits_2pc"] == 0
        finally:
            restarted.shutdown()


def test_a_redelivered_scatter_failing_on_its_first_shard_tears(tmp_path):
    """A stamped scatter delete committed on every shard; its redelivery
    finds the first shard down.  An error reply would promise "not
    committed", so the coordinator tears the connection instead — while
    a first delivery failing the same way gets the truthful retryable
    error."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        client.insert("C", [5, 3, 30])
        stamped = dict(table="C", equals={"id": 5}, client="d", req=1)
        assert client.request("delete", **stamped)["rowcount"] == 1
        servers[0].shutdown()
        with ReproClient(
            "127.0.0.1", coordinator.port, auto_reconnect=False
        ) as fresh:
            with pytest.raises(ServerError) as excinfo:
                fresh.request("delete", table="C", equals={"id": 6},
                              client="d", req=2)
            assert excinfo.value.retryable
        with ReproClient(
            "127.0.0.1", coordinator.port, auto_reconnect=False
        ) as again:
            with pytest.raises((wire.WireError, OSError)):
                again.request("delete", **stamped, redelivered=True)


def test_colocated_writes_reach_their_shard_as_one_txn(tmp_path):
    """A single insert is ``[pin, insert]``; a multi-row batch homing on
    one shard is its de-duplicated pins and ONE vectorized ``batch`` op
    — each a single ledgered ``txn`` request under the client's stamp."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        client.insert("C", [1, 3, 30])  # provisions, learns the client
        home = coordinator.catalog.shard_for("C", {"id": 0, "k1": 3, "k2": 30})
        seen = []
        shard_txn = servers[home]._op_txn

        def recording(session, sql_session, request, entry):
            seen.append((request["client"], request["ops"]))
            return shard_txn(session, sql_session, request, entry)

        servers[home]._op_txn = recording
        requests = [s.stats.snapshot()["requests"] for s in servers]
        client.insert("C", [2, 3, 30])
        rids = client.batch_insert("C", [[3, 3, 30], [4, 3, 30]])
        assert len(set(rids)) == 2
        pin = {"op": "pin", "table": "P", "equals": {"k1": 3, "k2": 30}}
        assert seen == [
            (client.client_id,
             [pin, {"op": "insert", "table": "C", "values": [2, 3, 30]}]),
            (client.client_id,
             [pin, {"op": "batch", "table": "C",
                    "rows": [[3, 3, 30], [4, 3, 30]]}]),
        ]
        assert [s.stats.snapshot()["requests"] for s in servers] == [
            before + 2 * (index == home)
            for index, before in enumerate(requests)
        ]
        assert coordinator.stats.snapshot()["one_phase"] == 3


def test_transaction_own_parent_witnesses_its_children(tmp_path):
    """Pins go first, but not for a witness the same transaction
    inserts: its own lock holds that key until the one commit."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        client.begin()
        client.insert("P", [100, 1000])
        client.insert("C", [1, 100, 1000])
        client.insert("C", [2, 100, None])
        client.commit()
        # Decides are pushed after the ack, shard by shard, and the deep
        # verify reads snapshots: until every participant has committed
        # it can see the child's shard committed and the parent's not.
        _await(lambda: client.select("P", {"k1": 100}, snapshot=True)
               and len(client.select("C", snapshot=True)) == 2,
               what="every participant to commit")
        assert sorted(client.select("C")) == [[1, 100, 1000], [2, 100, None]]
        assert client.request("verify", deep=True)["clean"]


def test_shard_links_close_with_the_client_connection(tmp_path):
    """A connection thread's shard links end with it: clients that come
    and go leave no session on any shard and no link in the coordinator
    (the decide pusher's own link and the open client's stay)."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        client.insert("C", [1, 5, None])  # may probe a remote witness
        _await(lambda: not coordinator.pending_decides()
               and not any(s.twophase.in_doubt() for s in servers),
               what="decide push")
        sessions = [len(server.sessions.open_sessions) for server in servers]
        links = len(coordinator._clients)
        for index in range(30):
            with ReproClient("127.0.0.1", coordinator.port) as passing:
                passing.insert("C", [10 + index, 3, 30])
        _await(
            lambda: [len(s.sessions.open_sessions) for s in servers] == sessions,
            what="shard sessions to drain",
        )
        assert len(coordinator._clients) == links


# ----------------------------------------------------------------------
# Remote witnesses: writes first, witnesses last


def _remote_witnesses(catalog) -> list[int]:
    """The ``k1`` of every seeded parent ``P(k1, 10·k1)`` whose partial
    child ``C(·, k1, NULL)`` homes on another shard — its only witness
    is remote."""
    return [
        k1 for k1 in range(N_PARENTS)
        if catalog.shard_for("C", {"k1": k1, "k2": None})
        != catalog.shard_for("P", {"k1": k1, "k2": k1 * 10})
    ]


def test_remote_witness_insert_commits_in_one_phase_and_replays(tmp_path):
    """The witness shard answers a read-only probe and takes no part in
    the commit: no prepare anywhere, no decision record, nothing in
    doubt.  The stamp replays the same rid on another connection and
    through a restarted coordinator."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        client.insert("C", [1, 3, 30])  # provisions, learns the client
        k1 = _remote_witnesses(coordinator.catalog)[0]
        before = coordinator.stats.snapshot()
        decisions = len(coordinator.decisions)
        stamped = dict(table="C", values=[2, k1, None], client="dup", req=5)
        first = client.request("insert", **stamped)
        after = coordinator.stats.snapshot()
        assert after["one_phase"] == before["one_phase"] + 1
        assert after["commits_2pc"] == before["commits_2pc"]
        assert len(coordinator.decisions) == decisions
        for server in servers:
            assert server.twophase.stats_snapshot()["prepares"] == 0
            assert server.twophase.in_doubt() == []
        with ReproClient("127.0.0.1", coordinator.port) as other:
            again = other.request("insert", **stamped)
        assert again["rid"] == first["rid"] and again["replayed"] is True
        coordinator.shutdown()
        restarted = ShardCoordinator(
            coordinator.catalog, [server.address for server in servers],
            data_dir=str(tmp_path / "coord"),
        ).start()
        try:
            with ReproClient("127.0.0.1", restarted.port) as late:
                replay = late.request("insert", **stamped)
                assert replay["rid"] == first["rid"] and replay["replayed"]
                assert late.select("C", {"id": 2}) == [[2, k1, None]]
        finally:
            restarted.shutdown()


def test_a_link_cut_before_the_commit_leaves_no_row_and_no_lock(
    tmp_path, monkeypatch
):
    """The home shard's transaction is open and the witness probed when
    the coordinator's link to the home shard dies.  The shard rolls the
    transaction back with the link: no row and no lock remain, so a
    parent delete of the witness goes through.  The client's connection
    is torn rather than answered."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        catalog = coordinator.catalog
        k1 = _remote_witnesses(catalog)[0]
        home = catalog.shard_for("C", {"k1": k1, "k2": None})
        probe_remote = coordinator._probe_remote

        def then_cut(missed):
            unmatched = probe_remote(missed)
            link = coordinator._local.clients[(home, True)]
            link._sock.shutdown(socket.SHUT_RDWR)
            return unmatched

        monkeypatch.setattr(coordinator, "_probe_remote", then_cut)
        with ReproClient(
            "127.0.0.1", coordinator.port, auto_reconnect=False
        ) as once:
            with pytest.raises((wire.WireError, OSError)):
                once.insert("C", [2, k1, None])
        monkeypatch.undo()
        assert coordinator.stats.snapshot()["teardowns"] == 1
        _await(lambda: client.select("C", {"id": 2}) == [],
               what="the open transaction to roll back")
        assert client.delete("P", {"k1": k1, "k2": k1 * 10}) == 1
        assert client.request("verify", deep=True)["clean"]
        for server in servers:
            assert server.sessions.stats()["timeouts"] == 0


def test_a_cascade_racing_a_remote_witness_insert_never_orphans(tmp_path):
    """One connection inserts ``C(·, k1, NULL)``, whose only witness
    lives on another shard, while a second deletes that witness: the
    child ends up NULLed by the cascade or vetoed, never orphaned, and
    no lock times out."""
    with _cluster(tmp_path) as (client, coordinator, servers):
        for row_id, k1 in enumerate(_remote_witnesses(coordinator.catalog)[:6]):
            barrier = threading.Barrier(2)
            outcome: dict[str, object] = {}

            def run(name, call):
                with ReproClient("127.0.0.1", coordinator.port) as own:
                    barrier.wait()
                    try:
                        outcome[name] = call(own)
                    except ServerError as exc:
                        outcome[name] = exc

            threads = [
                threading.Thread(target=run, args=(
                    "insert", lambda c: c.insert("C", [row_id, k1, None]))),
                threading.Thread(target=run, args=(
                    "delete", lambda c: c.delete("P", {"k1": k1, "k2": k1 * 10}))),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert outcome["delete"] == 1, outcome
            if isinstance(outcome["insert"], ServerError):
                assert outcome["insert"].error_type == (
                    "ReferentialIntegrityViolation"), outcome
                expected = []
            else:
                expected = [[row_id, None, None]]
            _await(lambda: client.select(
                "C", {"id": row_id}, snapshot=True) == expected,
                what=f"child {row_id} to settle as {expected}")
        assert client.request("verify", deep=True)["clean"]
        for server in servers:
            assert server.sessions.stats()["timeouts"] == 0


def test_two_writing_shards_prepare_and_the_witness_shard_only_probes(tmp_path):
    """A batch whose rows home on two shards commits by 2PC, and its
    partial row's witness, on a third shard, is no participant:
    ``prepares`` equals the number of writing shards."""
    with _cluster(tmp_path, shards=3) as (client, coordinator, servers):
        catalog = coordinator.catalog

        def owner(k1: int) -> int:
            return catalog.shard_for("P", {"k1": k1, "k2": k1 * 10})

        partial, full = next(
            ([1, b, None], [2, a, a * 10])
            for b in range(N_PARENTS) for a in range(N_PARENTS)
            if len({catalog.shard_for("C", {"k1": b, "k2": None}),
                    owner(b), owner(a)}) == 3
        )
        prepares = [s.twophase.stats_snapshot()["prepares"] for s in servers]
        client.batch_insert("C", [partial, full])
        grown = [
            s.twophase.stats_snapshot()["prepares"] - before
            for s, before in zip(servers, prepares)
        ]
        assert sum(grown) == 2 and grown[owner(partial[1])] == 0
        assert coordinator.stats.snapshot()["commits_2pc"] == 1
        _await(lambda: len(client.select("C", snapshot=True)) == 2,
               what="every participant to commit")
        assert client.request("verify", deep=True)["clean"]


# ----------------------------------------------------------------------
# The in-doubt window


def _prepare_ops():
    """A witness pin + child insert, the real 2PC participant batch."""
    return [
        {"op": "pin", "table": "P", "equals": {"k1": 3, "k2": 30}},
        {"op": "insert", "table": "C", "values": [777, 3, 30]},
    ]


def test_in_doubt_blocks_writers_then_resolves_to_commit(tmp_path):
    """Participant dies between PREPARE and the decision: after restart
    it re-acquires the locks, stalls conflicting writers, resolves
    through the coordinator's decision log, and releases."""
    gtid = "cafe0001:1"
    coord_port = _free_port()
    data_dir = str(tmp_path / "shard")

    server = ReproServer(
        build_chaos_shard_database(0, 1), data_dir=data_dir,
        lock_timeout=0.4, resolve_after=0.2,
    )
    server.start()
    with ReproClient("127.0.0.1", server.port) as client:
        response = client.request(
            "prepare", gtid=gtid, seq=0, ops=_prepare_ops(),
            resolve=["127.0.0.1", coord_port],
        )
        assert response["vote"] == "prepared"
    server.shutdown()  # the decision never arrived

    restarted = ReproServer(
        build_chaos_shard_database(0, 1), data_dir=data_dir,
        lock_timeout=0.4, resolve_after=0.2, presume_abort_after=120.0,
    )
    assert restarted.twophase.holds(gtid)
    restarted.start()
    try:
        with ReproClient("127.0.0.1", restarted.port) as client:
            # The witness pin's S-lock is held by the in-doubt txn: a
            # conflicting parent delete must stall, not slip through.
            with pytest.raises(ServerError) as excinfo:
                client.delete("P", {"k1": 3, "k2": 30})
            assert excinfo.value.retryable

            # The coordinator reappears with the commit decision logged.
            coordinator = ShardCoordinator(
                build_chaos_catalog(1), [restarted.address],
                port=coord_port, data_dir=str(tmp_path / "coord"),
            )
            coordinator.decisions.record_decision(gtid, ("t", 1), {"ok": True})
            coordinator.start()
            try:
                _await(lambda: not restarted.twophase.holds(gtid),
                       what="in-doubt resolution")
                assert client.select("C", {"id": 777})  # committed
                assert client.delete("P", {"k1": 3, "k2": 30}) == 1
            finally:
                coordinator.shutdown()
        assert restarted.twophase.stats_snapshot()["commits"] == 1
    finally:
        restarted.shutdown()


def test_a_commit_decision_rides_the_data_commits_flush(tmp_path):
    """decide(commit) appends its record unflushed and the data commit's
    flush carries both out, in log order: one fsync where it took two.
    A log that holds the decision but not the data commit — a crash
    tearing the two records apart — is finished by ``reinstate``."""
    data_dir = str(tmp_path / "shard")
    torn_ops = _prepare_ops()
    torn_ops[1]["values"] = [778, 3, 30]
    with ReproServer(build_chaos_shard_database(0, 1), data_dir=data_dir) as server:
        server.twophase.prepare("once:1", _prepare_ops())
        store = server.db.wal.store
        syncs = store.sync_count
        assert server.twophase.decide("once:1", "commit") == "commit"
        assert store.sync_count == syncs + 1
        server.twophase.prepare("torn:1", torn_ops)
        server.db.wal.log_two_phase("decide", ("torn:1", "commit"))
    with ReproServer(build_chaos_shard_database(0, 1), data_dir=data_dir) as restarted:
        assert restarted.twophase.stats_snapshot()["recommitted"] == 1
        assert sorted(row[0] for row in restarted.db.table("C").rows()) == [777, 778]


def test_orphan_scan_matches_the_every_child_against_every_parent_reference():
    def reference(parents, keys):
        return [
            position for position, key in enumerate(keys)
            if any(value is not None for value in key) and not any(
                all(parent[i] == value
                    for i, value in enumerate(key) if value is not None)
                for parent in parents
            )
        ]

    rng = random.Random(26)
    for __ in range(300):
        n = rng.randint(1, 4)
        domain = rng.randint(1, 4)
        parents = [
            [rng.randrange(domain) for __ in range(n)]
            for __ in range(rng.randrange(0, 8))
        ]
        # Values up to domain (one past any parent's) and NULL anywhere.
        keys = [
            [rng.choice([None, *range(domain + 1)]) for __ in range(n)]
            for __ in range(rng.randrange(0, 24))
        ]
        assert partial_orphans(parents, keys) == reference(parents, keys)


def test_presumed_abort_when_coordinator_never_returns(tmp_path):
    """A prepared transaction whose coordinator stays dead past the
    presume-abort deadline rolls back and releases its locks."""
    gtid = "dead0001:1"
    dead_port = _free_port()  # reserved but nobody listens

    server = ReproServer(
        build_chaos_shard_database(0, 1), data_dir=str(tmp_path / "shard"),
        lock_timeout=0.4, resolve_after=0.1, presume_abort_after=0.8,
    )
    server.start()
    try:
        with ReproClient("127.0.0.1", server.port) as client:
            client.request(
                "prepare", gtid=gtid, seq=0, ops=_prepare_ops(),
                resolve=["127.0.0.1", dead_port],
            )
            assert server.twophase.holds(gtid)
            _await(lambda: not server.twophase.holds(gtid),
                   what="presumed abort")
            assert client.select("C", {"id": 777}) == []  # rolled back
            assert client.delete("P", {"k1": 3, "k2": 30}) == 1  # unlocked
        stats = server.twophase.stats_snapshot()
        assert stats["presumed_aborts"] == 1
        assert stats["aborts"] == 1
    finally:
        server.shutdown()


class _GatedLock:
    """Stands in for a prepared transaction's ``txn.mu``: the test holds
    ``inner``, and ``waiting`` is set once someone blocks on the gate."""

    def __init__(self):
        self.inner = threading.Lock()
        self.waiting = threading.Event()

    def __enter__(self):
        self.waiting.set()
        self.inner.acquire()
        return self

    def __exit__(self, *exc):
        self.inner.release()


def test_a_decide_in_flight_keeps_the_transaction_prepared(tmp_path):
    """A decide that has claimed a transaction but not yet applied it
    leaves the gtid held: ``holds`` stays True while the rows are still
    uncommitted, and a duplicate decide answers ``already-commit`` —
    never "forgotten" (the decide used to pop the gtid first)."""
    gtid = "race0001:1"
    with ReproServer(
        build_chaos_shard_database(0, 1), data_dir=str(tmp_path / "shard")
    ) as server:
        participant = server.twophase
        participant.prepare(gtid, _prepare_ops())
        gate = _GatedLock()
        participant._prepared[gtid].mu = gate
        answers = []
        with gate.inner:
            first = threading.Thread(
                target=lambda: answers.append(participant.decide(gtid, "commit"))
            )
            first.start()
            assert gate.waiting.wait(10.0)
            assert participant.holds(gtid)
            assert participant.decide(gtid, "commit") == "already-commit"
            with pytest.raises(Exception, match="conflicting decide"):
                participant.decide(gtid, "abort")
        first.join(10.0)
        assert answers == ["commit"]
        assert not participant.holds(gtid)
        assert participant.decide(gtid, "commit") == "already-commit"
        assert [row[0] for row in server.db.table("C").rows()] == [777]
        assert participant.stats_snapshot()["forgotten_decides"] == 0
