"""Replication tests: stream retention, the WAL applier, read-only
enforcement, and the full primary → replica → promote lifecycle.

The unit half exercises the building blocks directly: the primary-side
stream registry (acks pin WAL segments across ``truncate``, so a
checkpoint while a replica streams loses no records — the PR-10
regression), the applier's group semantics (only committed transaction
groups apply; interrupted groups are abandoned exactly like recovery
discards a crash-mid-commit), and the two-layer read-only guard.

The integration half runs a real primary server and a real
:class:`~repro.replication.replica.ReplicaServer` on background event
loops: snapshot bootstrap, continuous apply, bounded-staleness reads,
``repl.*`` health, promotion to a writable primary, and client-side
read failover.
"""

from __future__ import annotations

import time

import pytest

from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import (
    ReadOnlyReplicaError,
    ReplicationError,
    ServerError,
)
from repro.replication import ReplicationEndpoint, ReplicaServer, WALApplier
from repro.resilience import RetryPolicy
from repro.server import QueryClient, QueryServer, ResilientQueryClient
from repro.storage.record import ValueType
from repro.wal.device import MemoryWALDevice
from repro.wal.record import WALRecordType, encode_record, scan_records
from repro.wal.writer import WALWriter
from tests.test_server import ServerHarness, wait_for


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def make_wal_db() -> Database:
    db = Database(buffer_pages=32)
    db.attach_wal(MemoryWALDevice())
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    return db


def table_rows(db: Database, table: str = "t"):
    if not db.catalog.has_table(table):
        return ()
    return tuple(sorted(
        (oid, tuple(values))
        for oid, values in db.catalog.table(table).scan()
    ))


class ReplicaHarness:
    """One started :class:`ReplicaServer`."""

    def __init__(self, primary_port: int, **kwargs):
        kwargs.setdefault("poll_interval", 0.01)
        self.replica = ReplicaServer(
            "127.0.0.1", primary_port, port=0, **kwargs
        )
        self.replica.start()

    @property
    def port(self) -> int:
        return self.replica.port

    def stop(self):
        self.replica.stop()


@pytest.fixture()
def primary():
    db = make_wal_db()
    for i in range(5):
        db.insert("t", [f"seed{i}", i])
    h = ServerHarness(db, workers=2)
    ReplicationEndpoint(h.server).install()
    try:
        yield h
    finally:
        h.stop()


@pytest.fixture()
def pair(primary):
    rh = ReplicaHarness(primary.port)
    assert rh.replica.wait_ready(10), "bootstrap timed out"
    assert rh.replica.link.wait_caught_up(10), "catch-up timed out"
    try:
        yield primary, rh
    finally:
        rh.stop()


# ---------------------------------------------------------------------------
# primary-side stream registry + retention
# ---------------------------------------------------------------------------

class TestStreamRetention:
    def test_truncate_while_streaming_loses_no_records(self):
        """THE regression: a checkpoint must not retire WAL bytes a
        registered replica has not acked."""
        db = make_wal_db()
        wal = db.wal
        wal.register_stream("r1", 0)
        for i in range(10):
            db.insert("t", [f"r{i}", i])
        tail = wal.flushed_lsn
        before, status = wal.read_stream(0, 1 << 30)
        assert status == "ok"

        # Checkpoint: device truncates, but the stream pins the bytes.
        wal.truncate(tail)
        assert wal.retained_base == 0
        after, status = wal.read_stream(0, 1 << 30)
        assert status == "ok"
        assert after == before, "checkpoint-while-streaming lost records"
        assert scan_records(after, 0).end_lsn == tail

        # Once the replica acks past the checkpoint, retention releases.
        wal.ack_stream("r1", tail)
        assert wal.retained_bytes == 0
        assert wal.retained_base == tail

    def test_reader_below_retained_base_answers_too_old(self):
        db = make_wal_db()
        wal = db.wal
        db.insert("t", ["a", 1])
        tail = wal.flushed_lsn
        wal.truncate(tail)  # no streams registered: nothing retained
        data, status = wal.read_stream(0, 1 << 20)
        assert status == "too_old" and data == b""
        # At/above the new base the stream answers normally again.
        db.insert("t", ["b", 2])
        data, status = wal.read_stream(tail, 1 << 20)
        assert status == "ok"
        assert scan_records(data, tail).records

    def test_acks_are_monotonic_and_sticky_across_disconnects(self):
        wal = WALWriter(MemoryWALDevice())
        wal.ack_stream("r1", 100)
        wal.ack_stream("r1", 40)  # stale ack never regresses the pin
        assert wal.stream_acks["r1"] == 100
        assert wal.min_stream_lsn() == 100
        wal.ack_stream("r2", 60)
        assert wal.min_stream_lsn() == 60
        wal.unregister_stream("r2")
        assert wal.min_stream_lsn() == 100
        wal.unregister_stream("r1")
        assert wal.min_stream_lsn() is None

    def test_multi_segment_read_spans_checkpoints(self):
        """Two checkpoints with a slow replica: read_stream must stitch
        retained segments + the live device into one contiguous run."""
        db = make_wal_db()
        wal = db.wal
        wal.register_stream("slow", 0)
        for round_no in range(3):
            for i in range(4):
                db.insert("t", [f"x{round_no}-{i}", i])
            if round_no < 2:
                wal.truncate(wal.flushed_lsn)
        whole, status = wal.read_stream(0, 1 << 30)
        assert status == "ok"
        scan = scan_records(bytes(whole), 0)
        assert scan.torn_bytes == 0
        assert len(scan.records) == 13  # CREATE TABLE DDL + 12 inserts
        # Windowed reads concatenate to the same stream.
        pos, rebuilt = 0, bytearray()
        while pos < wal.flushed_lsn:
            piece, status = wal.read_stream(pos, 100)
            assert status == "ok" and piece
            rebuilt.extend(piece)
            pos += len(piece)
        assert bytes(rebuilt) == whole


# ---------------------------------------------------------------------------
# the applier
# ---------------------------------------------------------------------------

class TestWALApplier:
    def _stream(self, statements) -> tuple[bytes, Database]:
        """Run statements on a WAL-backed db; return (durable bytes, db)."""
        db = make_wal_db()
        for stmt in statements:
            stmt(db)
        return db.wal.device.durable(), db

    def test_autocommit_records_apply_and_converge(self):
        data, origin = self._stream([
            lambda db: db.insert("t", ["a", 1]),
            lambda db: db.insert("t", ["b", 2]),
            lambda db: db.sql("UPDATE t SET v = 9 WHERE name = 'a'"),
        ])
        replica = Database(buffer_pages=32)
        applier = WALApplier(replica, 0)
        res = applier.feed(data)
        assert res.torn_bytes == 0
        assert applier.ack_lsn == len(data)
        assert table_rows(replica) == table_rows(origin)

    def test_ddl_record_naming_an_unlogged_method_fails(self, tmp_path):
        """The replica's redo runs only vetted DDL methods too."""
        path = tmp_path / "written_by_redo.img"
        frame = encode_record(0, WALRecordType.DDL, 1, {
            "method": "save", "args": [str(path)], "kwargs": {},
        })
        applier = WALApplier(Database(buffer_pages=32), 0)
        result = applier.feed(frame)
        assert (result.applied, applier.report.failed) == (1, 1)
        assert applier.ack_lsn == len(frame)
        assert not path.exists()

    def test_refeed_is_idempotent(self):
        data, origin = self._stream(
            [lambda db, i=i: db.insert("t", [f"r{i}", i]) for i in range(5)]
        )
        replica = Database(buffer_pages=32)
        applier = WALApplier(replica, 0)
        applier.feed(data)
        applied = applier.report.replayed + applier.report.failed
        # A reconnect refetches from the ack: the overlap re-delivers
        # bytes below the watermark, which must be skipped entirely.
        applier.reset_to_ack()
        applier.feed(data)
        assert (applier.report.replayed + applier.report.failed
                == applied), "resume double-applied"
        assert table_rows(replica) == table_rows(origin)

    def test_partial_feed_acks_only_frame_boundaries(self):
        data, origin = self._stream(
            [lambda db, i=i: db.insert("t", [f"r{i}", i]) for i in range(4)]
        )
        replica = Database(buffer_pages=32)
        applier = WALApplier(replica, 0)
        for cut in range(0, len(data), 97):  # arbitrary chunking
            applier.feed(data[applier.fetch_lsn:cut])
            assert applier.ack_lsn <= cut
        applier.feed(data[applier.fetch_lsn:])
        assert applier.ack_lsn == len(data)
        assert table_rows(replica) == table_rows(origin)

    def test_committed_txn_group_applies_atomically(self):
        data, origin = self._stream([
            lambda db: db.sql("BEGIN"),
            lambda db: db.sql("INSERT INTO t VALUES ('in-txn', 7)"),
            lambda db: db.sql("COMMIT"),
        ])
        replica = Database(buffer_pages=32)
        applier = WALApplier(replica, 0)
        # Feed the group minus its COMMIT frame: nothing may apply.
        scan = scan_records(data, 0)
        commit = next(r for r in scan.records
                      if r.type == WALRecordType.TXN_COMMIT)
        applier.feed(data[:commit.lsn])
        assert applier.ack_lsn <= scan.records[0].end_lsn
        assert table_rows(replica) != table_rows(origin)
        # The COMMIT closes the group; everything lands at once.
        applier.feed(data[applier.fetch_lsn:])
        assert applier.report.committed_txns == 1
        assert table_rows(replica) == table_rows(origin)

    def test_interrupted_group_is_abandoned_like_recovery(self):
        """A non-group record interrupting an open group means the group
        can never commit (commit groups are appended contiguously): the
        applier must discard it, mirroring recovery's crash-mid-commit
        discard — and must not stall the ack forever."""
        data, origin = self._stream([
            lambda db: db.sql("BEGIN"),
            lambda db: db.sql("INSERT INTO t VALUES ('doomed', 1)"),
            lambda db: db.sql("COMMIT"),
            lambda db: db.insert("t", ["survivor", 2]),
        ])
        scan = scan_records(data, 0)
        commit = next(r for r in scan.records
                      if r.type == WALRecordType.TXN_COMMIT)
        tail = next(r for r in scan.records
                    if r.type == WALRecordType.INSERT and r.txn_id == 0)
        # Splice the stream: group minus COMMIT, then the autocommit
        # insert re-framed at the commit's position — exactly what a
        # primary crash between group append and sync can leave behind.
        spliced = data[:commit.lsn] + encode_record(
            commit.lsn, tail.type, tail.stmt_id, tail.payload, 0
        )
        replica = Database(buffer_pages=32)
        applier = WALApplier(replica, 0)
        applier.feed(spliced)
        assert len(applier.report.uncommitted_txns) == 1
        assert applier.ack_lsn == len(spliced)
        names = {values[0] for _, values in table_rows(replica)}
        assert "survivor" in names and "doomed" not in names

    def test_stream_joined_mid_group_never_applies_orphans(self):
        data, _ = self._stream([
            lambda db: db.sql("BEGIN"),
            lambda db: db.sql("INSERT INTO t VALUES ('in-txn', 7)"),
            lambda db: db.sql("COMMIT"),
        ])
        scan = scan_records(data, 0)
        group = [r for r in scan.records if r.txn_id != 0]
        # Start the stream after TXN_BEGIN: the insert and commit are
        # orphans of a group whose head we never saw.
        start = group[1].lsn
        replica = Database(buffer_pages=32)
        applier = WALApplier(replica, start)
        applier.feed(data[start:])
        assert applier.report.discarded_txn_records >= 1
        assert applier.report.committed_txns == 0
        assert table_rows(replica) == ()


# ---------------------------------------------------------------------------
# read-only enforcement + snapshot round-trip
# ---------------------------------------------------------------------------

class TestReadOnlyAndSnapshot:
    def test_read_only_database_rejects_writes_twice_over(self):
        db = make_wal_db()
        db.insert("t", ["a", 1])
        db.read_only = True
        with pytest.raises(ReadOnlyReplicaError):
            db.sql("INSERT INTO t VALUES ('nope', 1)")
        with pytest.raises(ReadOnlyReplicaError):
            db.sql("BEGIN")
        with pytest.raises(ReadOnlyReplicaError):
            # Bypassing the session layer still hits the WAL-layer guard.
            db.insert("t", ["nope", 2])
        assert len(db.sql("SELECT name FROM t")) == 1  # reads still fine

    def test_applier_writes_bypass_the_guard(self):
        data, origin = self._origin()
        replica = Database(buffer_pages=32)
        replica.read_only = True
        WALApplier(replica, 0).feed(data)
        assert table_rows(replica) == table_rows(origin)

    def _origin(self):
        db = make_wal_db()
        db.insert("t", ["a", 1])
        return db.wal.device.durable(), db

    def test_snapshot_bytes_round_trips_with_lsn(self):
        db = make_wal_db()
        for i in range(3):
            db.insert("t", [f"r{i}", i])
        image = db.snapshot_bytes()
        clone = Database.load_bytes(image)
        assert table_rows(clone) == table_rows(db)
        assert clone.checkpoint_lsn == db.wal.next_lsn
        # snapshot_bytes must NOT truncate the WAL (bootstrap must be
        # able to stream the tail from before the snapshot point).
        assert db.wal.read_stream(0, 1 << 20)[1] == "ok"


# ---------------------------------------------------------------------------
# end-to-end: primary server + replica server
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def test_replica_serves_bootstrapped_and_streamed_rows(self, pair):
        primary, rh = pair
        with QueryClient("127.0.0.1", primary.port) as c:
            for i in range(10):
                c.execute(f"INSERT INTO t VALUES ('live{i}', {i})")
        assert rh.replica.link.wait_caught_up(10)
        with QueryClient("127.0.0.1", rh.port) as c:
            got = c.execute("SELECT name, v FROM t")
        assert got["row_count"] == 15  # 5 seeded + 10 streamed
        assert table_rows(rh.replica.db) == table_rows(primary.db)

    def test_writes_answer_typed_read_only_error(self, pair):
        _, rh = pair
        with QueryClient("127.0.0.1", rh.port) as c:
            with pytest.raises(ServerError) as exc_info:
                c.execute("INSERT INTO t VALUES ('nope', 0)")
            assert exc_info.value.error_type == "ReadOnlyReplicaError"
            with pytest.raises(ServerError) as exc_info:
                c.execute("BEGIN")
            assert exc_info.value.error_type == "ReadOnlyReplicaError"

    def test_health_carries_repl_lag_fields(self, pair):
        primary, rh = pair
        with QueryClient("127.0.0.1", rh.port) as c:
            repl = c.health()["repl"]
        assert repl["role"] == "replica"
        assert repl["bootstrapped"] and repl["connected"]
        assert repl["applied_lsn"] > 0
        assert repl["lag_bytes"] >= 0 and repl["lag_seconds"] >= 0.0
        assert repl["replica_id"] == rh.replica.replica_id
        with QueryClient("127.0.0.1", primary.port) as c:
            health = c.health()
        assert health["repl"]["role"] == "primary"
        assert rh.replica.replica_id in health["repl"]["streams"]
        assert health["lsn"] == primary.db.wal.flushed_lsn
        gauges = rh.replica.db.metrics.snapshot()
        assert "repl.applied_lsn" in gauges

    def test_bounded_staleness_read_waits_or_fails_typed(self, pair):
        primary, rh = pair
        rc = ResilientQueryClient("127.0.0.1", primary.port)
        rc.execute("INSERT INTO t VALUES ('fresh', 99)")
        lsn = rc.last_commit_lsn
        assert lsn > 0
        with QueryClient("127.0.0.1", rh.port) as c:
            got = c.execute("SELECT name FROM t WHERE v = 99",
                            min_lsn=lsn, min_lsn_timeout=5.0)
            assert got["row_count"] == 1  # waited for the apply
            with pytest.raises(ServerError) as exc_info:
                c.execute("SELECT name FROM t", min_lsn=10 ** 12,
                          min_lsn_timeout=0.05)
            assert exc_info.value.error_type == "ReplicaLaggingError"
        rc.close()

    def test_infinite_staleness_wait_is_a_typed_protocol_error(self, pair):
        _primary, rh = pair
        with QueryClient("127.0.0.1", rh.port) as c:
            with pytest.raises(ServerError) as exc_info:
                c.execute("SELECT name FROM t", min_lsn=10 ** 12,
                          min_lsn_timeout=float("inf"))
            assert exc_info.value.error_type == "ProtocolError"
            assert "min_lsn_timeout" in str(exc_info.value)
            assert c.execute("SELECT name FROM t")["row_count"] >= 5

    def test_checkpoint_on_live_primary_loses_no_records(self, pair, tmp_path):
        primary, rh = pair
        with QueryClient("127.0.0.1", primary.port) as c:
            for i in range(5):
                c.execute(f"INSERT INTO t VALUES ('pre{i}', {i})")
        primary.db.save(tmp_path / "ckpt.img")  # truncates the WAL
        with QueryClient("127.0.0.1", primary.port) as c:
            for i in range(5):
                c.execute(f"INSERT INTO t VALUES ('post{i}', {i})")
        assert rh.replica.link.wait_caught_up(10)
        assert table_rows(rh.replica.db) == table_rows(primary.db)

    def test_detached_replica_rebootstraps_after_falling_off_the_log(
            self, primary, tmp_path):
        rh = ReplicaHarness(primary.port)
        try:
            assert rh.replica.wait_ready(10)
            assert rh.replica.link.wait_caught_up(10)
            # Sever the link and drop its retention pin, then move the
            # log past it: the replica's resume point falls off.
            rh.replica.link.stop(join=True)
            with primary.db._commit_mutex:
                primary.db.wal.unregister_stream(rh.replica.replica_id)
            for i in range(8):
                primary.db.insert("t", [f"gap{i}", i])
            primary.db.save(tmp_path / "ckpt.img")
            bootstraps = rh.replica.link.bootstraps
            rh.replica.link._stop.clear()
            rh.replica.link.start()
            assert wait_for(
                lambda: rh.replica.link.bootstraps > bootstraps, 10
            ), "too_old answer did not trigger a re-bootstrap"
            assert rh.replica.link.wait_caught_up(10)
            assert table_rows(rh.replica.db) == table_rows(primary.db)
        finally:
            rh.stop()


class TestPromoteAndFailover:
    def test_promote_then_write(self, pair):
        primary, rh = pair
        assert rh.replica.link.wait_caught_up(10)
        with QueryClient("127.0.0.1", rh.port) as c:
            result = c.request({"op": "promote"})
            assert result["promoted"]
            c.execute("INSERT INTO t VALUES ('after-promote', 1)")
            got = c.execute("SELECT name FROM t")
            assert got["row_count"] == 6
            # Idempotent: a second promote is a no-op answer, not an error.
            again = c.request({"op": "promote"})
            assert again.get("already_primary")

    def test_promote_then_commit(self, pair):
        """A promoted replica commits transactions into its new log: the
        runtime loaded with the snapshot is rebuilt around the live
        database, so the commit loop does not run on a read-only copy."""
        primary, rh = pair
        assert rh.replica.link.wait_caught_up(10)
        rh.replica.promote()
        db = rh.replica.db
        session = db.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES ('txn-after-promote', 2)")
        session.execute("COMMIT")
        assert ("txn-after-promote", 2) in [v for _, v in table_rows(db)]
        types = [r.type for r in scan_records(
            db.wal.device.durable(), db.wal.device.base_lsn).records]
        assert types == [WALRecordType.TXN_BEGIN, WALRecordType.INSERT,
                         WALRecordType.TXN_COMMIT]

    def test_promote_before_bootstrap_is_refused(self):
        # Point the replica at a dead port: bootstrap can never finish.
        replica = ReplicaServer("127.0.0.1", 1, retry=RetryPolicy(
            max_attempts=2, base_delay=0.001, max_delay=0.01))
        with pytest.raises(ReplicationError):
            replica.promote()

    def test_promoted_replica_serves_new_replicas(self, pair):
        primary, rh = pair
        assert rh.replica.link.wait_caught_up(10)
        rh.replica.promote()
        rh.replica.db.insert("t", ["chained", 42])
        chained = ReplicaHarness(rh.port)
        try:
            assert chained.replica.wait_ready(10)
            assert chained.replica.link.wait_caught_up(10)
            assert table_rows(chained.replica.db) == table_rows(
                rh.replica.db)
        finally:
            chained.stop()

    def test_reads_fail_over_when_primary_dies(self, pair):
        primary, rh = pair
        rc = ResilientQueryClient(
            "127.0.0.1", primary.port,
            replicas=[("127.0.0.1", rh.port)],
            retry=RetryPolicy(max_attempts=6, base_delay=0.01,
                              max_delay=0.05),
        )
        assert rc.execute("SELECT name FROM t")["row_count"] == 5
        primary.stop()
        # Reads rotate onto the replica; a write must surface a typed
        # error (never a silent ambiguous retry).
        assert rc.execute("SELECT name FROM t")["row_count"] == 5
        assert rc.failovers >= 1
        with pytest.raises((ServerError, OSError)):
            rc.execute("INSERT INTO t VALUES ('lost', 0)")
        rc.close()

    def test_replica_list_learned_at_runtime(self, pair):
        primary, rh = pair
        rc = ResilientQueryClient("127.0.0.1", primary.port)
        rc.add_replica("127.0.0.1", rh.port)
        assert len(rc.endpoints) == 2
        primary.stop()
        assert rc.execute("SELECT name FROM t")["row_count"] == 5
        rc.close()


class TestReplicationLag:
    def test_lag_metrics_advance_under_ingest(self, pair):
        primary, rh = pair
        link = rh.replica.link
        for i in range(20):
            primary.db.insert("t", [f"m{i}", i])
        assert link.wait_caught_up(10)
        assert link.lag_bytes() == 0
        assert link.lag_seconds() == 0.0
        snap = rh.replica.db.metrics.snapshot()
        assert snap.get("repl.records_applied", 0) >= 20
