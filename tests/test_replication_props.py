"""Property suite for replication framing and resume semantics.

The replication stream *is* the WAL byte format, so the properties pin
the contracts both the link and the applier rely on:

* **Frame round-trip** — any sequence of records encodes to a stream
  that scans back verbatim, with physical frame boundaries (never the
  re-encoded payload length, which is not byte-stable).
* **Torn tails** — cutting the stream at ANY byte yields a clean parse
  of a frame-boundary prefix; the applier acks only whole committed
  records and resuming with the remainder converges. Never a partial
  apply, never a lost or doubled record.
* **Duplicated delivery** — re-feeding any already-applied slice (the
  reconnect overlap) applies nothing.
* **Garbled bytes** — corrupting any byte makes both the applier and
  crash recovery stop at the same point with identical state: a replica
  fed garbage can diverge from a recovered primary by exactly nothing.
* **Arbitrary chunking with seeded reconnects** — any partition of the
  stream, with arbitrary rewinds to the ack watermark in between,
  converges to the recovered-primary state with zero double applies.
* **A crash and a restart** — one process's log cut at any byte, then a
  restarted process's statements appended after its recovery (reusing
  the crashed process's txn ids): the applier and recovery reach the
  same state, and it is exactly the acknowledged commits.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.catalog.schema import Column  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.replication.applier import WALApplier  # noqa: E402
from repro.storage.record import ValueType  # noqa: E402
from repro.wal.device import MemoryWALDevice  # noqa: E402
from repro.wal.record import (  # noqa: E402
    FRAME_SIZE,
    WALRecordType,
    encode_record,
    scan_records,
)
from tests.test_crash_matrix import db_state  # noqa: E402


# ---------------------------------------------------------------------------
# one canonical stream, built once: DDL + autocommit DML + a txn group
# ---------------------------------------------------------------------------

def build_stream() -> bytes:
    db = Database(buffer_pages=32)
    db.attach_wal(MemoryWALDevice())
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    for i in range(6):
        db.insert("t", [f"r{i}", i % 3])
    db.add_annotation("a note", table="t", oid=1)
    db.sql("BEGIN")
    db.sql("INSERT INTO t VALUES ('txn-a', 7)")
    db.sql("INSERT INTO t VALUES ('txn-b', 8)")
    db.sql("COMMIT")
    db.sql("UPDATE t SET v = 9 WHERE name = 'r5'")
    db.delete_tuple("t", 2)
    return db.wal.device.durable()


STREAM = build_stream()
SCAN = scan_records(STREAM, 0)
#: physical frame boundaries: [0, end-of-frame-0, ..., len(STREAM)].
BOUNDARIES = [r.lsn for r in SCAN.records] + [SCAN.end_lsn]


def recovered_state(data: bytes):
    """What a primary crash-recovered from exactly ``data`` serves."""
    db, _ = Database.recover(None, MemoryWALDevice.from_durable(data, 0))
    return db_state(db)


def applier_state(applier: WALApplier):
    return db_state(applier.db)


def fresh_applier() -> WALApplier:
    return WALApplier(Database(buffer_pages=32), 0)


def records_applied(applier: WALApplier) -> int:
    """Records put through the redo step, whether or not they raised: a
    re-applied record usually raises, so ``failed`` counts too."""
    return applier.report.replayed + applier.report.failed


class TestFrameRoundTrip:
    @given(st.lists(
        st.tuples(
            st.sampled_from([WALRecordType.INSERT, WALRecordType.DELETE,
                             WALRecordType.UPDATE, WALRecordType.ANN_ADD]),
            st.integers(min_value=0, max_value=2 ** 32),
            st.integers(min_value=0, max_value=2 ** 16),
            st.dictionaries(st.text(max_size=8),
                            st.integers() | st.text(max_size=16),
                            max_size=4),
        ),
        max_size=8,
    ))
    def test_encode_scan_round_trip(self, specs):
        data = bytearray()
        for rtype, stmt_id, txn_id, payload in specs:
            data.extend(encode_record(len(data), rtype, stmt_id,
                                      payload, txn_id))
        scan = scan_records(bytes(data), 0)
        assert len(scan.records) == len(specs)
        assert scan.torn_bytes == 0
        assert scan.end_lsn == len(data)
        for rec, (rtype, stmt_id, txn_id, payload) in zip(
                scan.records, specs):
            assert (rec.type, rec.stmt_id, rec.txn_id, rec.payload) == (
                rtype, stmt_id, txn_id, payload)

    @given(st.integers(min_value=0, max_value=len(STREAM)))
    def test_any_cut_parses_a_frame_boundary_prefix(self, cut):
        scan = scan_records(STREAM[:cut], 0)
        assert scan.end_lsn in BOUNDARIES
        assert scan.end_lsn <= cut
        # the parse is maximal: every whole frame before the cut decodes
        assert scan.end_lsn == max(b for b in BOUNDARIES if b <= cut)


class TestTornTailsNeverPartiallyApply:
    @given(st.integers(min_value=0, max_value=len(STREAM)))
    def test_prefix_apply_equals_prefix_recovery(self, cut):
        """A replica fed any prefix matches a primary recovered from the
        same bytes — the chaos battery's invariant, at every byte."""
        applier = fresh_applier()
        res = applier.feed(STREAM[:cut])
        assert applier.ack_lsn in BOUNDARIES  # whole frames only
        assert res.parsed_bytes == applier.fetch_lsn
        assert applier_state(applier) == recovered_state(STREAM[:cut])

    @given(st.integers(min_value=0, max_value=len(STREAM)))
    def test_resume_from_any_cut_converges(self, cut):
        applier = fresh_applier()
        applier.feed(STREAM[:cut])
        applied_before = records_applied(applier)
        # Reconnect: rewind to the ack, refetch the overlap + the rest.
        applier.reset_to_ack()
        applier.feed(STREAM[applier.fetch_lsn:])
        assert applier.ack_lsn == len(STREAM)
        assert records_applied(applier) >= applied_before
        # exactly once overall: the rewound overlap held only records
        # that were buffered, never applied
        assert records_applied(applier) == len(SCAN.records)
        assert applier_state(applier) == recovered_state(STREAM)

    @given(st.sampled_from(BOUNDARIES))
    def test_duplicated_delivery_never_double_applies(self, boundary):
        applier = fresh_applier()
        applier.feed(STREAM)
        assert applier.ack_lsn == len(STREAM)
        applied = records_applied(applier)
        state = applier_state(applier)
        # A confused primary rewinds to an arbitrary frame boundary and
        # re-sends the whole tail: every record sits below the ack
        # watermark, so nothing may re-apply.
        applier.fetch_lsn = boundary
        applier.feed(STREAM[boundary:])
        assert applier.fetch_lsn == len(STREAM)
        assert records_applied(applier) == applied
        assert applier.ack_lsn == len(STREAM)
        assert applier_state(applier) == state


class TestGarbledFrames:
    @given(st.integers(min_value=0, max_value=len(STREAM) - 1),
           st.integers(min_value=1, max_value=255))
    def test_corruption_stops_apply_at_the_same_point_as_recovery(
            self, pos, mask):
        garbled = bytearray(STREAM)
        garbled[pos] ^= mask
        garbled = bytes(garbled)
        applier = fresh_applier()
        applier.feed(garbled)  # typed outcome: parse stops, never raises
        assert applier.ack_lsn in BOUNDARIES
        assert applier.ack_lsn <= len(STREAM)
        assert applier_state(applier) == recovered_state(garbled)
        # The corruption can only hide at-or-after its own frame.
        frame_start = max(b for b in BOUNDARIES if b <= pos)
        assert applier.ack_lsn <= frame_start or pos >= applier.ack_lsn

    @given(st.binary(min_size=1, max_size=FRAME_SIZE * 3))
    def test_pure_garbage_applies_nothing(self, junk):
        applier = fresh_applier()
        res = applier.feed(junk)
        assert res.applied == 0 and res.parsed_records == 0
        assert applier.ack_lsn == 0
        assert applier_state(applier) == db_state(Database(buffer_pages=8))


class TestChunkedDeliveryWithReconnects:
    @given(st.lists(st.integers(min_value=1, max_value=len(STREAM)),
                    min_size=1, max_size=12),
           st.sets(st.integers(min_value=0, max_value=11)))
    def test_any_chunking_with_rewinds_converges(self, sizes, rewinds):
        """Deliver the stream in arbitrary windows, rewinding to the ack
        watermark (a reconnect) before seeded chunk indexes; the replica
        must land exactly on the recovered-primary state, applying each
        record exactly once."""
        applier = fresh_applier()
        i = 0
        while applier.fetch_lsn < len(STREAM) or i < len(sizes):
            if i in rewinds:
                applier.reset_to_ack()
            size = sizes[i % len(sizes)]
            applier.feed(STREAM[applier.fetch_lsn:
                                applier.fetch_lsn + size])
            i += 1
            if i > len(sizes) * 4 + 40:  # chunks too small to finish
                applier.reset_to_ack()
                applier.feed(STREAM[applier.fetch_lsn:])
                break
        assert applier.ack_lsn == len(STREAM)
        assert applier_state(applier) == recovered_state(STREAM)
        # every record applied exactly once, reconnects notwithstanding
        assert records_applied(applier) == len(SCAN.records)


# ---------------------------------------------------------------------------
# a log spanning a crash and a restart
# ---------------------------------------------------------------------------

def txn(db: Database, names: list[str]) -> None:
    db.sql("BEGIN")
    for name in names:
        db.sql(f"INSERT INTO t VALUES ('{name}', 1)")
    db.sql("COMMIT")


def set_up(db: Database) -> None:
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    db.insert("t", ["base", 0])


#: the crashed process's statements, each one record or one whole group.
A_UNITS = [
    lambda db: txn(db, ["a1-0", "a1-1", "a1-2"]),
    lambda db: db.insert("t", ["a", 2]),
    lambda db: db.add_annotation("a note", table="t", oid=1),
    lambda db: txn(db, ["a2-0", "a2-1"]),
    lambda db: db.delete_tuple("t", 1),
    lambda db: txn(db, ["a3-0"]),
]
#: the restarted process's statements: its txn ids start at 1 again.
B_UNITS = [
    lambda db: txn(db, ["b1-0", "b1-1"]),
    lambda db: db.insert("t", ["b", 3]),
    lambda db: txn(db, ["b2-0"]),
    lambda db: txn(db, ["b3-0", "b3-1"]),
]


def build_crashed_log() -> tuple[bytes, list[int]]:
    """Process A's log and the byte offset where each unit ends."""
    db = Database(buffer_pages=32)
    db.attach_wal(MemoryWALDevice())
    set_up(db)
    ends = [len(db.wal.device.durable())]
    for unit in A_UNITS:
        unit(db)
        ends.append(len(db.wal.device.durable()))
    return db.wal.device.durable(), ends


A_LOG, A_ENDS = build_crashed_log()


def oracle_state(units_kept: int):
    db = Database(buffer_pages=32)
    set_up(db)
    for unit in A_UNITS[:units_kept] + B_UNITS:
        unit(db)
    return db_state(db)


class TestCrashAndRestart:
    @given(st.integers(min_value=A_ENDS[0], max_value=len(A_LOG)),
           st.integers(min_value=1, max_value=400))
    def test_applier_equals_recovery_equals_acknowledged_commits(
            self, cut, chunk):
        restarted, _ = Database.recover(
            None, MemoryWALDevice.from_durable(A_LOG[:cut], 0)
        )
        for unit in B_UNITS:
            unit(restarted)
        log = restarted.wal.device.durable()
        applier = fresh_applier()
        while applier.fetch_lsn < len(log):
            result = applier.feed(log[applier.fetch_lsn:
                                      applier.fetch_lsn + chunk])
            if not result.parsed_bytes:
                chunk *= 2  # a frame wider than the window: grow it
        assert applier.ack_lsn == len(log)
        kept = sum(end <= cut for end in A_ENDS[1:])
        assert applier_state(applier) == recovered_state(log)
        assert recovered_state(log) == oracle_state(kept)
