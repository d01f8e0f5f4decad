"""Two crashes with a restart between them.

Transaction ids are handed out per process, so a restarted primary
reuses the ids of the process before it.  A transaction that crashed
mid-commit, after a forced log flush made part of its group durable,
must stay dead through every later recovery.  Recovery cuts such a
trailing dead group from the log, so the next process writes after the
last committed record and no log it leaves holds a dead group.  A log
an older build left holds one, followed by the next process's commit
under the same txn id: recovery, and a replica fed it from LSN 0, must
still reach the same state.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import InjectedFaultError
from repro.replication.applier import WALApplier
from repro.storage.record import ValueType
from repro.wal.device import MemoryWALDevice
from repro.wal.record import WALRecordType, encode_record, scan_records
from tests.test_crash_matrix import db_state

#: inserts in the transaction that crashes mid-commit, and their width:
#: enough to force the log durable through buffer-pool write-back.
GROUP_ROWS = 400
PAD = "x" * 200


def names(db: Database) -> list[str]:
    return sorted(values[0] for _oid, values in db.catalog.table("t").scan())


def commit(db: Database, rows: list[str]) -> None:
    session = db.session()
    session.execute("Begin")
    for name in rows:
        session.execute(f"Insert Into t Values ('{name}', 1)")
    session.execute("Commit")
    session.close()


def txn_begins(log: bytes) -> list[int]:
    return [r.txn_id for r in scan_records(log, 0).records
            if r.type == WALRecordType.TXN_BEGIN]


@pytest.fixture()
def crashed_log() -> bytes:
    """Process A loses power at the statement-end sync of a large commit:
    the durable bytes then are the log, ending in the forced-flushed
    prefix of a group with no commit frame."""
    a = Database(buffer_pages=4)
    a.attach_wal(MemoryWALDevice())
    a.create_table("t", [Column("name", ValueType.TEXT),
                         Column("v", ValueType.INT)])
    a.insert("t", ["acked", 0])
    survived = []

    def lose_power():
        survived.append(a.wal.device.durable())
        raise InjectedFaultError("power lost at the commit sync")

    a.wal.sync = lose_power
    with pytest.raises(InjectedFaultError):
        commit(a, [f"lost{i}{PAD}" for i in range(GROUP_ROWS)])
    assert a.metrics.get("wal.forced_flushes") > 0
    lost = [r for r in scan_records(survived[0], 0).records if r.txn_id]
    assert lost[0].type == WALRecordType.TXN_BEGIN
    assert len(lost) > 1, "no forced flush made the group's prefix durable"
    return survived[0]


def test_recovery_cuts_the_dead_group(crashed_log):
    """B's recovery leaves no byte of A's dead group: its own commit is
    written where the group began, the only group in its log."""
    dead_at = next(r.lsn for r in scan_records(crashed_log, 0).records
                   if r.txn_id)
    device = MemoryWALDevice.from_durable(crashed_log, 0)
    b, report = Database.recover(None, device)
    assert names(b) == ["acked"]
    assert report.uncommitted_txns == [1]
    assert report.end_lsn == b._applied_lsn == dead_at
    assert device.durable() == crashed_log[:dead_at]
    commit(b, ["b-row"])
    log = device.durable()
    assert log[:dead_at] == crashed_log[:dead_at]
    assert txn_begins(log) == [1]
    c, again = Database.recover(None, MemoryWALDevice.from_durable(log, 0))
    assert names(c) == ["acked", "b-row"]
    assert (again.committed_txns, again.uncommitted_txns) == (1, [])


@pytest.fixture()
def twice_crashed_log(crashed_log) -> bytes:
    """The log an older build left, built from frames: A's dead group
    stayed in it, and B's commit, under A's txn id, follows it."""
    b, _report = Database.recover(
        None, MemoryWALDevice.from_durable(crashed_log, 0)
    )
    cut = b.wal.next_lsn
    commit(b, ["b-row"])
    log = bytearray(crashed_log)
    for r in scan_records(b.wal.device.durable(), 0).records:
        if r.lsn >= cut:
            log += encode_record(len(log), r.type, r.stmt_id, r.payload,
                                 r.txn_id)
    assert txn_begins(bytes(log)) == [1, 1], "B reuses txn id 1"
    return bytes(log)


def test_second_recovery_keeps_the_dead_transaction_dead(twice_crashed_log):
    c, report = Database.recover(
        None, MemoryWALDevice.from_durable(twice_crashed_log, 0)
    )
    assert names(c) == ["acked", "b-row"]
    assert report.committed_txns == 1
    assert report.uncommitted_txns == [1]
    assert c.check_integrity().ok


@pytest.mark.parametrize("chunk", [None, 1000])
def test_applier_from_lsn_zero_reaches_the_recovered_state(
        twice_crashed_log, chunk):
    recovered, _ = Database.recover(
        None, MemoryWALDevice.from_durable(twice_crashed_log, 0)
    )
    applier = WALApplier(Database(buffer_pages=32), 0)
    step = chunk or len(twice_crashed_log)
    while applier.fetch_lsn < len(twice_crashed_log):
        result = applier.feed(twice_crashed_log[applier.fetch_lsn:
                                                applier.fetch_lsn + step])
        assert result.parsed_bytes > 0, "a frame is wider than the chunk"
    assert applier.ack_lsn == len(twice_crashed_log)
    assert names(applier.db) == ["acked", "b-row"]
    assert db_state(applier.db) == db_state(recovered)
    assert applier.report.committed_txns == 1
    assert applier.report.uncommitted_txns == [1]
