"""Two crashes with a restart between them.

Transaction ids are handed out per process, so a restarted primary
reuses the ids of the process before it.  A transaction that crashed
mid-commit, after a forced log flush made part of its group durable,
must stay dead through every later recovery, even when the next process
commits its own transaction under the same id.  A replica fed the same
log from LSN 0 must reach the same state.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import InjectedFaultError
from repro.replication.applier import WALApplier
from repro.storage.record import ValueType
from repro.wal.device import MemoryWALDevice
from repro.wal.record import WALRecordType, scan_records
from tests.test_crash_matrix import db_state

#: inserts in the transaction that crashes mid-commit, and their width:
#: enough to force the log durable through buffer-pool write-back.
GROUP_ROWS = 400
PAD = "x" * 200


def names(db: Database) -> list[str]:
    return sorted(values[0] for _oid, values in db.catalog.table("t").scan())


def survivor(device: MemoryWALDevice) -> MemoryWALDevice:
    """What a crash leaves: the durable bytes only."""
    return MemoryWALDevice.from_durable(device.durable(), device.base_lsn)


def lose_power_at_commit_sync(db: Database) -> None:
    """The statement-end sync of the next commit fails: its pending bytes
    are lost, while forced flushes before it stay durable."""
    def sync():
        raise InjectedFaultError("power lost at the commit sync")
    db.wal.sync = sync


def commit(db: Database, rows: list[str]) -> None:
    session = db.session()
    session.execute("Begin")
    for name in rows:
        session.execute(f"Insert Into t Values ('{name}', 1)")
    session.execute("Commit")
    session.close()


@pytest.fixture()
def twice_crashed_log() -> bytes:
    """Process A crashes mid-commit, B recovers, commits one transaction
    under A's txn id and crashes too; returns B's durable log."""
    a = Database(buffer_pages=4)
    a.attach_wal(MemoryWALDevice())
    a.create_table("t", [Column("name", ValueType.TEXT),
                         Column("v", ValueType.INT)])
    a.insert("t", ["acked", 0])
    lose_power_at_commit_sync(a)
    with pytest.raises(InjectedFaultError):
        commit(a, [f"lost{i}{PAD}" for i in range(GROUP_ROWS)])
    assert a.metrics.get("wal.forced_flushes") > 0
    a_log = survivor(a.wal.device)
    lost = [r for r in scan_records(a_log.durable(), 0).records
            if r.txn_id != 0]
    assert lost[0].type == WALRecordType.TXN_BEGIN
    assert len(lost) > 1, "no forced flush made the group's prefix durable"

    b, report = Database.recover(None, a_log)
    assert names(b) == ["acked"]
    assert report.uncommitted_txns == [lost[0].txn_id]
    commit(b, ["b-row"])
    log = survivor(b.wal.device).durable()
    begins = [r.txn_id for r in scan_records(log, 0).records
              if r.type == WALRecordType.TXN_BEGIN]
    assert begins == [1, 1], "the restarted process reuses txn id 1"
    return log


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
