"""A failed WAL sync fail-stops the database, not only the device.

A statement's redo ops are applied before its record is synced, so when
the sync fails the statement is in memory but was never acknowledged.
A commit group whose apply fails partway is in memory in part, and
recovery drops all of it, so it stops the database the same way.
From then on every statement — reads included — raises
:class:`DatabaseFailedError` instead of answering from that state, and
:meth:`Database.recover` over the log gives exactly the acknowledged
prefix.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro import Column, Database, ValueType
from repro.errors import DatabaseFailedError, InjectedFaultError, WALError
from repro.faults.plan import FaultPlan
from repro.txn import manager as manager_module
from repro.wal.device import FileWALDevice, MemoryWALDevice

SELECT = "Select t.name From t"


def names(db: Database) -> list[str]:
    return sorted(row.values[0] for row in db.sql(SELECT).tuples)


def logged_db(device) -> Database:
    db = Database(buffer_pages=32)
    db.attach_wal(device)
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("n", ValueType.INT)])
    db.insert("t", {"name": "acked", "n": 1})
    return db


def test_failed_sync_stops_every_later_statement(tmp_path, monkeypatch):
    path = tmp_path / "db.wal"
    db = logged_db(FileWALDevice(path))
    assert names(db) == ["acked"]
    real_write = os.write

    def eio(fd, data):
        raise OSError(errno.EIO, "injected I/O error")

    monkeypatch.setattr(os, "write", eio)
    with pytest.raises(WALError):
        db.insert("t", {"name": "unacked", "n": 2})
    monkeypatch.setattr(os, "write", real_write)

    # The unacknowledged row is applied in memory: no read may see it.
    with pytest.raises(DatabaseFailedError):
        db.sql(SELECT)
    with pytest.raises(DatabaseFailedError):
        db.insert("t", {"name": "after", "n": 3})
    with pytest.raises(DatabaseFailedError):
        db.sql("Insert Into t Values ('after', 3)")
    with pytest.raises(DatabaseFailedError):
        db.create_table("u", [Column("x", ValueType.INT)])
    session = db.session()
    with pytest.raises(DatabaseFailedError):
        session.execute("Begin")
    db.detach_wal()

    recovered, report = Database.recover(None, FileWALDevice(path))
    assert report.torn_bytes == 0
    assert names(recovered) == ["acked"]
    recovered.insert("t", {"name": "later", "n": 4})
    assert names(recovered) == ["acked", "later"]
    recovered.detach_wal()


def test_failed_commit_sync_stops_the_database():
    """A transaction's commit syncs once; when that sync fails the whole
    transaction is unacknowledged and the database stops the same way."""
    device = MemoryWALDevice()
    db = logged_db(device)
    session = db.session()
    session.execute("Begin")
    session.execute("Insert Into t Values ('txn', 2)")
    device.plan = FaultPlan().fail_sync(at=device.sync_ops)
    with pytest.raises(InjectedFaultError):
        session.execute("Commit")
    with pytest.raises(DatabaseFailedError):
        db.sql(SELECT)
    survivor = MemoryWALDevice.from_durable(device.durable(),
                                            base_lsn=device.base_lsn)
    recovered, _report = Database.recover(None, survivor)
    assert names(recovered) == ["acked"]


def test_failed_commit_apply_stops_the_database(tmp_path, monkeypatch):
    """A commit whose apply raises partway leaves its first ops visible,
    while recovery drops the whole group: the database stops until then."""
    device = MemoryWALDevice()
    db = logged_db(device)
    session = db.session()
    session.execute("Begin")
    session.execute("Insert Into t Values ('first', 2)")
    session.execute("Insert Into t Values ('second', 3)")
    real_apply = manager_module.apply_records
    calls = []

    def fail_second_op(db, records, report=None):
        calls.append(records)
        if len(calls) == 2:
            raise InjectedFaultError("apply failed mid-group")
        return real_apply(db, records, report)

    monkeypatch.setattr(manager_module, "apply_records", fail_second_op)
    with pytest.raises(InjectedFaultError):
        session.execute("Commit")
    monkeypatch.setattr(manager_module, "apply_records", real_apply)
    assert isinstance(db.failure, InjectedFaultError)
    with pytest.raises(DatabaseFailedError):
        db.sql(SELECT)
    with pytest.raises(DatabaseFailedError):
        db.insert("t", {"name": "after", "n": 4})
    # No image may carry the group's first op either.
    with pytest.raises(DatabaseFailedError):
        db.snapshot_bytes()
    with pytest.raises(DatabaseFailedError):
        db.save(tmp_path / "db.img")
    assert not list(tmp_path.iterdir())
    recovered, report = Database.recover(
        None, MemoryWALDevice.from_durable(device.durable(), device.base_lsn)
    )
    assert names(recovered) == ["acked"]
    assert report.committed_txns == 0


def test_a_failed_statement_that_never_synced_leaves_the_database_alive():
    """Only a failed sync stops the database: a statement that fails
    before its sync (here a schema error) is neither applied nor acked."""
    db = logged_db(MemoryWALDevice())
    with pytest.raises(Exception):
        db.insert("t", {"name": 5, "n": "five"})
    assert db.failure is None
    assert names(db) == ["acked"]
