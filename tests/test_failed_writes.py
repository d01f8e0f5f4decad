"""The log holds only writes that completed.

A statement that raises is cut from the log, bytes a forced flush made
durable included, so every logged record applied cleanly when it was
live and replay applies every record or raises.  A write that failed
part-way, an autocommit statement or a commit group, logged or not,
stops the database: its live state may hold part of the write.  A DDL
statement that fails changes nothing, so its cut leaves the database
alive.  Replicas read only through the last statement-boundary sync,
so none can hold a byte a cut removes.
"""

from __future__ import annotations

import pytest

from repro.catalog.schema import Column
from repro.core.database import LOGGED_DDL, Database
from repro.errors import DatabaseFailedError, InjectedFaultError, ReproError
from repro.index.replica import NormalizedSnippetReplica
from repro.storage.record import ValueType
from repro.txn import manager as manager_module
from repro.wal.device import MemoryWALDevice
from repro.wal.record import WALRecordType
from tests.test_crash_matrix import db_state

SELECT = "Select t.name From t"


def names(db: Database) -> list[str]:
    return sorted(values[0] for _oid, values in db.catalog.table("t").scan())


def recovered(device: MemoryWALDevice) -> Database:
    db, _report = Database.recover(
        None, MemoryWALDevice.from_durable(device.durable(), device.base_lsn)
    )
    return db


def fail_apply_at(monkeypatch, k: int, on_call=None) -> None:
    """Make the commit loop's ``k``-th apply (1-based) raise."""
    real_apply = manager_module.apply_records
    calls = []

    def apply_records(db, records, report=None):
        calls.append(records)
        if len(calls) == k:
            if on_call is not None:
                on_call(db)
            raise InjectedFaultError(f"apply #{k} failed")
        return real_apply(db, records, report)

    monkeypatch.setattr(manager_module, "apply_records", apply_records)


def three_row_db(logged: bool) -> Database:
    db = Database(buffer_pages=32)
    if logged:
        db.attach_wal(MemoryWALDevice())
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("n", ValueType.INT)])
    for i in range(3):
        db.insert("t", [f"r{i}", i])
    return db


def delete_all(db: Database) -> None:
    db.sql("Delete From t Where t.n >= 0")


def commit_three(db: Database) -> None:
    session = db.session()
    session.execute("Begin")
    for i in range(3):
        session.execute(f"Insert Into t Values ('new{i}', {10 + i})")
    session.execute("Commit")


def assert_stopped(db: Database) -> None:
    for statement in (
        lambda: db.sql(SELECT),
        lambda: db.insert("t", ["after", 9]),
        lambda: db.create_table("u", [Column("x", ValueType.INT)]),
        lambda: db.session().execute("Begin"),
    ):
        with pytest.raises(DatabaseFailedError):
            statement()


@pytest.mark.parametrize("logged", [True, False], ids=["wal", "no-wal"])
@pytest.mark.parametrize("write", [delete_all, commit_three],
                         ids=["delete", "commit"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_write_whose_kth_apply_raises_stops_the_database(
        monkeypatch, logged, write, k):
    db = three_row_db(logged)
    acked = db_state(db)
    log = db.wal.device.durable() if logged else None
    fail_apply_at(monkeypatch, k)
    with pytest.raises(InjectedFaultError):
        write(db)
    monkeypatch.undo()
    assert isinstance(db.failure, InjectedFaultError)
    assert_stopped(db)
    if logged:
        device = db.wal.device
        assert (device.durable(), device.pending_len) == (log, 0)
        assert db_state(recovered(device)) == acked


def test_a_failed_delete_is_cut_with_the_bytes_forced_flushes_wrote(
        monkeypatch):
    """300 deletes of wide rows on a 4-page pool: write-back forces the log
    durable part-way.  The 290th apply raises, so the cut must remove
    durable bytes too, and recovery keeps all 300 rows.  Replicas were
    never served a byte past the last statement-boundary sync."""
    db = Database(buffer_pages=4)
    db.attach_wal(MemoryWALDevice())
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("n", ValueType.INT)])
    for i in range(300):
        db.insert("t", [f"row{i}" + "x" * 200, i])
    synced = db.wal.next_lsn
    log = db.wal.device.durable()
    assert len(log) == synced
    flushes = db.metrics.get("wal.forced_flushes")
    seen = {}

    def read_replica_stream(db):
        seen["flushed"] = db.wal.flushed_lsn
        seen["served"], _status = db.wal.read_stream(0, 1 << 30)

    fail_apply_at(monkeypatch, 290, on_call=read_replica_stream)
    with pytest.raises(InjectedFaultError):
        delete_all(db)
    assert db.metrics.get("wal.forced_flushes") > flushes
    assert seen["flushed"] > synced, "no forced flush mid-statement"
    assert seen["served"] == log
    assert db.wal.device.durable() == log
    assert db.wal.read_stream(0, 1 << 30) == (log, "ok")
    assert len(names(recovered(db.wal.device))) == 300


def test_read_stream_stops_at_the_last_boundary_sync():
    db = three_row_db(logged=True)
    synced = db.wal.next_lsn
    flushes = db.metrics.get("wal.forced_flushes")
    with pytest.raises(RuntimeError):
        with db._wal_statement():
            db._wal_append(WALRecordType.INSERT, {
                "table": "t", "values": ["unacked", 5], "oid": 99,
            })
            db.wal.flush()
            assert db.wal.flushed_lsn > synced
            data, status = db.wal.read_stream(0, 1 << 30)
            assert (len(data), status) == (synced, "ok")
            assert db.wal.read_stream(synced, 1 << 30) == (b"", "ok")
            raise RuntimeError("the statement fails after a forced flush")
    assert db.metrics.get("wal.forced_flushes") == flushes + 1
    assert db.wal.device.durable_len == synced == db.wal.flushed_lsn


# -- a failed DDL statement changes nothing ----------------------------------


def ddl_db() -> Database:
    db = Database(buffer_pages=64)
    db.attach_wal(MemoryWALDevice())
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("n", ValueType.INT)])
    db.create_index("t", "n")
    db.create_classifier_instance(
        "C", ["pos", "neg"], [("good fine", "pos"), ("bad awful", "neg")]
    )
    db.create_classifier_instance("D", ["pos", "neg"])
    db.create_snippet_instance("S", min_chars=10, max_chars=20)
    db.create_snippet_instance("S2", min_chars=10, max_chars=20)
    db.link_summary_instance("t", "C", indexable=True)
    db.link_summary_instance("t", "S")
    db.link_summary_instance("t", "S2")
    db.create_summary_index("t", "D")  # D itself is not linked
    db.create_baseline_index("t", "C")
    db.create_keyword_index("t", "S")
    for i in range(4):
        db.insert("t", [f"r{i}", i])
    db.add_annotation("good fine and a longer note", table="t", oid=1)
    db.add_annotation("bad awful and a longer note", table="t", oid=2)
    return db


def ddl_state(db: Database):
    catalog = {
        name: sorted(db.catalog.table(name).secondary_indexes)
        for name in db.catalog.table_names()
    }
    links = {table: list(instances)
             for table, instances in db.manager._links.items()}
    return (catalog, sorted(db.manager._instances), links,
            sorted(db.derived), db_state(db))


def fail_second_replica_build(monkeypatch):
    real_build = NormalizedSnippetReplica.bulk_build
    calls = []

    def bulk_build(self, storage):
        calls.append(self)
        if len(calls) == 2:
            raise InjectedFaultError("replica build failed")
        return real_build(self, storage)

    monkeypatch.setattr(NormalizedSnippetReplica, "bulk_build", bulk_build)


#: one failing call per logged DDL method: (method, args, kwargs, setup).
FAILING_DDL = [
    ("create_table", ("t", [Column("x", ValueType.INT)]), {}, None),
    ("create_index", ("nope", "n"), {}, None),
    ("create_index", ("t", "n"), {}, None),
    ("create_classifier_instance", ("C", ["a", "b"]), {}, None),
    ("create_hierarchical_classifier_instance", ("S", {"a": {}}), {}, None),
    ("create_snippet_instance", ("S",), {}, None),
    ("create_cluster_instance", ("D",), {}, None),
    ("link_summary_instance", ("nope", "C"), {}, None),
    ("link_summary_instance", ("t", "nope"), {}, None),
    ("link_summary_instance", ("t", "C"), {}, None),
    ("link_summary_instance", ("t", "D"), {"indexable": True}, None),
    ("unlink_summary_instance", ("t", "D"), {}, None),
    ("unlink_summary_instance", ("nope", "C"), {}, None),
    ("create_summary_index", ("t", "C"), {}, None),
    ("create_baseline_index", ("t", "C"), {}, None),
    ("create_baseline_index", ("t", "nope"), {}, None),
    ("create_keyword_index", ("t", "S"), {}, None),
    ("create_normalized_replicas", ("t",), {}, fail_second_replica_build),
]

#: logged DDL with no failing call: dropping a missing index is a no-op.
NEVER_FAILS = {"drop_summary_index"}


def test_every_logged_ddl_method_has_a_failing_call():
    assert {case[0] for case in FAILING_DDL} | NEVER_FAILS == LOGGED_DDL


@pytest.mark.parametrize(
    "method, args, kwargs, setup", FAILING_DDL,
    ids=[f"{case[0]}{case[1]!r}" for case in FAILING_DDL],
)
def test_a_failed_ddl_changes_nothing(monkeypatch, method, args, kwargs,
                                      setup):
    db = ddl_db()
    state, log = ddl_state(db), db.wal.device.durable()
    if setup is not None:
        setup(monkeypatch)
    with pytest.raises(ReproError):
        getattr(db, method)(*args, **kwargs)
    monkeypatch.undo()
    assert db.failure is None
    assert (db.wal.device.durable(), db.wal.device.pending_len) == (log, 0)
    assert ddl_state(db) == state
    # The database is alive, and the next statement's sync leaves no
    # trace of the failed one in the log either.
    db.insert("t", ["after", 9])
    assert ddl_state(recovered(db.wal.device)) == ddl_state(db)
