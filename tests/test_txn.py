"""Transaction + lock-manager unit tests (DESIGN.md §5g).

Covers the single-threaded contract of the concurrency layer:

* BEGIN/COMMIT/ABORT semantics over sessions — buffered redo, no
  read-your-writes, abort discards, commit applies atomically;
* WAL framing of commit groups and committed-only recovery (an
  uncommitted transaction contributes *nothing* to the durable log);
* the striped lock manager — shared concurrency, exclusive mutual
  exclusion, S→X upgrade, timeout-as-deadlock-victim, release_all;
* session victim semantics: a lock timeout auto-aborts the open
  transaction and frees its locks.

The multi-threaded battery lives in ``test_concurrency_battery.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.annotations.annotation import AnnotationTarget
from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import (
    LockTimeoutError,
    RecordNotFoundError,
    TransactionError,
)
from repro.storage.record import ValueType
from repro.txn.locks import ANNOTATION_RESOURCE, StripedLockManager
from repro.wal.device import MemoryWALDevice
from repro.wal.record import WALRecordType, scan_records


def make_db(wal: bool = False) -> Database:
    db = Database(buffer_pages=32)
    if wal:
        db.attach_wal()
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    for i in range(5):
        db.insert("t", [f"r{i}", i])
    return db


def names(db: Database) -> list[str]:
    """Committed state, read off the catalog: ``db.sql`` is a locking
    session and would contend with the session under test."""
    return sorted(values[0] for _, values in db.catalog.table("t").scan())


class TestTransactionSemantics:
    def test_commit_applies_buffered_dml(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('tx1', 100)")
        s.execute("Update t r Set v = 7 Where r.name = 'r0'")
        s.execute("Delete From t r Where r.name = 'r1'")
        # Nothing visible yet — not to this session, not to others.
        assert "tx1" not in names(db)
        assert "r1" in names(db)
        s.execute("COMMIT")
        assert "tx1" in names(db)
        assert "r1" not in names(db)
        row = db.sql("Select v From t r Where r.name = 'r0'")
        assert row.tuples[0].values[0] == 7
        s.close()

    def test_abort_discards_everything(self):
        db = make_db()
        s = db.session()
        before = names(db)
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('ghost', 1)")
        s.execute("Delete From t r Where r.v < 3")
        s.execute("ABORT")
        assert names(db) == before
        s.close()

    def test_rollback_is_abort(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('ghost', 1)")
        s.execute("ROLLBACK")
        assert "ghost" not in names(db)
        s.close()

    def test_no_read_your_writes(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('pending', 9)")
        result = s.execute("Select name From t")
        assert "pending" not in {t.values[0] for t in result.tuples}
        s.execute("COMMIT")
        s.close()

    def test_update_after_buffered_delete_skips_the_row(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        assert s.execute("Delete From t r Where r.name = 'r2'") == 1
        # The buffered delete hides r2 from later statements in the txn.
        assert s.execute("Update t r Set v = 50 Where r.name = 'r2'") == 0
        assert s.execute("Delete From t r Where r.name = 'r2'") == 0
        s.execute("COMMIT")
        assert "r2" not in names(db)
        s.close()

    def test_txn_annotate_is_buffered(self):
        db = make_db()
        db.create_classifier_instance(
            "C", ["pos", "neg"], [("good fine", "pos"), ("bad awful", "neg")]
        )
        db.link_summary_instance("t", "C", indexable=True)
        s = db.session()
        s.execute("BEGIN")
        ann_id = s.execute("Annotate t 1 'good fine stuff'")
        assert isinstance(ann_id, int)
        with pytest.raises(RecordNotFoundError):
            db.manager.annotations.get(ann_id)
        s.execute("COMMIT")
        assert db.manager.annotations.get(ann_id).text == "good fine stuff"
        s.close()

    def test_autocommit_annotate_statement(self):
        db = make_db()
        ann_id = db.sql("Annotate t 2 'plain note'")
        ann = db.manager.annotations.get(ann_id)
        assert ann is not None and ann.text == "plain note"

    def test_oid_preassignment_matches_commit(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('a', 1)")
        s.execute("Insert Into t Values ('b', 2)")
        s.execute("COMMIT")
        rows = db.sql("Select name, oid From t")
        by_name = {t.values[0]: t.values[1] for t in rows.tuples
                   if t.values[0] in ("a", "b")}
        assert by_name["b"] == by_name["a"] + 1
        s.close()

    def test_errors_outside_transaction(self):
        db = make_db()
        s = db.session()
        with pytest.raises(TransactionError):
            s.execute("COMMIT")
        with pytest.raises(TransactionError):
            s.execute("ABORT")
        s.execute("BEGIN")
        with pytest.raises(TransactionError):
            s.execute("BEGIN")
        s.execute("ABORT")
        s.close()

    def test_ddl_rejected_inside_transaction(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        with pytest.raises(TransactionError):
            s.execute("Create Table u (x INT)")
        s.execute("ABORT")
        s.close()

    def test_empty_commit_is_a_noop(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("COMMIT")
        assert db.metrics.get("txn.empty_commits") == 1
        s.close()

    def test_failed_statement_keeps_transaction_open(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('keep', 1)")
        with pytest.raises(Exception):
            s.execute("Select * From nonexistent")
        s.execute("COMMIT")  # the buffered insert survives the bad SELECT
        assert "keep" in names(db)
        s.close()

    def test_close_aborts_open_transaction(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('ghost', 1)")
        s.close()
        assert "ghost" not in names(db)
        assert len(db.txn_manager.active) == 0
        with pytest.raises(TransactionError):
            s.execute("Select * From t")

    def test_txn_metrics(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('a', 1)")
        s.execute("COMMIT")
        s.execute("BEGIN")
        s.execute("ABORT")
        snap = db.metrics_snapshot()
        assert snap["txn.begins"] == 2
        assert snap["txn.commits"] == 1
        assert snap["txn.aborts"] == 1
        assert snap["txn.ops_committed"] == 1
        assert snap["txn.open"] == 0
        s.close()


class TestAnnotateMissingTuple:
    """``Annotate`` on a tuple that is not there is a typed error at
    statement time, with nothing logged, stored or counted."""

    @staticmethod
    def indexed_db() -> Database:
        db = make_db(wal=True)
        db.create_classifier_instance(
            "C", ["alpha", "beta"],
            [("apple alpha", "alpha"), ("bear beta", "beta")],
        )
        db.sql("Alter Table t Add Indexable C")
        db.sql("Annotate t 2 'apple alpha'")
        return db

    @staticmethod
    def footprint(db: Database) -> tuple:
        return db.manager.annotations.next_id, db.wal.next_lsn

    @pytest.mark.parametrize("oid, deleted_first", [
        (99, False),  # never assigned
        (4, True),    # deleted, never annotated
        (2, True),    # deleted, was annotated
    ])
    def test_autocommit_rejects_and_leaves_no_trace(self, oid, deleted_first):
        db = self.indexed_db()
        if deleted_first:
            db.sql(f"Delete From t r Where r.oid = {oid}")
        before = self.footprint(db)
        with pytest.raises(RecordNotFoundError):
            db.sql(f"Annotate t {oid} 'apple alpha'")
        assert self.footprint(db) == before
        assert db.check_integrity().ok

    def test_in_transaction_rejects_at_statement_time(self):
        db = self.indexed_db()
        before = self.footprint(db)
        db.sql("BEGIN")
        with pytest.raises(RecordNotFoundError):
            db.sql("Annotate t 99 'apple alpha'")
        db.sql("COMMIT")  # the transaction survives, and is empty
        assert self.footprint(db) == before
        assert db.check_integrity().ok

    def test_deleted_in_this_transaction_rejects(self):
        db = self.indexed_db()
        db.sql("BEGIN")
        db.sql("Delete From t r Where r.oid = 2")
        with pytest.raises(RecordNotFoundError):
            db.sql("Annotate t 2 'apple alpha'")
        db.sql("COMMIT")
        assert db.manager.annotations.next_id == 2
        assert db.check_integrity().ok

    def test_inserted_in_this_transaction_still_works(self):
        db = self.indexed_db()
        oid = db.catalog.table("t").next_oid
        db.sql("BEGIN")
        db.sql("Insert Into t Values ('new', 7)")
        ann_id = db.sql(f"Annotate t {oid} 'bear beta'")
        with pytest.raises(RecordNotFoundError):
            db.sql(f"Annotate t {oid + 1} 'bear beta'")  # not reserved
        db.sql("COMMIT")
        assert db.zoom_in("t", oid, "C") == ["bear beta"]
        assert db.manager.annotations.next_id == ann_id + 1
        assert db.check_integrity().ok

    def test_annotated_tuple_costs_no_extra_page_request(self):
        """The existence check answers from the attachment map when the
        tuple already has a summary row: same pool requests as the
        manager's own write path."""
        db = self.indexed_db()
        db.detach_wal()
        pool = db.pool
        before = pool.hits + pool.misses
        db.manager.add_annotation(
            "apple alpha", [AnnotationTarget("t", 2)]
        )
        unchecked = pool.hits + pool.misses - before
        before = pool.hits + pool.misses
        db.add_annotation("apple alpha", table="t", oid=2)
        assert pool.hits + pool.misses - before == unchecked


class TestTransactionDurability:
    def test_commit_group_framing(self):
        db = make_db(wal=True)
        db.wal.flush()
        start = db.wal.flushed_lsn
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('tx', 9)")
        s.execute("Delete From t r Where r.name = 'r0'")
        s.execute("COMMIT")
        s.close()
        tail = db.wal.device.durable()[start - db.wal.device.base_lsn:]
        records = scan_records(tail, base_lsn=start).records
        types = [r.type for r in records]
        assert types == [
            WALRecordType.TXN_BEGIN,
            WALRecordType.INSERT,
            WALRecordType.DELETE,
            WALRecordType.TXN_COMMIT,
        ]
        assert len({r.txn_id for r in records}) == 1
        assert records[0].txn_id > 0

    def test_recovery_replays_committed_transaction(self):
        db = make_db(wal=True)
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('durable', 42)")
        s.execute("COMMIT")
        s.close()
        dev = MemoryWALDevice.from_durable(
            db.wal.device.durable(), db.wal.device.base_lsn
        )
        recovered, report = Database.recover(None, dev)
        assert "durable" in names(recovered)
        assert report.committed_txns == 1
        assert report.uncommitted_txns == []

    def test_uncommitted_transaction_never_reaches_the_log(self):
        db = make_db(wal=True)
        db.wal.flush()
        baseline = db.wal.device.durable_len
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('ghost', 1)")
        s.execute("Insert Into t Values ('ghost2', 2)")
        # Buffered redo: the open transaction has appended nothing.
        db.wal.flush()
        assert db.wal.device.durable_len == baseline
        s.execute("ABORT")
        db.wal.flush()
        assert db.wal.device.durable_len == baseline
        s.close()

    def test_recovery_interleaves_autocommit_and_txn_writes(self):
        db = make_db(wal=True)
        s = db.session()
        db.sql("Insert Into t Values ('auto1', 1)")
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('tx1', 2)")
        s.execute("COMMIT")
        db.sql("Insert Into t Values ('auto2', 3)")
        s.close()
        dev = MemoryWALDevice.from_durable(
            db.wal.device.durable(), db.wal.device.base_lsn
        )
        recovered, _ = Database.recover(None, dev)
        assert names(recovered) == names(db)


class TestLockManager:
    def test_concurrent_readers(self):
        lm = StripedLockManager()
        lm.acquire_shared("a", "t")
        lm.acquire_shared("b", "t")  # no wait
        assert lm.held_by("a") == {"t"}
        lm.release_all("a")
        lm.release_all("b")

    def test_writer_excludes_reader(self):
        lm = StripedLockManager()
        lm.acquire_exclusive("w", "t")
        with pytest.raises(LockTimeoutError):
            lm.acquire_shared("r", "t", timeout=0.1)
        lm.release_all("w")
        lm.acquire_shared("r", "t", timeout=0.1)
        lm.release_all("r")

    def test_reader_excludes_writer(self):
        lm = StripedLockManager()
        lm.acquire_shared("r", "t")
        with pytest.raises(LockTimeoutError):
            lm.acquire_exclusive("w", "t", timeout=0.1)
        lm.release_all("r")

    def test_reentrant_and_upgrade(self):
        lm = StripedLockManager()
        lm.acquire_shared("a", "t")
        lm.acquire_shared("a", "t")      # reentrant share
        lm.acquire_exclusive("a", "t")   # sole reader upgrades
        lm.acquire_exclusive("a", "t")   # reentrant exclusive
        assert lm.held_by("a") == {"t"}
        lm.release_all("a")
        # Fully released: another owner can take it exclusively.
        lm.acquire_exclusive("b", "t", timeout=0.1)
        lm.release_all("b")

    def test_upgrade_blocked_by_second_reader(self):
        lm = StripedLockManager()
        lm.acquire_shared("a", "t")
        lm.acquire_shared("b", "t")
        with pytest.raises(LockTimeoutError):
            lm.acquire_exclusive("a", "t", timeout=0.1)
        lm.release_all("a")
        lm.release_all("b")

    def test_blocked_writer_proceeds_after_release(self):
        lm = StripedLockManager()
        lm.acquire_exclusive("a", "t")
        acquired = threading.Event()

        def waiter():
            lm.acquire_exclusive("b", "t", timeout=5.0)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        assert not acquired.wait(0.15)
        lm.release_all("a")
        assert acquired.wait(5.0)
        thread.join()
        lm.release_all("b")

    def test_metrics(self):
        db = Database()
        lm = StripedLockManager(metrics=db.metrics)
        lm.acquire_shared("a", "t")
        lm.acquire_exclusive("a", "t")
        lm.release_all("a")
        lm.acquire_shared("b", "u")
        with pytest.raises(LockTimeoutError):
            lm.acquire_exclusive("c", "u", timeout=0.1)
        snap = db.metrics.snapshot()
        assert snap["lock.acquisitions.shared"] == 2
        assert snap["lock.acquisitions.exclusive"] == 1
        assert snap["lock.upgrades"] == 1
        assert snap["lock.timeouts"] == 1
        assert snap["lock.releases"] == 1


class TestSessionLocking:
    def test_autocommit_releases_at_statement_end(self):
        db = make_db()
        s = db.session()
        s.execute("Select * From t")
        assert db.lock_manager.held_by(s) == set()
        s.execute("Insert Into t Values ('x', 1)")
        assert db.lock_manager.held_by(s) == set()
        s.close()

    def test_transaction_holds_locks_to_boundary(self):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('x', 1)")
        assert db.lock_manager.held_by(s) == {"t"}
        s.execute("Delete From t r Where r.name = 'x'")
        assert db.lock_manager.held_by(s) == {"t", ANNOTATION_RESOURCE}
        s.execute("COMMIT")
        assert db.lock_manager.held_by(s) == set()
        s.close()

    def test_lock_timeout_aborts_victim_transaction(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT", "0.1")
        db = make_db()
        a, b = db.session(), db.session()
        a.execute("BEGIN")
        a.execute("Insert Into t Values ('held', 1)")
        b.execute("BEGIN")
        with pytest.raises(LockTimeoutError):
            b.execute("Insert Into t Values ('blocked', 2)")
        # b is the victim: its transaction is gone, its locks released.
        assert not b.in_txn
        assert db.lock_manager.held_by(b) == set()
        # a is untouched and can still commit.
        a.execute("COMMIT")
        assert "held" in names(db)
        assert "blocked" not in names(db)
        a.close()
        b.close()

    def test_default_session_locks(self, monkeypatch):
        """``db.sql`` from another thread waits on a table an explicit
        session's open transaction holds, like any other session."""
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT", "0.1")
        db = make_db()
        a = db.session()
        a.execute("BEGIN")
        a.execute("Insert Into t Values ('held', 1)")
        outcomes = []

        def plain_insert():
            try:
                db.sql("Insert Into t Values ('plain', 2)")
                outcomes.append("ok")
            except LockTimeoutError:
                outcomes.append("timeout")

        def on_thread_b():
            b = threading.Thread(target=plain_insert)
            b.start()
            b.join()

        on_thread_b()
        assert outcomes == ["timeout"] and "plain" not in names(db)
        a.execute("COMMIT")
        on_thread_b()
        assert outcomes == ["timeout", "ok"]
        assert names(db).count("plain") == 1 and "held" in names(db)
        a.close()

    def test_explicit_txn_via_db_sql(self):
        db = make_db()
        db.sql("BEGIN")
        db.sql("Insert Into t Values ('via-sql', 1)")
        assert "via-sql" not in names(db)  # same thread, same session
        db.sql("COMMIT")
        assert "via-sql" in names(db)


class TestPersistenceInterop:
    def test_save_load_roundtrip_keeps_concurrency_state_fresh(self, tmp_path):
        db = make_db()
        s = db.session()
        s.execute("BEGIN")
        s.execute("Insert Into t Values ('open', 1)")
        path = str(tmp_path / "img.bin")
        db.save(path)  # open (unapplied) txn state is process state
        loaded = Database.load(path)
        assert "open" not in names(loaded)
        assert len(loaded.txn_manager.active) == 0
        assert len(loaded.lock_manager) == 0
        loaded.sql("BEGIN")
        loaded.sql("Insert Into t Values ('fresh', 2)")
        loaded.sql("COMMIT")
        assert "fresh" in names(loaded)
        s.execute("ABORT")
        s.close()
