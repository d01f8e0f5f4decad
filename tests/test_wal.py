"""WAL unit + integration tests: framing, devices, writer, recovery.

Covers the redo-log stack bottom-up — CRC32 record framing and torn-tail
scanning, the memory/file devices' durability split, the writer's LSN
accounting, buffer-pool log-before-data ordering, the documented
``flush_page`` no-op contract — then end-to-end: statement logging,
crash + replay equivalence, idempotent re-replay, checkpoint truncation,
and v2 (pre-WAL) image compatibility.
"""

from __future__ import annotations

import errno
import os
import struct

import pytest

from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import InjectedFaultError, WALError
from repro.faults.plan import FaultPlan
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.record import ValueType
from repro.wal.device import FILE_HEADER_SIZE, FileWALDevice, MemoryWALDevice
from repro.wal.record import (
    FRAME_SIZE,
    WALRecordType,
    encode_record,
    scan_records,
)
from repro.wal.recovery import replay
from repro.wal.writer import WALWriter


pytestmark = pytest.mark.usefixtures("no_fd_growth")


def open_files_on(path) -> int:
    """How many of this process's descriptors refer to ``path``."""
    target = os.stat(path)
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            st = os.stat(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        count += (st.st_dev, st.st_ino) == (target.st_dev, target.st_ino)
    return count


def rows_of(db: Database, query: str = "Select name, n From t") -> list[str]:
    return sorted(str(t) for t in db.sql(query))


def build_db() -> Database:
    db = Database(buffer_pages=32)
    db.attach_wal()
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("n", ValueType.INT)])
    db.create_classifier_instance(
        "C", ["pos", "neg"], [("good fine", "pos"), ("bad awful", "neg")]
    )
    db.link_summary_instance("t", "C", indexable=True)
    for i in range(15):
        db.insert("t", {"name": f"row{i}", "n": i})
    for i in range(1, 9):
        db.add_annotation("good fine stuff" if i % 2 else "bad awful stuff",
                          table="t", oid=i)
    db.delete_tuple("t", 3)
    db.delete_annotation(2)
    db.sql("Update t r Set n = 99 Where r.n > 12")
    return db


class TestRecordFraming:
    def test_roundtrip(self):
        frames = b""
        payloads = [{"a": 1}, {"b": [1, 2, 3]}, {"method": "create_table"}]
        lsn = 0
        for i, payload in enumerate(payloads):
            frame = encode_record(lsn, WALRecordType.DDL, i, payload)
            lsn += len(frame)
            frames += frame
        scan = scan_records(frames, base_lsn=0)
        assert [r.payload for r in scan.records] == payloads
        assert [r.stmt_id for r in scan.records] == [0, 1, 2]
        assert scan.torn_bytes == 0
        assert scan.end_lsn == len(frames)

    def test_torn_tail_is_clean_end(self):
        a = encode_record(0, WALRecordType.INSERT, 1, {"oid": 1})
        b = encode_record(len(a), WALRecordType.INSERT, 2, {"oid": 2})
        torn = (a + b)[:-5]
        scan = scan_records(torn, base_lsn=0)
        assert len(scan.records) == 1
        assert scan.records[0].payload == {"oid": 1}
        assert scan.torn_bytes == len(b) - 5
        assert scan.end_lsn == len(a)

    def test_corrupt_crc_truncates(self):
        a = encode_record(0, WALRecordType.INSERT, 1, {"oid": 1})
        b = encode_record(len(a), WALRecordType.INSERT, 2, {"oid": 2})
        data = bytearray(a + b)
        data[len(a) + FRAME_SIZE + 1] ^= 0xFF  # flip a payload byte of b
        scan = scan_records(bytes(data), base_lsn=0)
        assert len(scan.records) == 1
        assert scan.torn_bytes == len(b)

    def test_base_lsn_offsets(self):
        a = encode_record(500, WALRecordType.DELETE, 1, {"oid": 9})
        scan = scan_records(a, base_lsn=500)
        assert scan.records[0].lsn == 500
        assert scan.end_lsn == 500 + len(a)
        # The same bytes at the wrong base fail the LSN self-check.
        assert scan_records(a, base_lsn=0).records == []


class TestMemoryDevice:
    def test_append_is_not_durable_until_sync(self):
        dev = MemoryWALDevice()
        dev.append(b"abc")
        assert dev.durable_len == 0 and dev.pending_len == 3
        dev.sync()
        assert dev.durable() == b"abc" and dev.pending_len == 0

    def test_fail_stop_append_kills_device(self):
        dev = MemoryWALDevice(plan=FaultPlan().fail_append(at=1))
        dev.append(b"a")
        with pytest.raises(InjectedFaultError):
            dev.append(b"b")
        assert dev.dead
        with pytest.raises(InjectedFaultError):
            dev.sync()

    def test_torn_sync_lands_prefix(self):
        dev = MemoryWALDevice(plan=FaultPlan().torn_sync(at=0, torn_bytes=4))
        dev.append(b"abcdefgh")
        with pytest.raises(InjectedFaultError):
            dev.sync()
        assert dev.durable() == b"abcd" and dev.dead

    def test_truncate_and_discard(self):
        dev = MemoryWALDevice()
        dev.append(b"abcdef")
        dev.sync()
        dev.discard_after(4)
        assert dev.durable() == b"abcd"
        dev.truncate(100)
        assert dev.base_lsn == 100 and dev.durable_len == 0
        with pytest.raises(WALError):
            dev.truncate(50)


class TestFileDevice:
    def test_roundtrip_and_reopen(self, tmp_path):
        """A checkpoint's truncation keeps the held append file: the next
        sync lands after the new header."""
        path = tmp_path / "x.wal"
        dev = FileWALDevice(path)
        dev.append(b"hello")
        dev.sync()
        assert dev.durable() == b"hello"
        assert path.stat().st_size == FILE_HEADER_SIZE + 5
        dev.truncate(77)
        dev.append(b"zz")
        dev.sync()
        assert (dev.base_lsn, dev.durable_len) == (77, 2)
        assert path.stat().st_size == FILE_HEADER_SIZE + 2
        again = FileWALDevice(path)
        assert again.base_lsn == 77
        assert again.durable() == b"zz"
        dev.close()

    def test_discard_after(self, tmp_path):
        path = tmp_path / "x.wal"
        dev = FileWALDevice(path)
        dev.append(b"abcdef")
        dev.sync()
        dev.discard_after(2)
        assert dev.durable() == b"ab"
        dev.append(b"xy")
        dev.sync()
        assert (dev.durable(), dev.durable_len) == (b"abxy", 4)
        assert path.stat().st_size == FILE_HEADER_SIZE + 4
        dev.close()

    def test_rejects_non_wal_file(self, tmp_path):
        path = tmp_path / "junk.wal"
        path.write_bytes(b"this is not a log at all....")
        with pytest.raises(WALError):
            FileWALDevice(path)

    def test_reopen_sees_bytes_synced_through_an_open_file(self, tmp_path):
        """The SIGKILL case: the writer never closed its file, and a fresh
        device (recovery) sees every synced byte and nothing pending."""
        path = tmp_path / "x.wal"
        dev = FileWALDevice(path)
        for chunk in (b"one", b"two", b"three"):
            dev.append(chunk)
            dev.sync()
        dev.append(b"pending")
        again = FileWALDevice(path)
        assert again.durable() == b"onetwothree"
        assert again.durable_len == dev.durable_len == 11
        assert (again.total_len, dev.total_len) == (11, 18)
        dev.close()

    def test_close_is_idempotent_and_reopens_on_sync(self, tmp_path):
        dev = FileWALDevice(tmp_path / "x.wal")
        dev.close()
        dev.append(b"a")
        dev.sync()
        dev.close()
        dev.close()
        dev.append(b"b")
        dev.sync()
        assert dev.durable() == b"ab"
        dev.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_detach_wal_closes_the_log(self, tmp_path):
        path = tmp_path / "db.wal"
        db = build_db()
        db.detach_wal()
        db.attach_wal(FileWALDevice(path))
        db.insert("t", {"name": "logged", "n": 1})
        assert open_files_on(path) == 1
        db.detach_wal()
        assert open_files_on(path) == 0

    def test_a_failed_write_fail_stops_the_device(self, tmp_path,
                                                   monkeypatch):
        """A write that lands a prefix and then raises kills the device:
        no later statement is acknowledged, nothing is appended behind the
        torn frame, and recovery gives exactly the synced prefix."""
        wal_path, image = tmp_path / "db.wal", tmp_path / "img.db"
        db = build_db()
        db.save(image)
        db.detach_wal()
        db.attach_wal(FileWALDevice(wal_path))
        db.insert("t", {"name": "acked", "n": 1})
        acked, synced = rows_of(db), wal_path.stat().st_size
        real_write = os.write

        def torn_write(fd, data):
            real_write(fd, data[:7])
            raise OSError(errno.EIO, "injected I/O error")

        monkeypatch.setattr(os, "write", torn_write)
        with pytest.raises(WALError):
            db.insert("t", {"name": "lost", "n": 2})
        monkeypatch.setattr(os, "write", real_write)
        with pytest.raises(WALError):
            db.insert("t", {"name": "never acked", "n": 3})
        with pytest.raises(WALError):
            db.wal.device.sync()
        assert wal_path.stat().st_size == synced + 7
        db.detach_wal()
        recovered, report = Database.recover(image, FileWALDevice(wal_path))
        assert report.torn_bytes == 7
        assert rows_of(recovered) == acked
        recovered.detach_wal()


class TestWriter:
    def test_lsn_accounting_and_flush(self):
        dev = MemoryWALDevice(base_lsn=1000)
        writer = WALWriter(dev)
        assert writer.next_lsn == 1000 and writer.flushed_lsn == 1000
        lsn = writer.append(WALRecordType.INSERT, {"oid": 1})
        assert lsn == 1000
        assert writer.next_lsn > 1000 and writer.flushed_lsn == 1000
        # Forces a sync: the record's bytes end beyond the flushed tail.
        writer.flush(writer.next_lsn)
        assert writer.flushed_lsn == writer.next_lsn
        before = dev.sync_ops
        writer.flush(writer.next_lsn)  # already durable: no-op
        assert dev.sync_ops == before

    def test_truncate_requires_synced_tail(self):
        writer = WALWriter(MemoryWALDevice())
        writer.append(WALRecordType.DDL, {"method": "x"})
        with pytest.raises(WALError):
            writer.truncate(0)  # not the current tail
        writer.sync()
        writer.truncate(writer.next_lsn)
        assert writer.flushed_lsn == writer.next_lsn


class TestLogBeforeData:
    def _pool(self):
        pool = BufferPool(DiskManager(), capacity=4)
        pool.wal = WALWriter(MemoryWALDevice())
        return pool

    def test_write_back_forces_log_flush(self):
        pool = self._pool()
        page_id = pool.new_page()
        pool.wal.append(WALRecordType.INSERT, {"oid": 1})
        pool.mark_dirty(page_id)  # stamps the current append position
        assert pool.page_lsn(page_id) == pool.wal.next_lsn
        assert pool.wal.flushed_lsn < pool.wal.next_lsn
        assert pool.flush_page(page_id) is True
        # The page write-back dragged the log to durability first.
        assert pool.wal.flushed_lsn == pool.wal.next_lsn
        assert pool.page_lsn(page_id) is None

    def test_eviction_honours_ordering(self):
        pool = self._pool()
        first = pool.new_page()
        pool.wal.append(WALRecordType.INSERT, {"oid": 1})
        pool.mark_dirty(first)
        for _ in range(4):  # force eviction of `first`
            pool.new_page()
        assert first not in pool._frames
        assert pool.wal.flushed_lsn == pool.wal.next_lsn

    def test_flush_all_syncs_wal_once_first(self):
        pool = self._pool()
        for _ in range(3):
            pool.new_page()
        pool.wal.append(WALRecordType.INSERT, {"oid": 1})
        syncs_before = pool.wal.device.sync_ops
        pool.flush_all()
        assert pool.wal.device.sync_ops == syncs_before + 1
        assert pool.wal.flushed_lsn == pool.wal.next_lsn


class TestFlushPageContract:
    """Satellite: flush_page is a documented typed no-op, never a raise."""

    def test_unknown_page_is_noop(self):
        pool = BufferPool(DiskManager(), capacity=4)
        assert pool.flush_page(123456) is False

    def test_clean_page_is_noop(self):
        pool = BufferPool(DiskManager(), capacity=4)
        page_id = pool.new_page()
        assert pool.flush_page(page_id) is True   # dirty from allocation
        assert pool.flush_page(page_id) is False  # now clean


class TestRecovery:
    def test_replay_reproduces_acked_state(self):
        db = build_db()
        crashed = MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
        db2, report = Database.recover(None, crashed, verify=True)
        assert report.torn_bytes == 0
        assert rows_of(db2) == rows_of(db)
        assert len(db2.manager.annotations) == len(db.manager.annotations)
        key = ("t", "C")
        assert len(db2.summary_indexes[key]) == len(db.summary_indexes[key])

    def test_replay_is_idempotent(self):
        db = build_db()
        crashed = MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
        db2, first = Database.recover(None, crashed, verify=True)
        again = replay(db2, crashed)
        assert again.replayed == 0
        assert again.skipped == first.replayed

    def test_torn_tail_truncated_never_replayed(self):
        db = build_db()
        durable = db.wal.device.durable()
        crashed = MemoryWALDevice.from_durable(durable[:-7], 0)
        db2, report = Database.recover(None, crashed, verify=True)
        assert report.torn_bytes > 0
        # The device tail was cut back to the last whole record, so new
        # appends extend a clean log …
        assert crashed.durable_len == report.end_lsn
        db2.insert("t", {"name": "after", "n": 1})
        # … and a second crash recovers the post-recovery write too.
        crashed2 = MemoryWALDevice.from_durable(crashed.durable(), 0)
        db3, _ = Database.recover(None, crashed2, verify=True)
        assert rows_of(db3) == rows_of(db2)

    def test_unsynced_failed_statement_not_acked(self, monkeypatch):
        """A delete whose apply raises is cut from the log: no byte of it
        stays, and recovery gives the acknowledged state."""
        from repro.txn import manager as manager_module

        db = build_db()
        acked, log = rows_of(db), db.wal.device.durable()

        def fail(db, records, report=None):
            raise InjectedFaultError("apply failed")

        monkeypatch.setattr(manager_module, "apply_records", fail)
        with pytest.raises(InjectedFaultError):
            db.delete_tuple("t", 1)
        device = db.wal.device
        assert (device.durable(), device.pending_len) == (log, 0)
        assert db.wal.next_lsn == len(log)
        crashed = MemoryWALDevice.from_durable(device.durable(), 0)
        db2, _report = Database.recover(None, crashed, verify=True)
        assert rows_of(db2) == acked

    def test_ddl_record_naming_an_unlogged_method_fails(self, tmp_path):
        """Redo runs only the vetted DDL methods: a record naming any other
        Database method (here ``save``) runs nothing, and recovery raises
        a WALError naming the record."""
        path = tmp_path / "written_by_redo.img"
        db = build_db()
        log = db.wal.device.durable()
        frame = encode_record(len(log), WALRecordType.DDL, 1, {
            "method": "save", "args": [str(path)], "kwargs": {},
        })
        device = MemoryWALDevice.from_durable(log + frame, 0)
        with pytest.raises(WALError, match=f"lsn={len(log)}, type=ddl"):
            Database.recover(None, device)
        assert not path.exists()

    def test_report_counts_summary_rows_written(self):
        """Autocommit annotations on one tuple are one run: recovery
        writes that tuple's summary row once, whatever the record count."""
        db = Database(buffer_pages=32)
        db.attach_wal()
        db.create_table("t", [Column("name", ValueType.TEXT),
                              Column("n", ValueType.INT)])
        db.create_classifier_instance(
            "C", ["pos", "neg"], [("good fine", "pos"), ("bad awful", "neg")]
        )
        db.link_summary_instance("t", "C", indexable=True)
        for i in range(3):
            db.insert("t", {"name": f"row{i}", "n": i})
        for text in ("good fine", "bad awful", "good", "awful"):
            db.add_annotation(text, table="t", oid=1)
        db.add_annotation("fine", table="t", oid=2)
        crashed = MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
        db2, report = Database.recover(None, crashed, verify=True)
        assert report.summary_rows_written == 2
        assert "2 summary rows written" in str(report)
        snap = db2.metrics_snapshot()
        assert snap["recovery.summary_rows_written"] == 2
        assert snap["recovery.records_replayed"] == report.replayed == 11


class TestCheckpoint:
    def test_save_truncates_and_restarts_log(self, tmp_path):
        db = build_db()
        path = tmp_path / "img.db"
        db.save(path)
        assert db.checkpoint_lsn == db.wal.next_lsn
        assert db.wal.device.durable_len == 0
        db.insert("t", {"name": "post-ckpt", "n": 500})
        crashed = MemoryWALDevice.from_durable(
            db.wal.device.durable(), db.wal.device.base_lsn
        )
        db2, report = Database.recover(path, crashed, verify=True)
        assert report.replayed == 1  # only the post-checkpoint insert
        assert rows_of(db2) == rows_of(db)

    def test_records_below_checkpoint_are_skipped(self, tmp_path):
        """Crash between rename and log truncation: replay must skip the
        pre-checkpoint records the image already contains."""
        db = build_db()
        full_log = db.wal.device.durable()
        path = tmp_path / "img.db"
        db.save(path)
        checkpoint_lsn = db.checkpoint_lsn
        # Simulate the un-truncated log surviving the crash.
        crashed = MemoryWALDevice.from_durable(full_log, 0)
        db2, report = Database.recover(path, crashed, verify=True)
        assert report.checkpoint_lsn == checkpoint_lsn
        assert report.replayed == 0 and report.skipped == report.scanned
        assert rows_of(db2) == rows_of(db)

    def test_log_below_checkpoint_is_rebased(self, tmp_path):
        """The checkpoint's truncation was lost and the log came back
        empty at base 0: an acked write must still survive the next
        recovery (it used to be framed below the checkpoint and skipped)."""
        db = build_db()
        path = tmp_path / "img.db"
        db.save(path)
        db2, _report = Database.recover(path, MemoryWALDevice(base_lsn=0))
        assert db2.wal.next_lsn == db.checkpoint_lsn
        db2.insert("t", {"name": "acked", "n": 7})
        device = db2.wal.device
        db3, report = Database.recover(
            path, MemoryWALDevice.from_durable(device.durable(),
                                               device.base_lsn))
        assert (report.replayed, report.skipped) == (1, 0)
        assert rows_of(db3) == rows_of(db2)
        assert any("acked" in row for row in rows_of(db3))

    def test_checkpoint_is_durable_before_the_log_is_truncated(
            self, tmp_path, monkeypatch):
        """save(): fsync the temp image, rename it, fsync the directory,
        and only then truncate the WAL — whose new header is fsynced."""
        import os

        wal_path = tmp_path / "db.wal"
        db = build_db()
        db.detach_wal()
        db.attach_wal(FileWALDevice(wal_path))
        db.insert("t", {"name": "logged", "n": 1})
        path = tmp_path / "img.db"
        events = []
        fsync, replace = os.fsync, os.replace

        def logged_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def logged_replace(src, dst):
            events.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(os, "replace", logged_replace)
        db.save(path)
        image, directory = path.stat().st_ino, tmp_path.stat().st_ino
        wal = wal_path.stat().st_ino
        checkpoint = [e for e in events if e[1] != wal or e[0] != "fsync"]
        assert checkpoint == [("fsync", image), ("replace", image),
                              ("fsync", directory)]
        # The WAL header's fsync comes after the directory's.
        last_dir = events.index(("fsync", directory))
        assert ("fsync", wal) in events[last_dir + 1:]
        assert FileWALDevice(wal_path).base_lsn == db.checkpoint_lsn
        db.detach_wal()

    def test_v2_image_loads_with_zero_checkpoint(self, tmp_path):
        """Pre-WAL (v2) images stay loadable; their checkpoint LSN is 0."""
        db = Database()
        db.create_table("t", [Column("n", ValueType.INT)])
        db.insert("t", {"n": 1})
        path = tmp_path / "img.db"
        db.save(path)
        data = path.read_bytes()
        magic = Database._IMAGE_MAGIC
        fields = Database._IMAGE_HEADER.unpack_from(data, len(magic))
        payload = data[len(magic) + Database._IMAGE_HEADER.size:]
        v2 = magic + Database._IMAGE_HEADER_V2.pack(2, *fields[1:3]) + payload
        path.write_bytes(v2)
        db2 = Database.load(path, verify=True)
        assert db2.checkpoint_lsn == 0
        assert db2.sql("Select count(*) c From t").scalar() == 1


class TestWALMetrics:
    def test_counters_flow(self):
        db = build_db()
        snap = db.metrics_snapshot()
        assert snap["wal.records"] > 0
        assert snap["wal.syncs"] > 0
        assert snap["wal.bytes"] == db.wal.next_lsn
