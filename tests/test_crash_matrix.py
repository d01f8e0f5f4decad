"""Crash matrices for the durability paths.

Two subsystems, one discipline — a fail-stop at *any* point must leave a
state that recovers to something the client was actually told happened:

* ``Database.save()``/``load()``: the image is written via a temporary
  file + atomic rename, so a crash at every disk-write index (and in the
  tmp-to-rename window) must leave the *old* image loadable — never a
  half-written destination, never a leaked sibling.
* the WAL DML path: every mutating statement appends + fsyncs a logical
  record before it is acknowledged. The matrix crashes the log device at
  every append index, every sync index, and with torn syncs, then
  recovers from the surviving durable bytes and checks the result against
  a dict-oracle snapshot: **exactly** the acked prefix of the workload
  (the crashing statement itself may round up to durable when the fault
  hit after its sync point — never anything beyond).
* page write-back under WAL: a crash at every disk-write index of the
  final flush must lose nothing, because log-before-data means the WAL
  already holds every acked statement.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.annotations.annotation import AnnotationTarget
from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import InjectedFaultError, ReproError
from repro.faults import FaultPlan, install_faults
from repro.storage.record import ValueType
from repro.wal.device import MemoryWALDevice

pytestmark = pytest.mark.usefixtures("no_fd_growth")


def make_db() -> Database:
    db = Database(buffer_pages=16)
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    db.create_index("t", "v")
    db.create_classifier_instance(
        "C", ["alpha", "beta"],
        [("apple alpha fruit", "alpha"), ("bear beta animal", "beta")],
    )
    db.sql("Alter Table t Add Indexable C")
    for i in range(40):
        oid = db.insert("t", [f"r{i}", i % 5])
        if i % 3 == 0:
            db.add_annotation("apple alpha fruit", table="t", oid=oid)
    return db


def clone(db: Database) -> Database:
    return pickle.loads(pickle.dumps(db))


def mutate(db: Database) -> None:
    """Dirty a spread of pages: heap, B-Trees, summary structures."""
    for i in range(20):
        oid = db.insert("t", [f"new{i}", 7])
        if i % 2 == 0:
            db.add_annotation("bear beta animal", table="t", oid=oid)
    db.delete_tuple("t", 1)


class TestCrashDuringSave:
    def test_every_write_index(self, tmp_path):
        base = make_db()
        path = tmp_path / "img.db"
        base.save(path)
        old_image = path.read_bytes()
        mutate(base)

        # Count the flush's disk writes on a throwaway clone.
        probe = clone(base)
        counter = install_faults(probe, FaultPlan())
        probe.save(tmp_path / "probe.db")
        total_writes = counter.write_ops
        assert total_writes > 0, "matrix is vacuous: no dirty pages to flush"

        for i in range(total_writes):
            path.write_bytes(old_image)
            victim = clone(base)
            install_faults(victim, FaultPlan().fail_write(at=i))
            with pytest.raises(InjectedFaultError):
                victim.save(path)
            # The old image is untouched (the file write never began) and
            # loads to a database that passes the full audit.
            restored = Database.load(path, verify=True)
            assert len(restored.catalog.table("t")) == 40

        # No fault: the save completes and the new state round-trips.
        survivor = clone(base)
        install_faults(survivor, FaultPlan())
        survivor.save(path)
        restored = Database.load(path, verify=True)
        assert len(restored.catalog.table("t")) == len(base.catalog.table("t"))

    def test_crash_between_tmp_write_and_rename(self, tmp_path):
        db = make_db()
        path = tmp_path / "img.db"
        db.save(path)
        old_image = path.read_bytes()
        mutate(db)
        # Simulate a crash after the tmp file was (partially) written but
        # before the atomic rename: the destination still holds the old
        # image and must load cleanly; the orphan tmp is just ignored.
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(b"partial garbage that never got renamed")
        restored = Database.load(path, verify=True)
        assert path.read_bytes() == old_image
        assert len(restored.catalog.table("t")) == 40

    def test_saved_image_same_after_failed_save(self, tmp_path):
        """A failed save must not leave a half-written destination."""
        db = make_db()
        path = tmp_path / "img.db"
        db.save(path)
        old_image = path.read_bytes()
        mutate(db)
        victim = clone(db)
        install_faults(victim, FaultPlan().fail_write(at=0))
        with pytest.raises(InjectedFaultError):
            victim.save(path)
        assert path.read_bytes() == old_image

    def test_failed_rename_leaves_no_tmp(self, tmp_path, monkeypatch):
        """Regression: a save that dies at the rename (or anywhere after
        the tmp file exists) must unlink its temporary — repeated failed
        saves used to leak one ``.tmp`` sibling per attempt."""
        import repro.core.database as database_mod

        db = make_db()
        path = tmp_path / "img.db"

        def explode(src, dst):
            raise OSError("injected: rename failed")

        monkeypatch.setattr(database_mod.os, "replace", explode)
        with pytest.raises(OSError):
            db.save(path)
        monkeypatch.undo()
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == [], f"save leaked files: {leftovers}"
        # And the path is still usable once the disk behaves again.
        db.save(path)
        Database.load(path, verify=True)


# ---------------------------------------------------------------------------
# The WAL DML crash matrix: fail-stop the log device at every append and
# fsync index of a mixed workload, recover, compare to the dict oracle.
# ---------------------------------------------------------------------------

def wal_script():
    """The workload as one deterministic statement list (DDL + DML), so
    the same script drives both the oracle run and every crash run."""
    script = [
        lambda db: db.create_table(
            "t", [Column("name", ValueType.TEXT), Column("v", ValueType.INT)]
        ),
        lambda db: db.create_index("t", "v"),
        lambda db: db.create_classifier_instance(
            "C", ["alpha", "beta"],
            [("apple alpha fruit", "alpha"), ("bear beta animal", "beta")],
        ),
        lambda db: db.sql("ALTER TABLE t ADD INDEXABLE C"),
    ]
    for i in range(8):
        script.append(
            lambda db, i=i: db.insert("t", [f"r{i}", i % 3])
        )
    for oid, text in [(1, "apple alpha fruit"), (2, "bear beta animal"),
                      (4, "alpha apple again"), (6, "beta bear again")]:
        script.append(
            lambda db, oid=oid, text=text: db.add_annotation(
                text, table="t", oid=oid
            )
        )
    script += [
        # Bulk load: one framed ANN_BULK record — a crash right after the
        # ack must replay the whole batch with identical annotation ids.
        lambda db: db.add_annotations_bulk([
            ("alpha apple bulk one", [AnnotationTarget("t", 5)]),
            ("beta bear bulk two", [AnnotationTarget("t", 5)]),
            ("alpha fruit bulk three", [AnnotationTarget("t", 7)]),
        ]),
        lambda db: db.sql("UPDATE t SET v = 9 WHERE name = 'r5'"),
        lambda db: db.delete_tuple("t", 3),
        lambda db: db.delete_annotation(2),
    ]
    return script


def summary_state(db):
    """Summary sets as seen through the live read path — when the summary
    cache is enabled this reads *through the cache*, so comparing it to an
    oracle computed without one catches any stale entry surviving a
    crash/recover cycle."""
    if not db.catalog.has_table("t"):
        return ()
    storage = db.manager.storage_for("t")
    entries = []
    for oid, _values in db.catalog.table("t").scan():
        objects = storage.get(oid)
        if not objects:
            continue
        canon = []
        for name, obj in sorted(objects.items()):
            d = obj.to_dict()
            d.pop("obj_id", None)  # in-memory identity, not value
            canon.append((name, json.dumps(d, sort_keys=True)))
        entries.append((oid, tuple(canon)))
    return tuple(sorted(entries))


def db_state(db):
    """Canonical logical state: user rows + raw annotations + summaries."""
    rows = ()
    if db.catalog.has_table("t"):
        rows = tuple(sorted(
            (oid, tuple(values))
            for oid, values in db.catalog.table("t").scan()
        ))
    anns = tuple(sorted(
        (ann.ann_id, ann.text) for ann in db.manager.annotations.scan()
    ))
    return rows, anns, summary_state(db)


def oracle_states():
    """State snapshots: oracle[k] = the state after k acked statements."""
    db = Database(buffer_pages=32)
    states = [db_state(db)]
    for statement in wal_script():
        statement(db)
        states.append(db_state(db))
    return states


def crash_run(plan):
    """Run the script against a faulted WAL device until the injected
    crash; returns (device, acked-statement-count).  The crashing run
    keeps a summary cache enabled so observer-driven invalidation is
    exercised under every fault schedule too."""
    db = Database(buffer_pages=32, cache_bytes=1 << 20)
    device = MemoryWALDevice(plan=plan)
    db.attach_wal(device)
    acked = 0
    try:
        for statement in wal_script():
            statement(db)
            acked += 1
    except InjectedFaultError:
        pass
    return device, acked


def recover_state(device):
    """Fresh process over the crashed device's durable bytes.

    The recovered database reads its state twice through an enabled
    summary cache: the cold pass populates it, the warm pass must agree
    (the recovered database starts cold and replay writes rows through
    the cache's invalidation, so a stale entry surviving into either
    pass would diverge from the oracle comparison)."""
    survivor = MemoryWALDevice.from_durable(
        device.durable(), base_lsn=device.base_lsn
    )
    db, report = Database.recover(None, survivor, verify=True)
    db.manager.cache.resize(1 << 20)
    cold = db_state(db)
    warm = db_state(db)
    assert cold == warm, "cache-warm read diverges from cold read"
    return warm, report


class TestCrashDuringDML:
    @classmethod
    def setup_class(cls):
        cls.oracle = oracle_states()
        probe = MemoryWALDevice()
        db = Database(buffer_pages=32)
        db.attach_wal(probe)
        for statement in wal_script():
            statement(db)
        cls.total_appends = probe.append_ops
        cls.total_syncs = probe.sync_ops
        assert cls.total_appends >= len(wal_script())
        assert cls.total_syncs >= len(wal_script())

    def check(self, device, acked):
        state, report = recover_state(device)
        # Every acked statement survives; the crashing one may round up
        # to durable (fault after its sync), never anything beyond it.
        allowed = self.oracle[acked:min(acked + 2, len(self.oracle))]
        assert state in allowed, (
            f"recovered state diverges from oracle after {acked} acked "
            f"statements ({report.replayed} replayed, "
            f"{report.torn_bytes} torn bytes)"
        )

    def test_crash_at_every_append(self):
        for at in range(self.total_appends):
            device, acked = crash_run(FaultPlan().fail_append(at=at))
            assert device.dead, f"append fault #{at} never fired"
            assert acked < len(wal_script())
            self.check(device, acked)

    def test_crash_at_every_sync(self):
        for at in range(self.total_syncs):
            device, acked = crash_run(FaultPlan().fail_sync(at=at))
            assert device.dead, f"sync fault #{at} never fired"
            self.check(device, acked)

    def test_torn_sync_tail_never_replayed(self):
        """A sync that tears mid-record leaves a torn tail: recovery must
        truncate it, landing exactly on the acked prefix."""
        for at in range(0, self.total_syncs, 3):
            device, acked = crash_run(FaultPlan().torn_sync(at=at))
            assert device.dead
            self.check(device, acked)

    def test_no_fault_full_replay(self):
        device, acked = crash_run(FaultPlan())
        assert acked == len(wal_script())
        state, report = recover_state(device)
        assert state == self.oracle[-1]
        assert report.torn_bytes == 0

    def test_crash_at_every_page_writeback(self):
        """Log-before-data: killing the final flush at any page-write
        index loses nothing — the WAL already holds every acked
        statement, so recovery lands on the full oracle state."""
        probe_db = Database(buffer_pages=32)
        probe_db.attach_wal(MemoryWALDevice())
        for statement in wal_script():
            statement(probe_db)
        counter = install_faults(probe_db, FaultPlan())
        probe_db.pool.flush_all()
        total_writes = counter.write_ops
        assert total_writes > 0, "matrix is vacuous: nothing to flush"

        for at in range(total_writes):
            db = Database(buffer_pages=32)
            device = MemoryWALDevice()
            db.attach_wal(device)
            for statement in wal_script():
                statement(db)
            install_faults(db, FaultPlan().fail_write(at=at))
            with pytest.raises((InjectedFaultError, ReproError)):
                db.pool.flush_all()
            state, _report = recover_state(device)
            assert state == self.oracle[-1], (
                f"page write-back crash #{at} lost acked statements"
            )
