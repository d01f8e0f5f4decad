"""Run-batched redo equals per-record redo.

Recovery applies each run of consecutive annotation records with one
summary-row write per touched tuple (``repro.wal.recovery.apply_records``).
The reference here applies the same committed records one at a time,
each record a run of its own.  Hypothesis generates logs mixing DDL (linking
and unlinking an instance), row DML, annotation runs that hit the same
tuples again and again, bulk loads, deletes of annotations from the run
just flushed, committed and uncommitted transaction groups, and a failing
record spliced into a run.  Both replays must reach the same logical state
and the same report counts, with integrity clean — with one or three
summary instances linked, and in deferred mode once drained.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.annotations.annotation import AnnotationTarget
from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import ReproError
from repro.storage.record import ValueType
from repro.wal.device import MemoryWALDevice
from repro.wal.record import WALRecordType, encode_record, scan_records
from repro.wal.recovery import (
    RecoveryReport,
    apply_records,
    commit_groups,
    discard_group,
    replay,
)
from tests.test_crash_matrix import db_state

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

TEXTS = (
    "apple alpha fruit",
    "bear beta animal",
    "alpha apple orchard in the valley, ripe and sweet this season",
    "beta bear seen near the cave at dusk, large and brown",
    "fruit",
)
ROWS = 6


def live_db(linked: bool) -> Database:
    """A WAL-attached database whose set-up is itself in the log."""
    db = Database(buffer_pages=32)
    db.attach_wal()
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    db.create_classifier_instance(
        "C", ["alpha", "beta"],
        [("apple alpha fruit", "alpha"), ("bear beta animal", "beta")],
    )
    db.create_classifier_instance(
        "D", ["alpha", "beta"], [("orchard", "alpha"), ("cave", "beta")],
    )
    db.link_summary_instance("t", "C", indexable=True)
    if linked:
        db.create_snippet_instance("S", min_chars=40, max_chars=30)
        db.create_cluster_instance("K")
        db.link_summary_instance("t", "S")
        db.link_summary_instance("t", "K")
    for i in range(ROWS):
        db.insert("t", [f"r{i}", i % 3])
    return db


annotate = st.tuples(st.just("annotate"), st.integers(1, ROWS),
                     st.sampled_from(TEXTS), st.booleans())
ops = st.one_of(
    annotate, annotate, annotate,
    st.tuples(st.just("bulk"), st.lists(
        st.tuples(st.integers(1, ROWS), st.sampled_from(TEXTS)),
        min_size=1, max_size=4)),
    st.tuples(st.just("del_ann")),
    st.tuples(st.just("insert"), st.integers(0, 5)),
    st.tuples(st.just("update"), st.integers(0, 5)),
    st.tuples(st.just("delete"), st.integers(1, ROWS)),
    st.tuples(st.just("toggle_link")),
    st.tuples(st.just("txn"), st.lists(
        st.tuples(st.integers(1, ROWS), st.sampled_from(TEXTS)),
        min_size=1, max_size=3)),
)


def exists(db: Database, oid: int) -> bool:
    try:
        db.catalog.table("t").disk_tuple_loc(oid)
    except ReproError:
        return False
    return True


def run_ops(db: Database, script) -> None:
    added: list[int] = []
    d_linked = False
    for op in script:
        kind = op[0]
        try:
            if kind == "annotate":
                _, oid, text, cell = op
                added.append(db.add_annotation(
                    text, table="t", oid=oid,
                    columns=("name",) if cell else ()).ann_id)
            elif kind == "bulk":
                added += [a.ann_id for a in db.add_annotations_bulk([
                    (text, [AnnotationTarget("t", oid, ())])
                    for oid, text in op[1]
                ])]
            elif kind == "del_ann" and added:
                db.delete_annotation(added.pop())
            elif kind == "insert":
                db.insert("t", [f"new{op[1]}", op[1]])
            elif kind == "update":
                db.sql(f"Update t r Set v = {op[1] + 10} "
                       f"Where r.v = {op[1]}")
            elif kind == "delete":
                db.delete_tuple("t", op[1])
            elif kind == "toggle_link":
                if d_linked:
                    db.unlink_summary_instance("t", "D")
                else:
                    db.link_summary_instance("t", "D")
                d_linked = not d_linked
            elif kind == "txn" and all(exists(db, o) for o, _ in op[1]):
                db.sql("BEGIN")
                for oid, text in op[1]:
                    db.sql(f"Annotate t {oid} '{text}'")
                db.sql("COMMIT")
        except ReproError:
            pass  # a statement on a deleted tuple: refused before it logs


def build_log(script, linked: bool, fail_at: int | None,
              crash_mid_commit: bool) -> bytes:
    """The durable log of ``script``; ``fail_at`` splices a record whose
    create raises after that many annotation records, and
    ``crash_mid_commit`` ends the log with a group missing its commit
    frame."""
    db = live_db(linked)
    run_ops(db, script)
    if crash_mid_commit:
        oid = db.insert("t", ["tail", 0])
        run_ops(db, [("txn", [(oid, TEXTS[0]), (oid, TEXTS[1])])])
    frames = [(r.type, r.stmt_id, r.payload, r.txn_id)
              for r in scan_records(db.wal.device.durable(), 0).records]
    if crash_mid_commit:
        assert frames[-1][0] == WALRecordType.TXN_COMMIT
        frames.pop()
    if fail_at is not None:
        ann = [i for i, f in enumerate(frames)
               if f[0] == WALRecordType.ANN_ADD]
        if ann:
            at = ann[fail_at % len(ann)] + 1
            frames.insert(at, (WALRecordType.ANN_ADD, 0, {
                "text": None, "targets": [AnnotationTarget("t", 1, ())],
                "ann_id": 10**6,
            }, 0))
    out = bytearray()
    for rtype, stmt_id, payload, txn_id in frames:
        out += encode_record(len(out), rtype, stmt_id, payload, txn_id)
    return bytes(out)


def batched(log: bytes, deferred: bool):
    db = Database(summary_async=deferred)
    with db._commit_mutex:
        report = replay(db, MemoryWALDevice.from_durable(log, 0))
    return db, report


def per_record(log: bytes, deferred: bool):
    """The reference: the committed records, one record at a time."""
    db = Database(summary_async=deferred)
    scan = scan_records(log, 0)
    report = RecoveryReport(checkpoint_lsn=0, start_lsn=0,
                            end_lsn=scan.end_lsn, scanned=len(scan.records),
                            torn_bytes=scan.torn_bytes)
    committed, group = commit_groups(scan.records, None, report)
    if group is not None:
        discard_group(group, report)
    db._wal_replaying = True
    with db._commit_mutex:
        for record in committed:
            try:
                apply_records(db, [record])
                report.replayed += 1
            except ReproError:
                report.failed += 1
    db._wal_replaying = False
    report.summary_rows_written = db.metrics.get("maint.on_objects_write")
    return db, report


def counts(report: RecoveryReport) -> dict:
    fields = asdict(report)
    fields.pop("summary_rows_written")
    return fields


@given(
    script=st.lists(ops, max_size=18),
    linked=st.booleans(),
    deferred=st.booleans(),
    fail_at=st.one_of(st.none(), st.integers(0, 50)),
    crash_mid_commit=st.booleans(),
)
def test_batched_replay_matches_per_record_reference(
        script, linked, deferred, fail_at, crash_mid_commit):
    log = build_log(script, linked, fail_at, crash_mid_commit)
    got, report = batched(log, deferred)
    want, reference = per_record(log, deferred)
    for db in (got, want):
        db.stop_maintenance(drain=True)
    assert counts(report) == counts(reference)
    assert db_state(got) == db_state(want)
    assert got.check_integrity().ok, got.check_integrity()
    assert want.check_integrity().ok
    if not deferred:
        # Never more summary-row writes than the reference made.
        assert report.summary_rows_written <= reference.summary_rows_written


def test_run_writes_each_touched_tuple_once():
    """Five annotations on two tuples, one of them in a committed group
    whose framing sits inside the run: two row writes, not five."""
    script = [("annotate", 1, TEXTS[0], False),
              ("annotate", 2, TEXTS[1], False),
              ("txn", [(1, TEXTS[2]), (2, TEXTS[3])]),
              ("annotate", 1, TEXTS[4], True)]
    log = build_log(script, linked=True, fail_at=None,
                    crash_mid_commit=False)
    got, report = batched(log, deferred=False)
    want, reference = per_record(log, deferred=False)
    assert report.summary_rows_written == 2
    assert reference.summary_rows_written == 5
    assert db_state(got) == db_state(want)


def test_failing_record_is_left_out_of_its_run():
    script = [("annotate", 1, TEXTS[0], False),
              ("annotate", 1, TEXTS[1], False)]
    log = build_log(script, linked=False, fail_at=0, crash_mid_commit=False)
    got, report = batched(log, deferred=False)
    want, reference = per_record(log, deferred=False)
    assert report.failed == reference.failed == 1
    assert counts(report) == counts(reference)
    assert db_state(got) == db_state(want)
    assert len(got.manager.storage_for("t").get(1)["C"]
               .all_annotation_ids()) == 2
