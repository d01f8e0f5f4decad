"""One write path: every mutating statement is planned into redo ops and
applied by the commit loop (``TransactionManager.run_group``).

* **Statement atomicity.** A statement is planned whole before any op is
  applied or buffered, so a multi-row INSERT with one malformed row
  leaves nothing — in autocommit and inside ``BEGIN … COMMIT``.
* **Autocommit ≡ one-statement transaction.** Hypothesis scripts of DML
  and ANNOTATE statements run bare and each wrapped in ``BEGIN …
  COMMIT`` reach the same rows, raw annotations and summary sets, and log
  the same ``(type, payload)`` sequence once transaction ids and the
  ``TXN_BEGIN``/``TXN_COMMIT`` framing are removed.
* **One sync per statement** (counted): an autocommit N-row INSERT,
  UPDATE or DELETE appends N records and syncs exactly once.
* **The Python API is planned there too.** ``db.insert``,
  ``delete_tuple``, ``add_annotation``, ``add_annotations_bulk`` and
  ``delete_annotation`` are statements of the calling thread's default
  session: each logs the records it always has, threads calling them
  take the same table locks as SQL DML, which keep their OIDs and
  annotation ids distinct, and recovery over the log reproduces the
  live state.
* **Stores refuse reused ids.** A forced OID already in the OID index
  leaves no heap record behind, and a forced annotation id below the
  store's counter is refused (replay counts such a record as failed).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.annotations.annotation import AnnotationTarget
from repro.catalog.schema import Column
from repro.core.database import Database
from repro.errors import (
    DuplicateKeyError,
    RecordNotFoundError,
    ReproError,
    SchemaError,
    WALError,
)
from repro.storage.record import ValueType
from repro.wal.device import MemoryWALDevice
from repro.wal.record import WALRecordType, scan_records
from tests.test_crash_matrix import db_state

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

TEXTS = (
    "apple alpha fruit",
    "bear beta animal",
    "alpha apple orchard in the valley, ripe and sweet this season",
    "beta bear seen near the cave at dusk",
)
FRAMING = (WALRecordType.TXN_BEGIN, WALRecordType.TXN_COMMIT)


def make_db(rows: int = 4) -> Database:
    """A WAL-attached database whose set-up is itself in the log."""
    db = Database(buffer_pages=32)
    db.attach_wal()
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    db.create_classifier_instance(
        "C", ["alpha", "beta"],
        [("apple alpha fruit", "alpha"), ("bear beta animal", "beta")],
    )
    db.create_snippet_instance("S", min_chars=40, max_chars=30)
    db.link_summary_instance("t", "C", indexable=True)
    db.link_summary_instance("t", "S")
    for i in range(rows):
        db.insert("t", [f"r{i}", i % 3])
    return db


def logged(db: Database, start: int = 0) -> list[tuple[int, dict]]:
    """``(type, payload)`` of every record from LSN ``start`` on, framing
    left out."""
    scan = scan_records(db.wal.device.durable(), db.wal.device.base_lsn)
    return [(r.type, r.payload) for r in scan.records
            if r.lsn >= start and r.type not in FRAMING]


class TestStatementAtomicity:
    @pytest.mark.parametrize("wrapped", [False, True],
                             ids=["autocommit", "transaction"])
    def test_malformed_row_leaves_nothing(self, wrapped):
        db = make_db()
        session = db.session()
        before = db_state(db)
        log_len = len(db.wal.device.durable())
        next_oid = db.catalog.table("t").next_oid
        if wrapped:
            session.execute("BEGIN")
        with pytest.raises(SchemaError):
            session.execute(
                "INSERT INTO t VALUES ('e', 5), ('f', 6), ('g', 'oops')"
            )
        if wrapped:
            session.execute("COMMIT")
        assert db_state(db) == before
        assert len(db.wal.device.durable()) == log_len
        # The failed plan reserved nothing: the next insert takes the
        # next OID, in either mode.
        if wrapped:
            session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES ('h', 7)")
        if wrapped:
            session.execute("COMMIT")
        rows = dict(db.catalog.table("t").scan())
        assert rows[next_oid] == ["h", 7]
        assert set(rows) == set(dict(before[0])) | {next_oid}


    def test_bad_update_value_fails_the_plan(self):
        """An UPDATE value the column cannot take is refused when the
        statement is planned, so the commit that follows applies only what
        the log's commit group holds: live ≡ recovered."""
        db = make_db()
        session = db.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES ('b', 2)")
        with pytest.raises(SchemaError):
            session.execute("UPDATE t SET v = 'oops' WHERE v = 1")
        session.execute("COMMIT")
        recovered, report = Database.recover(
            None, MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
        )
        assert report.discarded_txn_records == 0
        assert db_state(recovered) == db_state(db)
        assert ["b", 2] in dict(db.catalog.table("t").scan()).values()


class TestOneSyncPerStatement:
    """Counted guard: N row ops are N records and one fsync."""

    STATEMENTS = [
        ("INSERT INTO t VALUES ('a', 1), ('b', 2), ('c', 2), ('d', 1)",
         WALRecordType.INSERT, 4),
        ("UPDATE t SET v = 9 WHERE v = 1", WALRecordType.UPDATE, 3),
        ("DELETE FROM t WHERE v = 2", WALRecordType.DELETE, 2),
    ]

    def test_n_row_statements(self):
        db = make_db(rows=2)  # v = 0, 1
        device = db.wal.device
        for sql, rtype, n in self.STATEMENTS:
            start, syncs = db.wal.next_lsn, device.sync_ops
            assert db.sql(sql) in (None, n)
            assert [t for t, _ in logged(db, start)] == [rtype] * n, sql
            assert device.sync_ops - syncs == 1, sql

    def test_no_match_touches_no_log(self):
        db = make_db(rows=2)
        start, syncs = db.wal.next_lsn, db.wal.device.sync_ops
        assert db.sql("DELETE FROM t WHERE v = 99") == 0
        assert db.sql("UPDATE t SET v = 1 WHERE v = 99") == 0
        assert (db.wal.next_lsn, db.wal.device.sync_ops) == (start, syncs)


# -- autocommit ≡ one-statement transaction ---------------------------------

ROWS = 4
value = st.integers(0, 3)
statement = st.one_of(
    st.lists(st.tuples(st.sampled_from("abcde"), value),
             min_size=1, max_size=3).map(lambda rows: "INSERT INTO t VALUES "
             + ", ".join(f"('{n}', {v})" for n, v in rows)),
    st.just("INSERT INTO t VALUES ('x', 1), ('y', 'oops')"),
    st.tuples(value, value).map(
        lambda p: f"UPDATE t SET v = {p[1]} WHERE v = {p[0]}"),
    value.map(lambda v: f"UPDATE t SET v = 'oops' WHERE v = {v}"),
    st.integers(0, 3).map(
        lambda n: f"UPDATE t r SET name = 'hot' "
                  f"WHERE r.$.getSummaryObject('C').getLabelValue('alpha') > {n}"),
    value.map(lambda v: f"DELETE FROM t WHERE v = {v}"),
    st.tuples(st.integers(1, ROWS + 4), st.sampled_from(TEXTS),
              st.booleans()).map(
        lambda p: f"ANNOTATE t {p[0]} {'(name) ' if p[2] else ''}'{p[1]}'"),
)


def run_script(script, wrapped: bool):
    db = make_db(ROWS)
    start = db.wal.next_lsn
    session = db.session()
    outcomes = []
    for sql in script:
        if wrapped:
            session.execute("BEGIN")
        try:
            outcomes.append(session.execute(sql))
        except ReproError as exc:
            outcomes.append(type(exc).__name__)
        if wrapped:
            session.execute("COMMIT")
    db.check_integrity(raise_on_error=True)
    return outcomes, db_state(db), logged(db, start)


@given(st.lists(statement, min_size=1, max_size=8))
def test_autocommit_equals_one_statement_transaction(script):
    bare = run_script(script, wrapped=False)
    wrapped = run_script(script, wrapped=True)
    assert bare[0] == wrapped[0]  # results and error types
    assert bare[1] == wrapped[1]  # rows, raw annotations, summary sets
    assert bare[2] == wrapped[2]  # the logged ops


# -- concurrent Python-API writers -----------------------------------------

def test_concurrent_python_api_writers():
    db = make_db(rows=0)
    threads, per_thread = 4, 25
    barrier = threading.Barrier(threads)
    oids: list[int] = []
    ann_ids: list[int] = []
    errors: list[BaseException] = []

    def writer(k: int) -> None:
        try:
            barrier.wait()
            for i in range(per_thread):
                oid = db.insert("t", [f"w{k}-{i}", i % 3])
                ann = db.add_annotation(TEXTS[(k + i) % len(TEXTS)],
                                        table="t", oid=oid)
                oids.append(oid)
                ann_ids.append(ann.ann_id)
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    workers = [threading.Thread(target=writer, args=(k,), daemon=True)
               for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the counter peeks densely
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not errors
    total = threads * per_thread
    assert len(set(oids)) == total
    assert len(set(ann_ids)) == total
    db.check_integrity(raise_on_error=True)
    recovered, _report = Database.recover(
        None, MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
    )
    assert db_state(recovered) == db_state(db)


# -- the Python API's records ----------------------------------------------

PYTHON_API_RECORDS = {
    "insert": (
        lambda db: db.insert("t", {"v": 7, "name": "x"}),
        [(WALRecordType.INSERT, {"table": "t", "oid": 3,
                                 "values": ["x", 7]})],
    ),
    "delete_tuple": (
        lambda db: db.delete_tuple("t", 1),
        [(WALRecordType.DELETE, {"table": "t", "oid": 1})],
    ),
    "add_annotation": (
        lambda db: db.add_annotation(TEXTS[0], table="t", oid=2,
                                     columns=("name",)),
        [(WALRecordType.ANN_ADD, {
            "text": TEXTS[0],
            "targets": [AnnotationTarget("t", 2, ("name",))],
            "ann_id": 1,
        })],
    ),
    "add_annotations_bulk": (
        lambda db: db.add_annotations_bulk([
            (TEXTS[1], [AnnotationTarget("t", 1), AnnotationTarget("t", 2)]),
            (TEXTS[0], [AnnotationTarget("t", 2)]),
        ]),
        [(WALRecordType.ANN_BULK, {
            "items": [
                (TEXTS[1], [AnnotationTarget("t", 1),
                            AnnotationTarget("t", 2)]),
                (TEXTS[0], [AnnotationTarget("t", 2)]),
            ],
            "first_id": 1,
        })],
    ),
    "delete_annotation": (
        lambda db: (db.add_annotation(TEXTS[1], table="t", oid=1),
                    db.delete_annotation(1)),
        [(WALRecordType.ANN_ADD, {"text": TEXTS[1],
                                  "targets": [AnnotationTarget("t", 1)],
                                  "ann_id": 1}),
         (WALRecordType.ANN_DEL, {"ann_id": 1})],
    ),
}


@pytest.mark.parametrize("writer", sorted(PYTHON_API_RECORDS))
def test_each_python_api_writer_logs_its_records(writer):
    """One autocommit group each, unframed, with the payloads replay
    needs: the same records the writers have always logged."""
    db = make_db(rows=2)
    write, expected = PYTHON_API_RECORDS[writer]
    start = db.wal.next_lsn
    write(db)
    assert logged(db, start) == expected
    assert db.lock_manager.held_by(db._default_session()) == set()
    recovered, _report = Database.recover(
        None, MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
    )
    assert db_state(recovered) == db_state(db)


@pytest.mark.parametrize("write", [
    lambda db: db.delete_tuple("t", 99),
    lambda db: db.delete_annotation(99),
], ids=["delete_tuple", "delete_annotation"])
def test_a_delete_of_nothing_logs_nothing(write):
    """Planned like any statement: the missing target fails the plan, so
    no record reaches the log (not even with the next statement's sync)."""
    db = make_db(rows=2)
    start = db.wal.next_lsn
    with pytest.raises(RecordNotFoundError):
        write(db)
    db.insert("t", ["after", 1])
    assert [rtype for rtype, _ in logged(db, start)] == [WALRecordType.INSERT]


# -- stores refuse reused ids ------------------------------------------------

def test_insert_under_a_taken_oid_leaves_no_heap_record():
    db = make_db(rows=2)
    table = db.catalog.table("t")
    rows = dict(table.scan())
    with pytest.raises(DuplicateKeyError):
        table.insert(["dup", 0], oid=1)
    assert dict(table.scan()) == rows  # no record without an OID
    assert len(table) == 2
    assert len(db.sql("SELECT t.name FROM t")) == 2
    assert db.check_integrity().ok


def test_annotation_store_refuses_a_reused_id():
    db = make_db(rows=2)
    db.add_annotation(TEXTS[0], table="t", oid=1)
    store = db.manager.annotations
    with pytest.raises(DuplicateKeyError):
        store.create(TEXTS[1], [AnnotationTarget("t", 2)], ann_id=1)
    assert [a.ann_id for a in store.scan()] == [1]
    assert store.next_id == 2


def test_replay_raises_on_a_reused_annotation_id():
    """A logged annotation whose id the log already used cannot replay
    cleanly: recovery raises, naming it, rather than skip it."""
    db = make_db(rows=2)
    db.add_annotation(TEXTS[0], table="t", oid=1)
    with db._wal_statement():
        lsn = db._wal_append(WALRecordType.ANN_ADD, {
            "text": TEXTS[1], "targets": [AnnotationTarget("t", 2)],
            "ann_id": 1,
        })
    with pytest.raises(WALError, match=f"lsn={lsn}, type=ann_add"):
        Database.recover(
            None, MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
        )


class TestBulkLoadReplay:
    """``add_annotations_bulk`` logs its batch: recovery reproduces each
    annotation under its id, and later ids continue the sequence."""

    @staticmethod
    def recovered(db: Database) -> Database:
        device = MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
        return Database.recover(None, device)[0]

    def test_bulk_load_is_durable(self):
        db = make_db(rows=2)
        annotations = db.add_annotations_bulk([
            (TEXTS[0], [AnnotationTarget("t", 1)]),
            (TEXTS[1], [AnnotationTarget("t", 2)]),
        ])
        recovered = self.recovered(db)
        for ann in annotations:
            assert recovered.manager.annotations.get(ann.ann_id).text == \
                ann.text
        sset = recovered.manager.summary_set_for("t", 1)
        assert sset.get_summary_object("C").get_label_value("alpha") == 1

    def test_bulk_ids_sequential_across_replay(self):
        db = make_db(rows=3)
        db.add_annotation(TEXTS[0], table="t", oid=1)
        batch = db.add_annotations_bulk([
            (TEXTS[1], [AnnotationTarget("t", 1)]),
            (TEXTS[2], [AnnotationTarget("t", 2)]),
        ])
        after = db.add_annotation(TEXTS[3], table="t", oid=3)
        assert [a.ann_id for a in batch] == [2, 3]
        assert after.ann_id == 4
        assert self.recovered(db).manager.annotations.next_id == 5


def test_regeneration_guard_probes_the_oid_index():
    db = make_db(rows=2)
    db.delete_tuple("t", 2)
    exists = db.manager.tuple_exists
    assert exists("t", 1)
    assert not exists("t", 2)  # deleted
    assert not exists("t", 9)  # never assigned
    assert exists("nope", 1)   # unknown table: unverifiable, so True


def test_regeneration_never_resurrects_a_deleted_tuple():
    db = make_db(rows=2)
    db.add_annotation(TEXTS[0], table="t", oid=1)
    db.delete_tuple("t", 1)
    db.manager._targets_index = None  # rebuilt from the store, as on load
    db.manager.regenerate_tuple("t", 1)
    assert db.manager.storage_for("t").get(1) is None
