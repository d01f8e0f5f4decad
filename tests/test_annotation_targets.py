"""Annotation target combinatorics (§1: annotations attach to cells, rows,
columns, and arbitrary sets of them) and their projection semantics."""

import pytest

from repro import Column, Database, ValueType
from repro.annotations.annotation import AnnotationTarget
from repro.errors import SchemaError
from repro.wal.device import MemoryWALDevice
from repro.wal.record import WALRecordType

SEEDS = [
    ("flu virus infection outbreak", "Disease"),
    ("survey checklist volunteer", "Other"),
]
TEXT = "flu virus infection outbreak sighted"


@pytest.fixture()
def db():
    database = Database()
    database.create_table("t", [
        Column("a", ValueType.TEXT), Column("b", ValueType.TEXT),
        Column("c", ValueType.TEXT),
    ])
    database.create_classifier_instance("C", ["Disease", "Other"], SEEDS)
    database.manager.link("t", "C")
    return database


def disease_count(result, i=0):
    return dict(result.summaries(i)["C"])["Disease"]


class TestMultiColumnTargets:
    def test_annotation_on_two_columns_survives_if_any_retained(self, db):
        oid = db.insert("t", {"a": "x", "b": "y", "c": "z"})
        db.add_annotation(TEXT, table="t", oid=oid, columns=("a", "b"))
        # Projecting a keeps it (one of its columns is retained) ...
        assert disease_count(db.sql("Select a From t")) == 1
        # ... and projecting only c eliminates it.
        assert disease_count(db.sql("Select c From t")) == 0

    def test_row_level_annotation_never_eliminated(self, db):
        oid = db.insert("t", {"a": "x", "b": "y", "c": "z"})
        db.add_annotation(TEXT, table="t", oid=oid)  # row-level
        assert disease_count(db.sql("Select c From t")) == 1

    def test_mixed_targets_partial_elimination(self, db):
        oid = db.insert("t", {"a": "x", "b": "y", "c": "z"})
        db.add_annotation(TEXT, table="t", oid=oid, columns=("a",))
        db.add_annotation(TEXT, table="t", oid=oid, columns=("b",))
        db.add_annotation(TEXT, table="t", oid=oid)
        assert disease_count(db.sql("Select a From t")) == 2  # a + row
        assert disease_count(db.sql("Select * From t")) == 3


class TestMultiTupleTargets:
    def test_one_annotation_on_two_rows(self, db):
        o1 = db.insert("t", {"a": "x1", "b": "y", "c": "z"})
        o2 = db.insert("t", {"a": "x2", "b": "y", "c": "z"})
        db.add_annotation(TEXT, targets=[
            AnnotationTarget("t", o1, ()),
            AnnotationTarget("t", o2, ()),
        ])
        result = db.sql("Select * From t Order By a")
        assert disease_count(result, 0) == 1
        assert disease_count(result, 1) == 1

    def test_shared_annotation_deleted_everywhere(self, db):
        o1 = db.insert("t", {"a": "x1", "b": "y", "c": "z"})
        o2 = db.insert("t", {"a": "x2", "b": "y", "c": "z"})
        ann = db.add_annotation(TEXT, targets=[
            AnnotationTarget("t", o1, ()),
            AnnotationTarget("t", o2, ()),
        ])
        db.delete_annotation(ann.ann_id)
        result = db.sql("Select * From t Order By a")
        # Removing a tuple's last annotation drops its storage row
        # entirely: both rows summarize like never-annotated tuples.
        assert "C" not in result.summaries(0)
        assert "C" not in result.summaries(1)
        assert db.manager.storage_for("t").get(o1) is None
        assert db.manager.storage_for("t").get(o2) is None

    def test_cross_table_annotation(self, db):
        db.create_table("u", [Column("k", ValueType.TEXT)])
        db.manager.link("u", "C")
        o_t = db.insert("t", {"a": "x", "b": "y", "c": "z"})
        o_u = db.insert("u", {"k": "w"})
        db.add_annotation(TEXT, targets=[
            AnnotationTarget("t", o_t, ()),
            AnnotationTarget("u", o_u, ()),
        ])
        assert disease_count(db.sql("Select * From t")) == 1
        assert disease_count(db.sql("Select * From u")) == 1

    def test_zoom_sees_shared_annotation_once_per_tuple(self, db):
        o1 = db.insert("t", {"a": "x1", "b": "y", "c": "z"})
        o2 = db.insert("t", {"a": "x2", "b": "y", "c": "z"})
        db.add_annotation(TEXT, targets=[
            AnnotationTarget("t", o1, ()),
            AnnotationTarget("t", o2, ()),
        ])
        assert db.zoom_in("t", o1, "C", "Disease") == [TEXT]
        assert db.zoom_in("t", o2, "C", "Disease") == [TEXT]


class TestTargetValidation:
    def test_annotation_needs_table_and_oid(self, db):
        with pytest.raises(Exception):
            db.add_annotation(TEXT)

    def test_columns_on_returns_right_subset(self, db):
        oid = db.insert("t", {"a": "x", "b": "y", "c": "z"})
        ann = db.add_annotation(TEXT, table="t", oid=oid, columns=("a", "c"))
        assert set(ann.columns_on("t", oid)) == {"a", "c"}
        assert ann.columns_on("t", 999) == ()


class TestTargetColumns:
    """A target column must be a column of its table, matched exactly as
    the binder matches names.  An unknown one used to be stored: it
    counted under ``Select *``, vanished from every named projection and
    marked the table cell-annotated."""

    BAD = [("zz",), ("A",), ("oid",), ("a", "zz")]

    def assert_untouched(self, db, oid, next_id, log_len):
        assert db.manager.annotations.next_id == next_id
        assert not db.manager.has_cell_annotations("t")
        assert db.manager.storage_for("t").get(oid) is None
        assert len(db.wal.device.durable()) == log_len
        assert "C" not in db.sql("Select * From t").summaries(0)

    @pytest.mark.parametrize("columns", BAD)
    def test_rejected_before_logging(self, db, columns):
        oid = db.insert("t", {"a": "x", "b": "y", "c": "z"})
        db.attach_wal()
        next_id = db.manager.annotations.next_id
        log_len = len(db.wal.device.durable())
        listed = ", ".join(columns)
        attempts = [
            lambda: db.sql(f"Annotate t {oid} ({listed}) '{TEXT}'"),
            lambda: db.add_annotation(TEXT, table="t", oid=oid,
                                      columns=columns),
            lambda: db.add_annotation(TEXT, targets=[
                AnnotationTarget("t", oid, ()),
                AnnotationTarget("t", oid, columns),
            ]),
            lambda: db.add_annotations_bulk([
                (TEXT, [AnnotationTarget("t", oid, ())]),
                (TEXT, [AnnotationTarget("t", oid, columns)]),
            ]),
        ]
        for attempt in attempts:
            with pytest.raises(SchemaError):
                attempt()
            self.assert_untouched(db, oid, next_id, log_len)

    def test_rejected_inside_a_transaction(self, db):
        oid = db.insert("t", {"a": "x", "b": "y", "c": "z"})
        db.attach_wal()
        next_id = db.manager.annotations.next_id
        log_len = len(db.wal.device.durable())
        session = db.session()
        session.execute("Begin")
        with pytest.raises(SchemaError):
            session.execute(f"Annotate t {oid} (zz) '{TEXT}'")
        session.execute(f"Annotate t {oid} (a) '{TEXT}'")
        session.execute("Commit")
        assert db.manager.annotations.next_id == next_id + 1
        assert disease_count(db.sql("Select a From t")) == 1
        assert len(db.wal.device.durable()) > log_len

    def test_existing_log_still_replays(self, db, tmp_path):
        """A log written before the check may hold such a target: replay
        applies it as it was applied then."""
        oid = db.insert("t", {"a": "x", "b": "y", "c": "z"})
        db.save(tmp_path / "image.db")
        db.attach_wal()
        bad = AnnotationTarget("t", oid, ("zz",))
        with db._wal_statement():
            db._wal_append(WALRecordType.ANN_ADD, {
                "text": TEXT, "targets": [bad],
                "ann_id": db.manager.annotations.next_id,
            })
            db.manager.add_annotation(TEXT, [bad])
        recovered, report = Database.recover(
            tmp_path / "image.db",
            MemoryWALDevice.from_durable(db.wal.device.durable(), 0),
        )
        assert report.replayed == 1
        assert recovered.manager.has_cell_annotations("t")
        assert disease_count(recovered.sql("Select * From t")) == 1
