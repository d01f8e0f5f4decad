"""SQL DELETE and UPDATE: data and summary predicates, index/summary
maintenance on deletion, assignment expressions, and statistics
staleness."""

import pytest

from repro import Column, Database, ValueType

SEEDS = [
    ("flu virus infection outbreak", "Disease"),
    ("survey checklist volunteer note", "Other"),
]
DISEASE_TEXT = "flu virus infection outbreak seen"
OTHER_TEXT = "survey checklist note uploaded"
EXPR = "$.getSummaryObject('C').getLabelValue('Disease')"


@pytest.fixture()
def db():
    database = Database()
    database.create_table("t", [
        Column("name", ValueType.TEXT), Column("v", ValueType.INT),
    ])
    database.create_classifier_instance("C", ["Disease", "Other"], SEEDS)
    database.sql("Alter Table t Add Indexable C")
    for i in range(5):
        oid = database.insert("t", {"name": f"n{i}", "v": i})
        database.add_annotation(OTHER_TEXT, table="t", oid=oid)
        for _ in range(i):
            database.add_annotation(DISEASE_TEXT, table="t", oid=oid)
    database.analyze("t")
    return database


class TestDelete:
    def test_delete_with_data_predicate(self, db):
        assert db.sql("Delete From t Where v >= 3") == 2
        assert db.sql("Select count(*) c From t").scalar() == 3

    def test_delete_with_summary_predicate(self, db):
        # The paper's first-class-summary promise extends to DML: delete
        # the tuples with no disease-related annotations.
        deleted = db.sql(f"Delete From t r Where r.{EXPR} = 0")
        assert deleted == 1  # only n0
        names = db.sql("Select name From t Order By name").column("name")
        assert names == ["n1", "n2", "n3", "n4"]

    def test_delete_everything(self, db):
        assert db.sql("Delete From t") == 5
        assert db.sql("Select count(*) c From t").scalar() == 0

    def test_delete_maintains_summary_index(self, db):
        index = db.summary_indexes[("t", "C")]
        before = len(index)
        db.sql("Delete From t Where v = 4")
        assert len(index) == before - 2  # two labels per deleted object
        # and the index still answers queries correctly
        result = db.sql(f"Select name From t r Where r.{EXPR} >= 3")
        assert result.column("name") == ["n3"]

    def test_delete_drops_summary_rows(self, db):
        db.sql("Delete From t Where v = 2")
        assert db.manager.storage_for("t").get(3) is None  # OIDs start at 1

    def test_delete_no_match(self, db):
        assert db.sql("Delete From t Where v = 99") == 0

    def test_deleted_annotations_unreachable_by_zoom(self, db):
        db.sql("Delete From t Where v = 4")
        assert db.zoom_in("t", 5, "C", "Disease") == []


class TestUpdate:
    def test_update_literal(self, db):
        assert db.sql("Update t Set v = 42 Where name = 'n1'") == 1
        assert db.sql("Select v From t Where name = 'n1'").scalar() == 42

    def test_update_all_rows(self, db):
        assert db.sql("Update t Set v = 0") == 5
        values = set(db.sql("Select v From t").column("v"))
        assert values == {0}

    def test_update_multiple_columns(self, db):
        db.sql("Update t Set v = 7, name = 'renamed' Where v = 3")
        row = db.sql("Select name, v From t Where v = 7").rows[0]
        assert row == {"name": "renamed", "v": 7}

    def test_update_expression_from_row(self, db):
        # assignments may reference the row being updated
        db.sql("Update t Set v = oid Where name = 'n2'")
        assert db.sql("Select v From t Where name = 'n2'").scalar() == 3

    def test_update_from_summary_expression(self, db):
        # materialize a summary value into a data column
        db.sql(f"Update t r Set v = r.{EXPR}")
        values = db.sql("Select name, v From t Order By name").column("v")
        assert values == [0, 1, 2, 3, 4]

    def test_update_with_summary_predicate(self, db):
        changed = db.sql(f"Update t r Set name = 'hot' Where r.{EXPR} >= 3")
        assert changed == 2

    def test_update_marks_statistics_stale(self, db):
        from repro.optimizer.statistics import StatisticsCatalog

        db.statistics.table_stats("t")
        db.sql("Update t Set v = 1000")
        stats = db.statistics.table_stats("t")
        assert (stats.columns["v"].min, stats.columns["v"].max) == (1000, 1000)
        assert stats.columns["v"].ndistinct == 1
        assert stats == StatisticsCatalog(db.catalog, db.manager).analyze("t")

    def test_update_no_match(self, db):
        assert db.sql("Update t Set v = 1 Where v = 99") == 0


class TestDmlInterop:
    def test_delete_then_requery_via_index(self, db):
        db.sql(f"Delete From t r Where r.{EXPR} in [1, 2]")
        db.options.force_access = "index"
        try:
            result = db.sql(f"Select name From t r Where r.{EXPR} >= 1")
        finally:
            db.options.force_access = None
        assert sorted(result.column("name")) == ["n3", "n4"]

    def test_update_then_data_index(self, db):
        db.create_index("t", "v")
        db.sql("Update t Set v = 100 Where name = 'n0'")
        result = db.sql("Select name From t Where v = 100")
        assert result.column("name") == ["n0"]
