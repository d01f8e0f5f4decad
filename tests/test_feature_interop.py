"""Cross-feature interoperability: the extensions must compose — images
carry hierarchies and keyword indexes, DML drives every index type's
maintenance, UDFs see hierarchical roll-ups, and the shell touches all of
it through one session."""

import pytest

from repro import Column, Database, ValueType
from repro.cli import execute_line

TREE = {"Health": {"Disease": {}, "Injury": {}}, "Other": {}}
SEEDS = [
    ("flu virus infection outbreak epidemic", "Disease"),
    ("broken wing wound bleeding fracture", "Injury"),
    ("survey checklist volunteer photo", "Other"),
]
DISEASE = "flu virus infection outbreak observed"
INJURY = "broken wing wound bleeding badly"
LONG_PAD = " with enough extra words to push this past the threshold"


def build() -> Database:
    db = Database()
    db.create_table("t", [Column("name", ValueType.TEXT)])
    db.create_hierarchical_classifier_instance("H", TREE, SEEDS)
    db.create_snippet_instance("S", min_chars=50, max_chars=200)
    db.sql("Alter Table t Add Indexable H")
    db.manager.link("t", "S")
    for i in range(6):
        oid = db.insert("t", {"name": f"n{i}"})
        for _ in range(i % 3):
            db.add_annotation(DISEASE + LONG_PAD, table="t", oid=oid)
        if i % 2:
            db.add_annotation(INJURY + LONG_PAD, table="t", oid=oid)
    db.create_keyword_index("t", "S")
    db.analyze("t")
    return db


HEALTH = "$.getSummaryObject('H').getLabelValue('Health')"


class TestPersistenceInterop:
    def test_hierarchy_survives_image(self, tmp_path):
        db = build()
        path = tmp_path / "db.indb"
        db.save(path)
        restored = Database.load(path)
        result = restored.sql(
            f"Select name From t r Where r.{HEALTH} >= 2 Order By name"
        )
        expected = db.sql(
            f"Select name From t r Where r.{HEALTH} >= 2 Order By name"
        )
        assert result.column("name") == expected.column("name")

    def test_keyword_index_survives_image(self, tmp_path):
        db = build()
        path = tmp_path / "db.indb"
        db.save(path)
        restored = Database.load(path)
        assert ("keyword", "t", "S") in restored.derived
        restored.options.search_raw = False
        restored.options.force_access = "index"
        result = restored.sql(
            "Select name From t r Where "
            "r.$.getSummaryObject('S').containsUnion('infection')"
        )
        restored.options.force_access = None
        restored.options.search_raw = True
        assert len(result) > 0

    def test_multilevel_zoom_after_restore(self, tmp_path):
        db = build()
        path = tmp_path / "db.indb"
        db.save(path)
        restored = Database.load(path)
        # n5: 2 disease + 1 injury annotations -> Health zoom returns 3.
        assert len(restored.zoom_in("t", 6, "H", "Health")) == 3


class TestDmlInterop:
    def test_delete_maintains_keyword_index(self):
        db = build()
        index = db.derived[("keyword", "t", "S")]
        victims = index.candidates(["infection"])
        assert victims
        db.sql(f"Delete From t r Where r.{HEALTH} >= 1")
        assert index.candidates(["infection"]) == set()

    def test_delete_with_hierarchical_predicate(self):
        db = build()
        deleted = db.sql(f"Delete From t r Where r.{HEALTH} = 0")
        # n0 and n3 carry no annotations at all -> Health is NULL there,
        # so only annotated tuples with zero Health counts match: none.
        assert deleted == 0
        deleted = db.sql(f"Delete From t r Where r.{HEALTH} >= 3")
        assert deleted == 1  # n5 (2 disease + 1 injury)

    def test_update_with_udf_predicate(self):
        db = build()
        db.register_udf(
            "sick",
            lambda s: (obj := s.get_summary_object("H")) is not None
            and obj.get_label_value("Disease") >= 2,
        )
        changed = db.sql("Update t r Set name = 'flagged' Where sick(r.$)")
        assert changed == 2  # n2 and n5 have 2 disease annotations
        flagged = db.sql("Select name From t Where name = 'flagged'")
        assert len(flagged) == 2


class TestShellInterop:
    def test_shell_session_touches_everything(self):
        db = build()
        out = execute_line(db, "\\instances")
        assert "H (HierarchicalClassifier) -> t" in out
        out = execute_line(
            db, f"Select name From t r Where r.{HEALTH} >= 2 Order By name"
        )
        assert "n1" in out and "n2" in out and "n5" in out
        out = execute_line(db, f"Delete From t r Where r.{HEALTH} >= 3")
        assert out == "1 rows affected"
        out = execute_line(db, "\\set search_raw false")
        assert db.options.search_raw is False
        execute_line(db, "\\set search_raw true")


class TestFuzzComposition:
    def test_hierarchy_rollup_consistent_with_leaf_sums(self):
        db = build()
        instance = db.manager.instance("H")
        for oid in range(1, 7):
            sset = db.manager.summary_set_for("t", oid)
            obj = sset.get_summary_object("H")
            if obj is None:
                continue
            health = instance.resolve_value(obj, "Health")
            leaves = (obj.get_label_value("Disease")
                      + obj.get_label_value("Injury"))
            assert health == leaves
