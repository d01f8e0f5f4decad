"""Tests for the normalized snippet replica (Figure 12's propagation
substrate) and its event-driven maintenance."""

import pytest

from repro import Column, Database, ValueType
from repro.index.replica import NormalizedSnippetReplica
from repro.summaries.maintenance import row_footprint

LONG = (
    "this is a deliberately long annotation about an experiment that was "
    "documented in the wikipedia article and archived with provenance "
    "notes for the record keeping of the survey"
)
SHORT = "brief behavior note"


def make_db() -> Database:
    db = Database()
    db.create_table("t", [Column("a", ValueType.TEXT),
                          Column("b", ValueType.INT)])
    db.create_snippet_instance("Snip", min_chars=60, max_chars=40)
    db.manager.link("t", "Snip")
    return db


def replica_for(db: Database) -> NormalizedSnippetReplica:
    [replica] = db.create_normalized_replicas("t")
    return replica


class TestBulkBuild:
    def test_bulk_build_counts_rows(self):
        db = make_db()
        oid = db.insert("t", {"a": "x", "b": 1})
        db.add_annotation(LONG, table="t", oid=oid)
        db.add_annotation(SHORT, table="t", oid=oid)
        replica = replica_for(db)
        # one snippet row (only LONG earns one) + two member rows
        assert len(replica) == 1
        assert len(replica.members) == 2

    def test_reconstruct_matches_stored(self):
        db = make_db()
        oid = db.insert("t", {"a": "x", "b": 1})
        db.add_annotation(LONG, table="t", oid=oid)
        db.add_annotation(SHORT, table="t", oid=oid)
        replica = replica_for(db)
        stored = db.manager.summary_set_for("t", oid).get_summary_object("Snip")
        rebuilt = replica.reconstruct(oid)
        assert rebuilt.snippets == stored.snippets
        assert rebuilt.ann_targets == stored.ann_targets

    def test_reconstruct_unknown_oid_none(self):
        db = make_db()
        replica = replica_for(db)
        assert replica.reconstruct(999) is None

    def test_pages_used_positive_after_build(self):
        db = make_db()
        oid = db.insert("t", {"a": "x", "b": 1})
        db.add_annotation(LONG, table="t", oid=oid)
        replica = replica_for(db)
        assert replica.pages_used() > 0


class TestIncrementalMaintenance:
    def test_annotation_after_build_is_replicated(self):
        db = make_db()
        oid = db.insert("t", {"a": "x", "b": 1})
        replica = replica_for(db)
        db.add_annotation(LONG, table="t", oid=oid)
        rebuilt = replica.reconstruct(oid)
        assert rebuilt is not None
        assert len(rebuilt.snippets) == 1

    def test_annotation_delete_removes_rows(self):
        db = make_db()
        oid = db.insert("t", {"a": "x", "b": 1})
        replica = replica_for(db)
        ann = db.add_annotation(LONG, table="t", oid=oid)
        db.add_annotation(SHORT, table="t", oid=oid)
        db.delete_annotation(ann.ann_id)
        rebuilt = replica.reconstruct(oid)
        assert rebuilt.snippets == {}
        assert len(rebuilt.ann_targets) == 1

    def test_tuple_delete_clears_replica(self):
        db = make_db()
        oid = db.insert("t", {"a": "x", "b": 1})
        replica = replica_for(db)
        db.add_annotation(LONG, table="t", oid=oid)
        db.delete_tuple("t", oid)
        assert replica.reconstruct(oid) is None

    def test_rewrite_is_idempotent(self):
        db = make_db()
        oid = db.insert("t", {"a": "x", "b": 1})
        replica = replica_for(db)
        db.add_annotation(LONG, table="t", oid=oid)
        before = len(replica)
        # Another write event for the same tuple must not duplicate rows.
        objects = db.manager.storage_for("t").get(oid)
        replica.on_objects_write(oid, objects, row_footprint(objects))
        assert len(replica) == before

    def test_cell_level_columns_roundtrip(self):
        db = make_db()
        oid = db.insert("t", {"a": "x", "b": 1})
        replica = replica_for(db)
        db.add_annotation(LONG, table="t", oid=oid, columns=("a",))
        rebuilt = replica.reconstruct(oid)
        [(_, columns)] = list(rebuilt.ann_targets.items())
        assert columns == ("a",)


class TestDatabaseIntegration:
    def test_create_replicas_skips_existing(self):
        db = make_db()
        first = db.create_normalized_replicas("t")
        second = db.create_normalized_replicas("t")
        assert len(first) == 1
        assert second == []

    def test_replicas_only_for_snippet_instances(self):
        db = make_db()
        db.create_classifier_instance("C", ["A", "B"],
                                      [("alpha text", "A"), ("beta", "B")])
        db.manager.link("t", "C")
        built = db.create_normalized_replicas("t")
        assert len(built) == 1  # Snip only; the classifier's normalized
        # form lives in the BaselineClassifierIndex instead

    def test_registry_keyed_by_table_and_instance(self):
        db = make_db()
        db.create_normalized_replicas("t")
        assert ("replica", "t", "Snip") in db.derived
