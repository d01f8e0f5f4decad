"""Integration tests for annotation storage + incremental summary
maintenance (§2.1, §4.1.2)."""

import pytest

from repro.annotations.annotation import AnnotationTarget
from repro.errors import RecordNotFoundError, SummaryError, UnknownInstanceError
from repro.index.derived import DerivedIndex
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.summaries.maintenance import SummaryManager

SEED = [
    ("observed infection avian flu disease symptoms sick virus", "Disease"),
    ("parasite outbreak illness infected disease", "Disease"),
    ("wing beak feather plumage anatomy body tail skeleton", "Anatomy"),
    ("wingspan weight size bone anatomy measurements", "Anatomy"),
    ("migration nesting singing foraging behavior courtship", "Behavior"),
    ("feeding eating diving flying flock behavior", "Behavior"),
    ("general note comment misc", "Other"),
]


def make_manager():
    manager = SummaryManager(BufferPool(DiskManager(), capacity=1024))
    manager.create_classifier_instance(
        "ClassBird1", ["Disease", "Anatomy", "Behavior", "Other"], SEED
    )
    manager.create_snippet_instance("TextSummary1", min_chars=80, max_chars=60)
    manager.create_cluster_instance("SimCluster")
    for name in ("ClassBird1", "TextSummary1", "SimCluster"):
        manager.link("birds", name)
    return manager


def row_target(oid, columns=()):
    return [AnnotationTarget("birds", oid, tuple(columns))]


class TestAnnotationStore:
    def test_create_get_roundtrip(self):
        m = make_manager()
        ann = m.annotations.create("a note", row_target(1))
        got = m.annotations.get(ann.ann_id)
        assert got.text == "a note"
        assert got.targets[0].oid == 1

    def test_ids_monotonic(self):
        m = make_manager()
        a = m.annotations.create("x", row_target(1))
        b = m.annotations.create("y", row_target(1))
        assert b.ann_id == a.ann_id + 1

    def test_delete(self):
        m = make_manager()
        ann = m.annotations.create("gone", row_target(1))
        m.annotations.delete(ann.ann_id)
        with pytest.raises(RecordNotFoundError):
            m.annotations.get(ann.ann_id)

    def test_texts_order(self):
        m = make_manager()
        ids = [m.annotations.create(f"t{i}", row_target(1)).ann_id for i in range(3)]
        assert m.annotations.texts(ids) == ["t0", "t1", "t2"]

    def test_annotation_needs_target(self):
        m = make_manager()
        with pytest.raises(SummaryError):
            m.annotations.create("orphan", [])


class TestInstanceRegistry:
    def test_duplicate_instance_rejected(self):
        m = make_manager()
        with pytest.raises(SummaryError):
            m.create_snippet_instance("TextSummary1")

    def test_unknown_instance_link_rejected(self):
        m = make_manager()
        with pytest.raises(UnknownInstanceError):
            m.link("birds", "Nope")

    def test_double_link_rejected(self):
        m = make_manager()
        with pytest.raises(SummaryError):
            m.link("birds", "ClassBird1")

    def test_unlink(self):
        m = make_manager()
        m.unlink("birds", "SimCluster")
        assert not m.is_linked("birds", "SimCluster")
        names = [i.name for i in m.instances_for("birds")]
        assert names == ["ClassBird1", "TextSummary1"]

    def test_tables_with_instance(self):
        m = make_manager()
        m.link("synonyms", "TextSummary1")
        assert set(m.tables_with_instance("TextSummary1")) == {"birds", "synonyms"}


class TestAddAnnotation:
    def test_first_annotation_creates_storage_row(self):
        m = make_manager()
        storage = m.storage_for("birds")
        assert storage.get(1) is None
        m.add_annotation("bird shows avian flu infection disease", row_target(1))
        objects = storage.get(1)
        assert objects is not None
        assert set(objects) == {"ClassBird1", "TextSummary1", "SimCluster"}

    def test_classifier_counts_grow(self):
        m = make_manager()
        m.add_annotation("avian flu infection disease symptoms", row_target(1))
        m.add_annotation("another virus disease outbreak infected", row_target(1))
        m.add_annotation("wing plumage anatomy beak", row_target(1))
        clf = m.summary_set_for("birds", 1).get_summary_object("ClassBird1")
        assert clf.get_label_value("Disease") == 2
        assert clf.get_label_value("Anatomy") == 1

    def test_long_annotation_gets_snippet(self):
        m = make_manager()
        long_text = (
            "The specimen was observed daily. " * 5
            + "It was eating stonewort near the lake."
        )
        assert len(long_text) > 80
        m.add_annotation(long_text, row_target(1))
        snip = m.summary_set_for("birds", 1).get_summary_object("TextSummary1")
        assert snip.get_size() == 1
        assert len(snip.get_snippet(0)) <= 60

    def test_short_annotation_gets_no_snippet(self):
        m = make_manager()
        m.add_annotation("short note", row_target(1))
        snip = m.summary_set_for("birds", 1).get_summary_object("TextSummary1")
        assert snip.get_size() == 0
        assert snip.all_annotation_ids()  # still tracked for keyword search

    def test_cluster_groups_similar_annotations(self):
        m = make_manager()
        m.add_annotation("eating stonewort in the lake", row_target(1))
        m.add_annotation("found eating stonewort near lake", row_target(1))
        m.add_annotation("skeletal wingspan measurement specimen anatomy", row_target(1))
        clus = m.summary_set_for("birds", 1).get_summary_object("SimCluster")
        assert clus.get_size() == 2
        assert clus.largest_group_size() == 2

    def test_cell_level_annotation_records_columns(self):
        m = make_manager()
        m.add_annotation("size seems wrong", row_target(1, ["weight"]))
        clf = m.summary_set_for("birds", 1).get_summary_object("ClassBird1")
        ann_id = next(iter(clf.all_annotation_ids()))
        assert clf.ann_targets[ann_id] == ("weight",)

    def test_multi_tuple_annotation_updates_both(self):
        m = make_manager()
        targets = [AnnotationTarget("birds", 1), AnnotationTarget("birds", 2)]
        m.add_annotation("disease infection observed flu", targets)
        for oid in (1, 2):
            clf = m.summary_set_for("birds", oid).get_summary_object("ClassBird1")
            assert clf.get_label_value("Disease") == 1

    def test_annotation_on_unlinked_table_only_stored_raw(self):
        m = make_manager()
        ann = m.add_annotation("note", [AnnotationTarget("other_table", 1)])
        assert m.annotations.get(ann.ann_id).text == "note"
        assert m.storage_for("other_table").get(1) is None


class TestDeleteAnnotation:
    def test_delete_reverses_classifier_count(self):
        m = make_manager()
        ann = m.add_annotation("avian flu disease infection", row_target(1))
        m.add_annotation("wing anatomy plumage", row_target(1))
        m.delete_annotation(ann.ann_id)
        clf = m.summary_set_for("birds", 1).get_summary_object("ClassBird1")
        assert clf.get_label_value("Disease") == 0
        assert clf.get_label_value("Anatomy") == 1

    def test_delete_removes_cluster_member(self):
        m = make_manager()
        a = m.add_annotation("eating stonewort lake", row_target(1))
        m.add_annotation("eating stonewort near the lake", row_target(1))
        m.delete_annotation(a.ann_id)
        clus = m.summary_set_for("birds", 1).get_summary_object("SimCluster")
        assert clus.largest_group_size() == 1
        assert a.ann_id not in clus.all_annotation_ids()

    def test_delete_tuple_drops_summary_row(self):
        m = make_manager()
        m.add_annotation("note about disease infection", row_target(5))
        m.on_tuple_delete("birds", 5)
        assert m.storage_for("birds").get(5) is None

    def test_delete_unannotated_tuple_is_noop(self):
        m = make_manager()
        m.on_tuple_delete("birds", 42)  # no error


class TestReadsAndZoom:
    def test_summary_set_for_unannotated_tuple_empty(self):
        m = make_manager()
        assert m.summary_set_for("birds", 9).get_size() == 0

    def test_zoom_in_by_label(self):
        m = make_manager()
        m.add_annotation("avian flu disease infection symptoms", row_target(1))
        m.add_annotation("wing anatomy beak plumage", row_target(1))
        texts = m.zoom_in("birds", 1, "ClassBird1", "Disease")
        assert texts == ["avian flu disease infection symptoms"]

    def test_zoom_in_whole_instance(self):
        m = make_manager()
        m.add_annotation("one note here today", row_target(1))
        m.add_annotation("two notes appeared there", row_target(1))
        assert len(m.zoom_in("birds", 1, "ClassBird1")) == 2

    def test_zoom_in_cluster_group(self):
        m = make_manager()
        m.add_annotation("eating stonewort lake", row_target(1))
        m.add_annotation("eating stonewort in lake shallows", row_target(1))
        texts = m.zoom_in("birds", 1, "SimCluster", 0)
        assert len(texts) == 2

    def test_zoom_bad_selector(self):
        m = make_manager()
        m.add_annotation("a note", row_target(1))
        with pytest.raises(SummaryError):
            m.zoom_in("birds", 1, "ClassBird1", "NoLabel")

    def test_zoom_unannotated_returns_empty(self):
        m = make_manager()
        assert m.zoom_in("birds", 3, "ClassBird1") == []


class RecordingObserver:
    """Reads the storage-row channel the way a Summary-BTree does: old
    counts from the replaced row's footprint, new ones from the row."""

    def __init__(self, instance="ClassBird1"):
        self.instance = instance
        self.events = []

    def on_objects_write(self, oid, objects, previous):
        new = dict(objects[self.instance].rep())
        if previous is None:
            self.events.append(("insert", oid, new))
        else:
            old = previous[self.instance][1]
            self.events.append(("update", oid, old, new))

    def on_objects_delete(self, oid, previous):
        self.events.append(("delete", oid, previous[self.instance][1]))


class TestObservers:
    def test_insert_then_update_events(self):
        m = make_manager()
        observer = RecordingObserver()
        m.add_observer("birds", observer)
        m.add_annotation("disease infection flu", row_target(1))
        m.add_annotation("wing anatomy beak", row_target(1))
        kinds = [e[0] for e in observer.events]
        assert kinds == ["insert", "update"]
        _, _, old, new = observer.events[1]
        assert old["Anatomy"] == 0 and new["Anatomy"] == 1

    def test_delete_annotation_fires_update(self):
        m = make_manager()
        observer = RecordingObserver()
        m.add_observer("birds", observer)
        ann = m.add_annotation("disease infection flu", row_target(1))
        last = m.add_annotation("wing anatomy beak", row_target(1))
        m.delete_annotation(ann.ann_id)
        assert [e[0] for e in observer.events] == ["insert", "update", "update"]
        _, _, old, new = observer.events[-1]
        assert old["Disease"] == 1 and new["Disease"] == 0
        # Deleting the tuple's last annotation drops the hollow row with
        # one delete event carrying the counts the row held.
        m.delete_annotation(last.ann_id)
        assert observer.events[-1] == (
            "delete", 1, {"Disease": 0, "Anatomy": 1, "Behavior": 0,
                          "Other": 0})

    def test_tuple_delete_fires_delete(self):
        m = make_manager()
        observer = RecordingObserver()
        m.add_observer("birds", observer)
        m.add_annotation("disease infection flu", row_target(1))
        m.on_tuple_delete("birds", 1)
        assert observer.events[-1][0] == "delete"

    def test_remove_observer(self):
        m = make_manager()
        observer = RecordingObserver()
        m.add_observer("birds", observer)
        m.remove_observer("birds", observer)
        m.add_annotation("disease flu", row_target(1))
        assert observer.events == []


class TestClustererStateRebuild:
    def test_state_rebuilt_after_eviction(self):
        m = make_manager()
        m.add_annotation("eating stonewort lake", row_target(1))
        m.add_annotation("eating stonewort lake again", row_target(1))
        # Simulate losing the in-memory CluStream state (engine restart).
        m._clusterers.clear()
        m.add_annotation("eating stonewort near lake", row_target(1))
        clus = m.summary_set_for("birds", 1).get_summary_object("SimCluster")
        assert clus.largest_group_size() == 3


class TestHollowRowDropped:
    """Deleting a tuple's last annotation must drop the storage row —
    never leave hollow (all-empty) summary objects for caches and indexes
    to keep serving."""

    def test_last_delete_drops_storage_row(self):
        m = make_manager()
        ann = m.add_annotation("disease infection flu", row_target(7))
        assert m.storage_for("birds").get(7) is not None
        m.delete_annotation(ann.ann_id)
        assert m.storage_for("birds").get(7) is None

    def test_last_delete_fires_objects_delete(self):
        m = make_manager()

        class StarObserver:
            def __init__(self):
                self.deleted = []
                self.written = []
                self.previous = []

            def on_objects_write(self, oid, objects, previous):
                self.written.append(oid)
                self.previous.append(previous)

            def on_objects_delete(self, oid, previous):
                self.deleted.append(oid)
                self.previous.append(previous)

        star = StarObserver()
        m.add_observer("birds", star)
        ann = m.add_annotation("disease infection flu", row_target(7))
        m.delete_annotation(ann.ann_id)
        assert star.deleted == [7]
        # The hollow row was dropped, not written back.
        assert star.written == [7]  # only the insert wrote
        # The insert created the row; the delete retracts what it stored.
        created, dropped = star.previous
        assert created is None
        size, counts = dropped["ClassBird1"]
        assert size > 0 and counts["Disease"] == 1
        assert dropped["TextSummary1"][1] is None

    def test_partial_delete_keeps_row(self):
        m = make_manager()
        a = m.add_annotation("disease infection flu", row_target(7))
        m.add_annotation("wing anatomy beak", row_target(7))
        m.delete_annotation(a.ann_id)
        objects = m.storage_for("birds").get(7)
        assert objects is not None
        assert dict(objects["ClassBird1"].rep())["Anatomy"] == 1

    def test_clusterer_state_dropped_with_row(self):
        m = make_manager()
        ann = m.add_annotation("eating stonewort lake", row_target(7))
        assert ("birds", 7, "SimCluster") in m._clusterers
        m.delete_annotation(ann.ann_id)
        assert ("birds", 7, "SimCluster") not in m._clusterers


class TestUnlinkDetachesObservers:
    """ALTER TABLE … DROP must detach the dropped index and statistics
    observers — a detached-but-subscribed index is a zombie that keeps
    mutating, and re-ADD would register duplicates."""

    SEED = [
        ("observed infection disease flu", "Disease"),
        ("wing beak anatomy", "Anatomy"),
    ]

    def _database(self):
        from repro.catalog.schema import Column
        from repro.core.database import Database
        from repro.storage.record import ValueType

        db = Database(buffer_pages=256)
        db.create_table("birds", [Column("name", ValueType.TEXT)])
        db.create_classifier_instance("C", ["Disease", "Anatomy"], self.SEED)
        db.sql("Alter Table birds Add Indexable C")
        oid = db.insert("birds", {"name": "b1"})
        return db, oid

    def test_drop_stops_zombie_index_mutation(self):
        db, oid = self._database()
        db.add_annotation("disease flu infection", table="birds", oid=oid)
        index = db.summary_indexes[("birds", "C")]
        size_before = len(index)
        db.sql("Alter Table birds Drop C")
        # Re-link the instance without an index: annotation writes resume,
        # but the dropped index must no longer see them.
        db.manager.link("birds", "C")
        db.add_annotation("more disease flu", table="birds", oid=oid)
        assert len(index) == size_before

    def test_drop_detaches_whole_channel(self):
        db, _oid = self._database()
        # The index; the cache and statistics subscribe once per table.
        index = db.derived[("summary", "birds", "C")]
        observers = db.manager._observers["birds"]
        assert observers.count(index) == 1
        others = [o for o in observers if o is not index]
        db.sql("Alter Table birds Drop C")
        assert ("summary", "birds", "C") not in db.derived
        assert db.manager._observers["birds"] == others

    def test_readd_registers_single_set_of_observers(self):
        db, oid = self._database()
        db.sql("Alter Table birds Drop C")
        db.sql("Alter Table birds Add Indexable C")
        # Exactly one index observer — the bug left the old one
        # subscribed, doubling every notification.
        assert len([o for o in db.manager._observers["birds"]
                    if isinstance(o, DerivedIndex)]) == 1
        index = db.summary_indexes[("birds", "C")]
        db.add_annotation("disease flu infection", table="birds", oid=oid)
        # One notification, one index entry for the tuple.
        assert len(list(index.lookup_range("Disease", lo=1))) == 1

    def test_remove_observer_idempotent(self):
        m = make_manager()
        observer = RecordingObserver()
        m.add_observer("birds", observer)
        m.remove_observer("birds", observer)
        # Second removal (and removal of a never-added observer) no-op.
        m.remove_observer("birds", observer)
        m.remove_observer("birds", RecordingObserver())
