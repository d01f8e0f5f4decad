"""Tests for the Summary-BTree index and the baseline scheme (§4.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotations.annotation import AnnotationTarget
from repro.catalog.schema import Column, Schema
from repro.catalog.table import Table
from repro.errors import IndexError_
from repro.index import (
    BaselineClassifierIndex,
    SummaryBTreeIndex,
    extend_count,
    itemize,
    parse_item,
    probe_range,
)
from repro.index.itemize import itemize_object, max_count
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.record import ValueType
from repro.summaries.maintenance import SummaryManager

SEED = [
    ("infection avian flu disease symptoms virus sick", "Disease"),
    ("outbreak parasite illness disease infected", "Disease"),
    ("wing beak feather plumage anatomy skeleton", "Anatomy"),
    ("wingspan weight bone anatomy measurement", "Anatomy"),
    ("migration nesting singing foraging behavior", "Behavior"),
    ("feeding eating diving flying behavior flock", "Behavior"),
    ("note comment misc general", "Other"),
]

DISEASE = "infection avian flu disease symptoms"
ANATOMY = "wing beak plumage anatomy"


class TestItemization:
    def test_extend_count_three_chars(self):
        assert extend_count(8) == "008"
        assert extend_count(999) == "999"

    def test_extend_count_preserves_order(self):
        values = [0, 1, 9, 10, 42, 100, 999]
        encoded = [extend_count(v) for v in values]
        assert encoded == sorted(encoded)

    def test_extend_count_overflow(self):
        with pytest.raises(IndexError_):
            extend_count(1000)

    def test_extend_count_negative(self):
        with pytest.raises(IndexError_):
            extend_count(-1)

    def test_itemize_matches_paper_example(self):
        assert itemize("Disease", 8) == "Disease:008"

    def test_itemize_object(self):
        rep = [("Behavior", 33), ("Disease", 8), ("Anatomy", 25), ("Other", 16)]
        assert itemize_object(rep) == [
            "Behavior:033", "Disease:008", "Anatomy:025", "Other:016",
        ]

    def test_label_with_separator_rejected(self):
        with pytest.raises(IndexError_):
            itemize("Bad:Label", 1)

    def test_parse_roundtrip(self):
        assert parse_item(itemize("Disease", 42)) == ("Disease", 42)

    def test_probe_range_defaults(self):
        # Missing bounds become label:000 / label:999 (§4.1.2).
        assert probe_range("Disease", None, None) == ("Disease:000", "Disease:999")
        assert probe_range("Disease", 5, None) == ("Disease:005", "Disease:999")
        assert probe_range("Disease", None, 7) == ("Disease:000", "Disease:007")

    @given(st.integers(0, 999), st.integers(0, 999))
    @settings(max_examples=50)
    def test_property_lexicographic_equals_numeric(self, a, b):
        assert (itemize("L", a) < itemize("L", b)) == (a < b)


def build_indexed_manager(backward=True):
    """Manager with birds table + ClassBird1 instance + Summary-BTree."""
    pool = BufferPool(DiskManager(), capacity=2048)
    schema = Schema([Column("name", ValueType.TEXT)])
    table = Table("birds", schema, pool)
    manager = SummaryManager(pool)
    manager.create_classifier_instance(
        "ClassBird1", ["Disease", "Anatomy", "Behavior", "Other"], SEED
    )
    manager.link("birds", "ClassBird1")
    index = SummaryBTreeIndex(
        table, manager.storage_for("birds"), "ClassBird1",
        backward_pointers=backward,
    )
    manager.add_observer("birds", index)
    return pool, table, manager, index


def annotate(manager, oid, text, n=1):
    for _ in range(n):
        manager.add_annotation(text, [AnnotationTarget("birds", oid)])


class TestSummaryBTree:
    def test_insert_creates_k_keys(self):
        _, table, manager, index = build_indexed_manager()
        table.insert({"name": "swan"})
        annotate(manager, 1, DISEASE)
        assert len(index) == 4  # one key per class label

    def test_update_rekeys_only_changed_label(self):
        _, table, manager, index = build_indexed_manager()
        table.insert({"name": "swan"})
        annotate(manager, 1, DISEASE)
        annotate(manager, 1, DISEASE)
        assert len(index) == 4
        assert [p.oid for p in index.lookup_eq("Disease", 2)] == [1]
        assert index.lookup_eq("Disease", 1) == []

    def test_backward_pointer_resolves_data_tuple(self):
        _, table, manager, index = build_indexed_manager()
        table.insert({"name": "swan goose"})
        annotate(manager, 1, DISEASE)
        pointer = index.lookup_eq("Disease", 1)[0]
        assert table.read_at(pointer.rid)[0] == "swan goose"

    def test_conventional_pointer_resolves_storage_row(self):
        _, table, manager, index = build_indexed_manager(backward=False)
        table.insert({"name": "swan"})
        annotate(manager, 1, DISEASE)
        pointer = index.lookup_eq("Disease", 1)[0]
        record = manager.storage_for("birds").heap.read(pointer.rid)
        assert b"ClassBird1" in record

    def test_equality_probe_multiple_tuples(self):
        _, table, manager, index = build_indexed_manager()
        for i in range(10):
            table.insert({"name": f"bird{i}"})
        for oid in range(1, 11):
            annotate(manager, oid, DISEASE, n=oid % 3 + 1)
        hits = index.lookup_eq("Disease", 2)
        assert sorted(p.oid for p in hits) == [1, 4, 7, 10]

    def test_range_probe_sorted_by_count(self):
        _, table, manager, index = build_indexed_manager()
        for i in range(6):
            table.insert({"name": f"bird{i}"})
        for oid in range(1, 7):
            annotate(manager, oid, DISEASE, n=oid)
        got = list(index.lookup_range("Disease", 2, 5))
        assert [count for count, _ in got] == [2, 3, 4, 5]
        assert [p.oid for _, p in got] == [2, 3, 4, 5]

    def test_open_range_uses_probe_defaults(self):
        _, table, manager, index = build_indexed_manager()
        for i in range(4):
            table.insert({"name": f"bird{i}"})
        for oid in range(1, 5):
            annotate(manager, oid, DISEASE, n=oid)
        got = [c for c, _ in index.lookup_range("Disease", 3, None)]
        assert got == [3, 4]

    def test_exclusive_range(self):
        _, table, manager, index = build_indexed_manager()
        for i in range(5):
            table.insert({"name": f"bird{i}"})
        for oid in range(1, 6):
            annotate(manager, oid, DISEASE, n=oid)
        got = [c for c, _ in index.lookup_range("Disease", 1, 5,
                                                lo_inclusive=False,
                                                hi_inclusive=False)]
        assert got == [2, 3, 4]

    def test_tuple_delete_removes_keys(self):
        _, table, manager, index = build_indexed_manager()
        table.insert({"name": "bird"})
        annotate(manager, 1, DISEASE)
        manager.on_tuple_delete("birds", 1)
        assert len(index) == 0

    def test_annotation_delete_rekeys(self):
        _, table, manager, index = build_indexed_manager()
        table.insert({"name": "bird"})
        ann = manager.add_annotation(DISEASE, [AnnotationTarget("birds", 1)])
        annotate(manager, 1, DISEASE)
        manager.delete_annotation(ann.ann_id)
        assert [p.oid for p in index.lookup_eq("Disease", 1)] == [1]

    def test_bulk_build_matches_incremental(self):
        pool, table, manager, index = build_indexed_manager()
        manager.remove_observer("birds", index)
        for i in range(8):
            table.insert({"name": f"bird{i}"})
        for oid in range(1, 9):
            annotate(manager, oid, DISEASE, n=(oid % 4) + 1)
        assert len(index) == 0
        inserted = index.bulk_build(manager.storage_for("birds"))
        assert inserted == 8 * 4
        assert sorted(p.oid for p in index.lookup_eq("Disease", 2)) == [1, 5]

    def test_width_rebuild_on_overflow(self):
        _, table, manager, index = build_indexed_manager()
        table.insert({"name": "bird"})
        index.width = 1  # force an early overflow for the test
        annotate(manager, 1, DISEASE, n=12)
        assert index.rebuilds >= 1
        assert index.width >= 2
        assert [p.oid for p in index.lookup_eq("Disease", 12)] == [1]
        # all four labels remain probe-able after the rebuild
        assert [p.oid for p in index.lookup_eq("Anatomy", 0)] == [1]

    def test_multiple_tuples_same_count_all_found(self):
        _, table, manager, index = build_indexed_manager()
        for i in range(5):
            table.insert({"name": f"b{i}"})
        for oid in range(1, 6):
            annotate(manager, oid, DISEASE, n=3)
        assert len(index.lookup_eq("Disease", 3)) == 5


class TestBaselineIndex:
    def build(self):
        pool = BufferPool(DiskManager(), capacity=2048)
        schema = Schema([Column("name", ValueType.TEXT)])
        table = Table("birds", schema, pool)
        manager = SummaryManager(pool)
        manager.create_classifier_instance(
            "ClassBird1", ["Disease", "Anatomy", "Behavior", "Other"], SEED
        )
        manager.link("birds", "ClassBird1")
        index = BaselineClassifierIndex(table, "ClassBird1", pool)
        manager.add_observer("birds", index)
        return table, manager, index

    def test_normalized_rows_created(self):
        table, manager, index = self.build()
        table.insert({"name": "bird"})
        annotate(manager, 1, DISEASE)
        assert len(index.norm) == 4

    def test_lookup_eq(self):
        table, manager, index = self.build()
        for i in range(6):
            table.insert({"name": f"b{i}"})
        for oid in range(1, 7):
            annotate(manager, oid, DISEASE, n=oid % 2 + 1)
        assert sorted(index.lookup_eq("Disease", 2)) == [1, 3, 5]

    def test_lookup_range_sorted(self):
        table, manager, index = self.build()
        for i in range(5):
            table.insert({"name": f"b{i}"})
        for oid in range(1, 6):
            annotate(manager, oid, DISEASE, n=oid)
        got = list(index.lookup_range("Disease", 2, 4))
        assert [c for c, _ in got] == [2, 3, 4]

    def test_update_keeps_rows_normalized(self):
        table, manager, index = self.build()
        table.insert({"name": "bird"})
        annotate(manager, 1, DISEASE, n=3)
        assert len(index.norm) == 4  # still one row per label
        assert index.lookup_eq("Disease", 3) == [1]

    def test_tuple_delete_drops_rows(self):
        table, manager, index = self.build()
        table.insert({"name": "bird"})
        annotate(manager, 1, DISEASE)
        manager.on_tuple_delete("birds", 1)
        assert len(index.norm) == 0

    def test_reconstruct_object_counts(self):
        table, manager, index = self.build()
        table.insert({"name": "bird"})
        annotate(manager, 1, DISEASE, n=2)
        annotate(manager, 1, ANATOMY)
        obj = index.reconstruct(1)
        assert obj is not None
        assert obj.get_label_value("Disease") == 2
        assert obj.get_label_value("Anatomy") == 1

    def test_reconstruct_missing_returns_none(self):
        _, __, index = self.build()
        assert index.reconstruct(404) is None

    def test_storage_overhead_exceeds_summary_btree(self):
        # Figure 7: the baseline replicates the summary objects, so its
        # footprint must exceed the Summary-BTree scheme's index-only cost.
        pool = BufferPool(DiskManager(), capacity=4096)
        schema = Schema([Column("name", ValueType.TEXT)])
        table = Table("birds", schema, pool)
        manager = SummaryManager(pool)
        manager.create_classifier_instance(
            "ClassBird1", ["Disease", "Anatomy", "Behavior", "Other"], SEED
        )
        manager.link("birds", "ClassBird1")
        sb = SummaryBTreeIndex(table, manager.storage_for("birds"), "ClassBird1")
        bl = BaselineClassifierIndex(table, "ClassBird1", pool)
        manager.add_observer("birds", sb)
        manager.add_observer("birds", bl)
        for i in range(200):
            table.insert({"name": f"b{i}"})
        for oid in range(1, 201):
            annotate(manager, oid, DISEASE)
        assert bl.pages_used() > sb.pages_used()


class TestBothSchemesAgree:
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=12))
    @settings(max_examples=15, deadline=None)
    def test_property_eq_lookups_identical(self, per_tuple):
        pool = BufferPool(DiskManager(), capacity=4096)
        schema = Schema([Column("name", ValueType.TEXT)])
        table = Table("birds", schema, pool)
        manager = SummaryManager(pool)
        manager.create_classifier_instance(
            "ClassBird1", ["Disease", "Anatomy", "Behavior", "Other"], SEED
        )
        manager.link("birds", "ClassBird1")
        sb = SummaryBTreeIndex(table, manager.storage_for("birds"), "ClassBird1")
        bl = BaselineClassifierIndex(table, "ClassBird1", pool)
        manager.add_observer("birds", sb)
        manager.add_observer("birds", bl)
        for i, n in enumerate(per_tuple):
            table.insert({"name": f"b{i}"})
            annotate(manager, i + 1, DISEASE, n=n)
        for count in range(0, 7):
            sb_hits = sorted(p.oid for p in sb.lookup_eq("Disease", count))
            bl_hits = sorted(bl.lookup_eq("Disease", count))
            assert sb_hits == bl_hits
