"""Readers share, writers copy: the immutable-summary contract.

Summary objects decoded from storage freeze their containers, so the
cache can hand one object to every reader and no reader can change it:

* every in-place mutator raises on an object from a cache hit, a cold
  ``get`` and ``storage.scan()`` — Classifier, Snippet and Cluster alike;
* ``get_for_update`` is the one writable read: its copies mutate freely,
  keep their ``obj_id`` and never reach the cache;
* stored rows do not depend on cache state (the ObjID a write stores is
  the row's own, not a fresh one minted by a cached copy);
* after a warm run of every operator family, each live cache entry equals
  a fresh decode of its heap row (``assert_cache_matches_heap``, which the
  stateful DML machines also check after every step).
"""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro.bench.queries import example4_query
from repro.catalog.schema import Column
from repro.core.database import Database
from repro.query.tuples import QTuple
from repro.storage.record import ValueType
from repro.summaries import objects as objects_module
from repro.summaries.functions import SummarySet
from repro.summaries.objects import (
    ClassifierObject,
    ClusterObject,
    SnippetObject,
)
from repro.workload.generator import WorkloadConfig, build_database
from tests.test_resilience import OPERATOR_QUERIES

LABELS = ["alpha", "beta"]
TEXTS = [
    "apple alpha fruit orchard with a long tail of words for the snippet",
    "bear beta animal forest and another long tail of words to summarize",
    "apple alpha orchard",
]


def build(cache_bytes: int = 1 << 20) -> Database:
    db = Database(cache_bytes=cache_bytes)
    db.create_table("t", [Column("a", ValueType.TEXT),
                          Column("b", ValueType.INT)])
    db.create_classifier_instance(
        "C", LABELS, [(TEXTS[0], "alpha"), (TEXTS[1], "beta")]
    )
    db.sql("Alter Table t Add C")
    db.create_snippet_instance("S", min_chars=20, max_chars=40)
    db.sql("Alter Table t Add S")
    db.create_cluster_instance("K")
    db.sql("Alter Table t Add K")
    for i in range(4):
        oid = db.insert("t", [f"r{i}", i])
        for text in TEXTS:
            db.add_annotation(text, table="t", oid=oid)
    db.add_annotation(TEXTS[0], table="t", oid=1, columns=("a",))
    return db


def cold_get(db: Database, oid: int):
    db.manager.cache.clear()
    return db.manager.storage_for("t").get(oid)


def cache_hit(db: Database, oid: int):
    storage = db.manager.storage_for("t")
    storage.get(oid)
    hits = db.manager.cache.hits
    objects = storage.get(oid)
    assert db.manager.cache.hits == hits + 1
    return objects


def scanned(db: Database, oid: int):
    return dict(db.manager.storage_for("t").scan())[oid]


READS = {"cache hit": cache_hit, "cold get": cold_get, "scan": scanned}


def mutators(obj):
    """Every in-place edit a caller could try on ``obj``."""
    edits = [
        lambda: obj.remove_annotations({1}),
        lambda: obj.ann_targets.__setitem__(99, ()),
        lambda: obj.ann_targets.pop(1),
        lambda: obj.ann_targets.update({99: ()}),
        lambda: obj.ann_targets.clear(),
    ]
    if isinstance(obj, ClassifierObject):
        edits += [
            lambda: obj.add_annotation(99, "alpha", ()),
            lambda: obj.label_elements.__setitem__("alpha", {99}),
            lambda: obj.label_elements.pop("alpha"),
            lambda: obj.label_elements["alpha"].add(99),
        ]
    elif isinstance(obj, SnippetObject):
        edits += [
            lambda: obj.add_annotation(99, (), "a new snippet"),
            lambda: obj.snippets.__setitem__(99, "x"),
            lambda: obj.snippets.pop(next(iter(obj.snippets))),
        ]
    else:
        assert isinstance(obj, ClusterObject)
        group = obj.groups[0]
        edits += [
            lambda: group.members.add(99),
            lambda: group.members.discard(next(iter(group.members))),
            lambda: group.excerpts.__setitem__(99, "x"),
            lambda: setattr(group, "rep_ann_id", 99),
        ]
    return edits


@pytest.fixture(scope="module")
def db():
    return build()


class TestReadsAreFrozen:
    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize("name", ["C", "S", "K"])
    def test_every_mutator_raises(self, db, read, name):
        objects = READS[read](db, 1)
        obj = objects[name]
        before = obj.to_dict()
        for edit in mutators(obj):
            with pytest.raises((TypeError, AttributeError)):
                edit()
        assert obj.to_dict() == before
        with pytest.raises(TypeError):
            objects[name] = None
        # ...and what the cache serves next is untouched.
        assert db.manager.storage_for("t").get(1)[name].to_dict() == before

    def test_two_hits_return_the_same_objects(self, db):
        first = cache_hit(db, 2)
        second = db.manager.storage_for("t").get(2)
        assert second is first
        assert {n: o.obj_id for n, o in second.items()} == \
            {n: o.obj_id for n, o in first.items()}

    def test_frozen_objects_pickle(self, db):
        objects = cache_hit(db, 1)
        back = pickle.loads(pickle.dumps(objects))
        assert {n: o.to_dict() for n, o in back.items()} == \
            {n: o.to_dict() for n, o in objects.items()}
        with pytest.raises(TypeError):
            back["C"].add_annotation(99, "alpha", ())

    def test_query_algebra_leaves_cached_objects_alone(self, db):
        stored = cache_hit(db, 1)
        before = {n: o.to_dict() for n, o in stored.items()}
        sset = db.manager.summary_set_for("t", 1)
        projected = sset.project_to_columns({"b"})  # drops the cell one
        assert len(projected.get_summary_object("C").all_annotation_ids()) \
            == len(stored["C"].all_annotation_ids()) - 1
        row = QTuple(["r.a"], ["x"], {"r": sset}, {"r": ("t", 1)})
        other = QTuple(["s.a"], ["y"],
                       {"s": db.manager.summary_set_for("t", 2)},
                       {"s": ("t", 2)})
        QTuple.join(row, other).merged_summary_set()
        assert {n: o.to_dict() for n, o in stored.items()} == before
        # An object no projection changes is the cached object itself.
        untouched = SummarySet(stored).project_to_columns({"a", "b"})
        assert untouched.get_summary_object("S") is stored["S"]


class TestGetForUpdate:
    @pytest.mark.parametrize("warm", [True, False])
    def test_copies_mutate_freely_and_never_reach_the_cache(self, warm):
        db = build()
        storage = db.manager.storage_for("t")
        if warm:
            storage.get(1)
        shared = storage.get(1)
        before = {n: o.to_dict() for n, o in shared.items()}
        mine = storage.get_for_update(1)
        assert {n: o.obj_id for n, o in mine.items()} == \
            {n: o.obj_id for n, o in shared.items()}
        assert {n: o.stored_size for n, o in mine.items()} == \
            {n: o.stored_size for n, o in shared.items()}
        mine["C"].add_annotation(99, "alpha", ())
        mine["C"].remove_annotations({1})
        mine["S"].add_annotation(99, (), "a new snippet")
        mine["K"].groups[0].members.add(99)
        mine["K"].remove_annotations({2})
        mine["X"] = None
        assert storage.get(1) is shared
        assert {n: o.to_dict() for n, o in storage.get(1).items()} == before

    def test_writes_keep_the_stored_obj_id(self):
        db = build()
        storage = db.manager.storage_for("t")
        ids = {n: o.obj_id for n, o in storage.get(1).items()}
        db.add_annotation(TEXTS[1], table="t", oid=1)
        assert {n: o.obj_id for n, o in storage.get(1).items()} == ids


def summary_rows(cache_bytes: int, monkeypatch) -> dict[int, bytes]:
    """Raw summary-row bytes after one fixed op sequence whose reads warm
    (or, at size 0, bypass) the cache between writes."""
    monkeypatch.setattr(objects_module, "_obj_id_counter", itertools.count(1))
    db = build(cache_bytes)
    storage = db.manager.storage_for("t")
    queries = [
        "Select a From t r",
        "Select Distinct b From t r",
        "Select r.a, s.a From t r, t s Where r.b = s.b",
    ]
    for step in range(3):
        for sql in queries:
            db.sql(sql)
        for oid in range(1, 5):
            storage.get(oid)
        ann = db.add_annotation(TEXTS[step % 3], table="t", oid=step + 1)
        db.sql(queries[0])
        if step == 1:
            db.delete_annotation(ann.ann_id)
    rows = {}
    for oid in range(1, 5):
        rows[oid] = storage.heap.read(storage._rid_for(oid))
    return rows


def test_stored_rows_do_not_depend_on_cache_state(monkeypatch):
    warm = summary_rows(1 << 20, monkeypatch)
    cold = summary_rows(0, monkeypatch)
    assert warm == cold  # obj_id included: the bytes themselves


# -- cache ≡ heap oracle --------------------------------------------------------


def assert_cache_matches_heap(db: Database) -> int:
    """Every entry of the summary cache equals a fresh decode of its heap
    row, ``obj_id`` included (a negative entry: no row).  Returns how
    many entries were checked."""
    cache = db.manager.cache
    checked = 0
    for (table, oid), (value, _size) in list(cache._entries.items()):
        storage = db.manager.storage_for(table)
        rid = storage._rid_for(oid)
        if value is None:
            assert rid is None, f"{table}/{oid}: negative entry, live row"
        else:
            fresh = storage._decode(storage.heap.read(rid))
            assert {n: o.to_dict() for n, o in value.items()} == \
                {n: o.to_dict() for n, o in fresh.items()}, f"{table}/{oid}"
        checked += 1
    return checked


def test_warm_cache_matches_heap_after_every_operator():
    db = build_database(WorkloadConfig(
        num_birds=30, annotations_per_tuple=8, indexes="both",
        cell_fraction=0.3, with_cluster_instance=True, seed=6,
    ))
    assert db.manager.cache.enabled
    cell = "Select common_name From birds r"  # drops cell annotations
    statements = OPERATOR_QUERIES + [
        example4_query(0),
        "Select family, count(*) From birds r Group By family",
        "Select Distinct family From birds r",
        cell,
        ("Select common_name From birds r Order By "
         "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')"),
    ]
    for _ in range(2):  # the second pass runs on a warm cache
        for sql in statements:
            db.sql(sql)
    db.options.force_sort = "disk"
    db.options.mem_sort_threshold = 0
    try:
        spilled = db.sql(statements[-1])
    finally:
        db.options.force_sort = None
    assert len(spilled) == 30
    assert db.manager.cache.hits > 0
    assert assert_cache_matches_heap(db) > 0
