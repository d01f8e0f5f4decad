"""The batch summary fetch equals one read per OID.

:meth:`SummaryManager.summary_sets_for` resolves a batch of OIDs with one
summary-cache pass and skips ``project_to_columns`` when the table never
had a cell annotation.  The reference here reads each OID on its own —
``summary_set_for`` without a projection, then ``project_to_columns``
always — and the batch call must give the same objects for row-only and
cell-annotated tables, for a Hypothesis draw of mixed row, cell and
multi-column targets and retained sets, and after a save/load round trip
and a WAL recovery, which must both keep ``has_cell_annotations`` so the
skip stays exact.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Column, Database, ValueType
from repro.annotations.annotation import AnnotationTarget
from repro.summaries.functions import SummarySet
from repro.wal.device import MemoryWALDevice

SEEDS = [
    ("flu virus infection outbreak", "Disease"),
    ("wing beak plumage anatomy", "Anatomy"),
]
TEXTS = [
    "flu virus infection outbreak sighted",
    "wing beak plumage anatomy measured",
    "survey checklist volunteer note",
]
COLUMNS = ("a", "b", "c")
ROWS = 6
#: the OIDs ``make_db`` assigns.
OIDS = range(1, ROWS + 1)


def make_db(cache_bytes: int | None = None) -> Database:
    db = Database()
    if cache_bytes is not None:
        db.manager.cache.resize(cache_bytes)
    db.create_table("t", [Column(c, ValueType.TEXT) for c in COLUMNS])
    db.create_classifier_instance("C", ["Disease", "Anatomy"], SEEDS)
    db.create_snippet_instance("S", min_chars=10, max_chars=40)
    db.link_summary_instance("t", "C")
    db.link_summary_instance("t", "S")
    for i in range(ROWS):
        db.insert("t", {c: f"{c}{i}" for c in COLUMNS})
    return db


def reference(db: Database, oids, retained) -> list[SummarySet]:
    out = []
    for oid in oids:
        summaries = db.manager.summary_set_for("t", oid)
        if retained is not None:
            summaries = summaries.project_to_columns(retained)
        out.append(summaries)
    return out


def shape(sets: list[SummarySet]) -> list[dict]:
    """Each set's objects, less ``obj_id`` (a process-wide counter that a
    replayed object draws afresh)."""
    return [
        {obj.instance_name: {k: v for k, v in obj.to_dict().items()
                             if k != "obj_id"}
         for obj in summaries.objects()}
        for summaries in sets
    ]


def assert_equivalent(db: Database, retained_sets) -> None:
    oids = list(range(ROWS + 2))  # OIDs 0 and ROWS + 1 name no tuple
    for retained in retained_sets:
        batch = db.manager.summary_sets_for("t", oids, retained)
        assert shape(batch) == shape(reference(db, oids, retained))


RETAINED = [None, set(), {"a"}, {"b", "c"}, set(COLUMNS)]


def count_projections(monkeypatch) -> list:
    calls = []
    original = SummarySet.project_to_columns

    def counted(self, retained):
        calls.append(retained)
        return original(self, retained)

    monkeypatch.setattr(SummarySet, "project_to_columns", counted)
    return calls


class TestBatchEqualsPerOid:
    def test_row_only_table_skips_projection(self, monkeypatch):
        db = make_db()
        for i, text in enumerate(TEXTS * 2):
            db.add_annotation(text, table="t", oid=1 + i % ROWS)
        assert not db.manager.has_cell_annotations("t")
        assert_equivalent(db, RETAINED)
        calls = count_projections(monkeypatch)
        sets = db.manager.summary_sets_for("t", list(OIDS), {"a"})
        assert calls == []
        # Without a projection a hit wraps the cached mapping itself.
        stored = db.manager.storage_for("t").get(1)
        assert sets[0]._objects is stored

    def test_cell_annotated_table_projects(self, monkeypatch):
        db = make_db()
        db.add_annotation(TEXTS[0], table="t", oid=1, columns=("a",))
        db.add_annotation(TEXTS[1], table="t", oid=1)
        db.add_annotation(TEXTS[0], table="t", oid=2, columns=("b", "c"))
        assert db.manager.has_cell_annotations("t")
        assert_equivalent(db, RETAINED)
        calls = count_projections(monkeypatch)
        db.manager.summary_sets_for("t", [1, 2], {"c"})
        assert len(calls) == 2
        counts = dict(
            db.manager.summary_sets_for("t", [1], {"b"})[0]
            .get_summary_object("C").rep()
        )
        assert counts["Disease"] == 0 and counts["Anatomy"] == 1

    def test_batch_counts_the_same_cache_traffic(self):
        db = make_db()
        for oid in OIDS[:-1]:  # the last tuple stays un-annotated
            db.add_annotation(TEXTS[oid % 3], table="t", oid=oid)
        cache = db.manager.cache
        db.manager.summary_sets_for("t", list(OIDS))  # every OID cached

        def traffic(read) -> tuple:
            cache.clear()  # a cold pass
            before = (cache.hits, cache.misses, cache.invalidations)
            read()
            read()  # ... then a warm one
            after = (cache.hits, cache.misses, cache.invalidations)
            return tuple(b - a for a, b in zip(before, after))

        per_oid = traffic(lambda: [db.manager.summary_set_for("t", oid)
                                   for oid in OIDS])
        assert per_oid == (ROWS, ROWS, 0)
        assert traffic(lambda: db.manager.summary_sets_for("t", list(OIDS))) \
            == per_oid


annotations = st.lists(
    st.tuples(
        st.sampled_from(TEXTS),
        st.lists(
            st.tuples(
                st.integers(1, ROWS),
                st.sampled_from([(), (), ("a",), ("c",), ("a", "b")]),
            ),
            min_size=1, max_size=3,
        ),
    ),
    max_size=8,
)
retained_sets = st.lists(
    st.one_of(st.none(), st.sets(st.sampled_from(COLUMNS))),
    min_size=1, max_size=3,
)


@given(annotations, retained_sets, st.sampled_from([None, 0]))
def test_batch_fetch_matches_per_oid_reads(items, retained, cache_bytes):
    db = make_db(cache_bytes)
    for text, targets in items:
        db.add_annotation(text, targets=[
            AnnotationTarget("t", oid, columns) for oid, columns in targets
        ])
    cell = any(columns for _text, targets in items
               for _oid, columns in targets)
    assert db.manager.has_cell_annotations("t") == cell
    assert_equivalent(db, retained)
    # Twice: the second pass answers from the cache when it is on.
    assert_equivalent(db, retained)


def annotated(db: Database) -> None:
    db.add_annotation(TEXTS[0], table="t", oid=1, columns=("a",))
    db.add_annotation(TEXTS[1], table="t", oid=1)
    db.add_annotation(TEXTS[1], table="t", oid=3, columns=("b", "c"))


class TestCellFlagSurvives:
    def test_save_load_round_trip(self, tmp_path):
        db = make_db()
        annotated(db)
        db.save(tmp_path / "image.db")
        loaded = Database.load(tmp_path / "image.db")
        assert loaded.manager.has_cell_annotations("t")
        assert_equivalent(loaded, RETAINED)
        assert shape(loaded.manager.summary_sets_for("t", [1, 3], {"a"})) \
            == shape(db.manager.summary_sets_for("t", [1, 3], {"a"}))

    def test_row_only_flag_survives_save_load(self, tmp_path):
        db = make_db()
        db.add_annotation(TEXTS[0], table="t", oid=2)
        db.save(tmp_path / "image.db")
        loaded = Database.load(tmp_path / "image.db")
        assert not loaded.manager.has_cell_annotations("t")
        assert_equivalent(loaded, RETAINED)

    def test_wal_recovery(self, tmp_path):
        db = make_db()
        db.save(tmp_path / "image.db")
        db.attach_wal()
        annotated(db)
        log = db.wal.device.durable()
        recovered, report = Database.recover(
            tmp_path / "image.db", MemoryWALDevice.from_durable(log, 0)
        )
        assert not Database.load(tmp_path / "image.db") \
            .manager.has_cell_annotations("t")
        assert recovered.manager.has_cell_annotations("t")
        assert_equivalent(recovered, RETAINED)
        assert shape(recovered.manager.summary_sets_for("t", [1, 3], {"a"})) \
            == shape(db.manager.summary_sets_for("t", [1, 3], {"a"}))


@pytest.mark.parametrize("sql, expected", [
    ("Select a From t", 1),  # the cell annotation on a is retained
    ("Select b From t", 0),  # ... and eliminated here
    ("Select * From t", 1),
])
def test_scans_read_batches_with_projection(sql, expected):
    db = make_db()
    db.add_annotation(TEXTS[0], table="t", oid=3, columns=("a",))
    result = db.sql(sql + " Where oid = 3")
    assert dict(result.summaries(0)["C"])["Disease"] == expected
