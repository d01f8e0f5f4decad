"""Staleness semantics of background summary maintenance.

The load-bearing property: **deferred maintenance converges to exactly the
state synchronous maintenance produces** — same storage rows byte-for-byte
(modulo the process-global ``obj_id`` counter), same pending-set emptiness —
no matter how the writes interleave with drains.  A Hypothesis property
drives random add/delete programs through a sync and a deferred engine and
compares canonicalized storage after the drain; crash tests prove the
pending-work set is rebuilt from the WAL so no tuple is ever permanently
stale.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.annotations.annotation import AnnotationTarget  # noqa: E402
from repro.catalog.schema import Column  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.storage.record import ValueType  # noqa: E402
from repro.summaries.background import PendingSummaryWork  # noqa: E402
from repro.wal.device import MemoryWALDevice  # noqa: E402
from repro.wal.recovery import replay  # noqa: E402

SEED = [
    ("apple alpha fruit orchard", "alpha"),
    ("bear beta animal forest", "beta"),
]
TEXTS = [
    "apple alpha fruit",
    "orchard apple alpha",
    "bear beta forest",
    "animal bear beta",
    "a note that is long enough to earn a snippet from the extractor "
    "because it keeps going well past the configured minimum length",
]


def build_db(deferred: bool) -> Database:
    db = Database(buffer_pages=256, summary_async=deferred)
    db.create_table("t", [Column("name", ValueType.TEXT)])
    db.create_classifier_instance("C", ["alpha", "beta"], SEED)
    db.create_snippet_instance("S", min_chars=60, max_chars=40)
    db.manager.link("t", "C")
    db.manager.link("t", "S")
    for i in range(4):
        db.insert("t", {"name": f"r{i}"})
    return db


def canonical_state(db: Database, table: str = "t") -> dict:
    """Storage rows as comparable dicts.  ``obj_id`` is a process-global
    counter (two *sync* runs already differ on it), so it is stripped."""
    state: dict = {}
    for oid, objects in db.manager.storage_for(table).scan():
        row = {}
        for name, obj in sorted(objects.items()):
            d = obj.to_dict()
            d.pop("obj_id", None)
            row[name] = d
        state[oid] = row
    return state


#: A program: each step either adds an annotation (oid, text) or deletes
#: the k-th live annotation.
_STEP = st.one_of(
    st.tuples(st.just("add"), st.integers(min_value=1, max_value=4),
              st.integers(min_value=0, max_value=len(TEXTS) - 1)),
    st.tuples(st.just("del"), st.integers(min_value=0, max_value=30),
              st.just(0)),
)


def run_program(db: Database, program) -> None:
    live: list[int] = []
    for op, a, b in program:
        if op == "add":
            ann = db.add_annotation(TEXTS[b], table="t", oid=a)
            live.append(ann.ann_id)
        elif live:
            db.delete_annotation(live.pop(a % len(live)))


class TestConvergence:
    # Example counts scale with the Hypothesis profile: dev runs 25 and
    # 10, the nightly ci-slow profile 300 and 120.
    @settings(max_examples=settings.default.max_examples, deadline=None)
    @given(program=st.lists(_STEP, min_size=1, max_size=14))
    def test_deferred_converges_to_sync(self, program):
        sync_db = build_db(False)
        run_program(sync_db, program)
        deferred_db = build_db(True)
        try:
            run_program(deferred_db, program)
            deferred_db.drain_summaries()
            assert canonical_state(deferred_db) == canonical_state(sync_db)
            assert not deferred_db.manager.has_pending()
        finally:
            deferred_db.stop_maintenance()

    @settings(max_examples=settings.default.max_examples * 2 // 5,
              deadline=None)
    @given(program=st.lists(
        st.tuples(st.just("add"), st.integers(min_value=1, max_value=3),
                  st.integers(min_value=0, max_value=len(TEXTS) - 1)),
        min_size=1, max_size=10,
    ))
    def test_deferred_converges_with_clusters_add_only(self, program):
        """Clusters included (add-only: incremental removal is
        path-dependent, so regeneration defines the canonical grouping
        for deletes — adds must still match sync exactly)."""
        def build(deferred):
            db = Database(buffer_pages=256, summary_async=deferred)
            db.create_table("t", [Column("name", ValueType.TEXT)])
            db.create_classifier_instance("C", ["alpha", "beta"], SEED)
            db.create_cluster_instance("G")
            db.manager.link("t", "C")
            db.manager.link("t", "G")
            for i in range(3):
                db.insert("t", {"name": f"r{i}"})
            return db

        sync_db = build(False)
        run_program(sync_db, program)
        deferred_db = build(True)
        try:
            run_program(deferred_db, program)
            deferred_db.drain_summaries()
            assert canonical_state(deferred_db) == canonical_state(sync_db)
        finally:
            deferred_db.stop_maintenance()

    def test_drain_order_does_not_matter(self):
        one = build_db(True)
        batched = build_db(True)
        try:
            for db in (one, batched):
                db.manager.maint_wake = None  # keep the worker out of it
                for oid in (1, 2, 3):
                    db.add_annotation(TEXTS[0], table="t", oid=oid)
                    db.add_annotation(TEXTS[2], table="t", oid=oid)
            while one.manager.drain_pending(limit=1):
                pass
            batched.drain_summaries()
            assert canonical_state(one) == canonical_state(batched)
        finally:
            one.stop_maintenance()
            batched.stop_maintenance()


class TestStalenessSurfacing:
    def test_results_carry_summary_status(self):
        db = build_db(True)
        try:
            db.manager.maint_wake = None  # deterministic staleness
            db.add_annotation(TEXTS[0], table="t", oid=1)
            result = db.sql("Select name From t Order By name")
            assert result.summary_status is not None
            assert result.summary_status[0] == "stale"
            assert result.summary_status[1:] == ["fresh"] * 3
            db.drain_summaries()
            result = db.sql("Select name From t Order By name")
            # Nothing pending: the field is omitted entirely.
            assert result.summary_status is None
        finally:
            db.stop_maintenance()

    def test_sync_mode_never_reports_status(self):
        db = build_db(False)
        db.add_annotation(TEXTS[0], table="t", oid=1)
        assert db.sql("Select name From t").summary_status is None

    def test_stale_rows_answer_from_last_generation(self):
        db = build_db(True)
        try:
            db.manager.maint_wake = None
            db.add_annotation(TEXTS[0], table="t", oid=1)
            db.drain_summaries()
            db.add_annotation(TEXTS[2], table="t", oid=1)  # stale again
            sset = db.manager.summary_set_for("t", 1)
            # Graceful degradation: the last-generated object (one alpha),
            # not a blocking regeneration and not an error.
            assert sset.get_summary_object("C").get_label_value("alpha") == 1
            assert db.manager.summary_status("t", 1) == "stale"
        finally:
            db.stop_maintenance()

    def test_zoom_in_reports_freshness(self):
        db = build_db(True)
        try:
            db.manager.maint_wake = None
            db.add_annotation(TEXTS[0], table="t", oid=1)
            db.drain_summaries()
            db.add_annotation(TEXTS[1], table="t", oid=1)
            stale = db.zoom_in("t", 1, "C", "alpha")
            assert stale.summary_status == "stale"
            # Stale zooms answer from the last-generated objects.
            assert list(stale) == [TEXTS[0]]
            db.drain_summaries()
            fresh = db.zoom_in("t", 1, "C", "alpha")
            assert fresh.summary_status == "fresh"
            assert sorted(fresh) == sorted([TEXTS[0], TEXTS[1]])
        finally:
            db.stop_maintenance()

    def test_zoom_in_after_a_deferred_delete_skips_the_deleted(self):
        """The stale row still lists a deleted annotation; zoom-in reads
        the texts of the annotations still attached, not every listed
        id (which raised ``RecordNotFoundError``)."""
        db = build_db(True)
        try:
            db.manager.maint_wake = None
            first = db.add_annotation(TEXTS[0], table="t", oid=1)
            db.add_annotation(TEXTS[1], table="t", oid=1)
            db.drain_summaries()
            db.delete_annotation(first.ann_id)
            stale = db.zoom_in("t", 1, "C", "alpha")
            assert stale.summary_status == "stale"
            assert list(stale) == [TEXTS[1]]
            assert list(db.zoom_in("t", 1, "C")) == [TEXTS[1]]
            assert list(db.zoom_in("t", 1, "C", 0)) == [TEXTS[1]]
            db.drain_summaries()
            assert list(db.zoom_in("t", 1, "C", "alpha")) == [TEXTS[1]]
        finally:
            db.stop_maintenance()

    def test_backlog_gauges(self):
        db = build_db(True)
        try:
            db.manager.maint_wake = None
            db.add_annotation(TEXTS[0], table="t", oid=1)
            db.add_annotation(TEXTS[2], table="t", oid=2)
            snap = db.metrics_snapshot()
            assert snap["maint.backlog"] == 2
            assert snap["maint.lag_seconds"] >= 0.0
            db.drain_summaries()
            snap = db.metrics_snapshot()
            assert snap["maint.backlog"] == 0
            assert snap["maint.regen"] == 2
        finally:
            db.stop_maintenance()


class TestWorker:
    def test_worker_drains_in_background(self):
        import time

        db = build_db(True)
        try:
            db.add_annotation(TEXTS[0], table="t", oid=1)
            deadline = time.monotonic() + 5.0
            while db.manager.has_pending() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not db.manager.has_pending(), "worker never drained"
            assert db.manager.summary_status("t", 1) == "fresh"
            sset = db.manager.summary_set_for("t", 1)
            assert sset.get_summary_object("C").get_label_value("alpha") == 1
        finally:
            db.stop_maintenance()

    def test_tuple_reads_stale_until_its_row_is_written(self, monkeypatch):
        """A drain keeps its tuple pending while it regenerates the row:
        a reader in between sees ``"stale"`` and the old (here: no) row,
        never ``"fresh"`` beside a row not yet written."""
        import threading

        db = build_db(True)
        db.stop_maintenance()  # drain on a thread of this test instead
        db.add_annotation(TEXTS[0], table="t", oid=1)
        manager = db.manager
        entered, release = threading.Event(), threading.Event()
        regenerate = manager.regenerate_tuple

        def paused(table, oid):
            entered.set()
            assert release.wait(10)
            regenerate(table, oid)

        monkeypatch.setattr(manager, "regenerate_tuple", paused)
        drain = threading.Thread(target=manager.drain_pending)
        drain.start()
        try:
            assert entered.wait(10)
            assert manager.has_pending()
            assert manager.summary_status("t", 1) == "stale"
            sset = manager.summary_set_for("t", 1)
            assert sset.get_summary_object("C") is None
        finally:
            release.set()
            drain.join(10)
        assert not manager.has_pending()
        assert manager.summary_status("t", 1) == "fresh"
        sset = manager.summary_set_for("t", 1)
        assert sset.get_summary_object("C").get_label_value("alpha") == 1

    def test_failed_regeneration_stays_pending_at_the_back(self, monkeypatch):
        db = build_db(True)
        db.stop_maintenance()
        db.add_annotation(TEXTS[0], table="t", oid=1)
        db.add_annotation(TEXTS[2], table="t", oid=2)
        manager = db.manager

        def failing(table, oid):
            raise RuntimeError("regeneration failed")

        monkeypatch.setattr(manager, "regenerate_tuple", failing)
        with pytest.raises(RuntimeError):
            manager.drain_pending()
        assert list(manager.pending.snapshot()) == [("t", 2), ("t", 1)]
        monkeypatch.undo()
        assert manager.drain_pending() == 2
        assert not manager.has_pending()

    def test_stop_maintenance_drains_inline(self):
        db = build_db(True)
        db.manager.maint_wake = None
        db.add_annotation(TEXTS[0], table="t", oid=1)
        db.stop_maintenance()
        assert not db.manager.has_pending()

    def test_save_drains_first(self, tmp_path):
        db = build_db(True)
        try:
            db.manager.maint_wake = None
            db.add_annotation(TEXTS[0], table="t", oid=1)
            db.save(tmp_path / "img")
            assert not db.manager.has_pending()
            loaded = Database.load(tmp_path / "img")
            sset = loaded.manager.summary_set_for("t", 1)
            assert sset.get_summary_object("C").get_label_value("alpha") == 1
        finally:
            db.stop_maintenance()


class TestCrashRecovery:
    def test_pending_set_rebuilt_from_wal(self):
        """A crash with staleness outstanding: replaying the WAL into a
        deferred-mode engine re-marks every affected tuple pending, and a
        drain converges to the sync oracle — no tuple is permanently
        stale."""
        db = build_db(True)
        device = db.attach_wal().device
        db.manager.maint_wake = None
        db.add_annotation(TEXTS[0], table="t", oid=1)
        db.add_annotation(TEXTS[2], table="t", oid=2)
        assert db.manager.pending_count() == 2  # crash strikes here

        recovered = build_db(True)
        recovered.manager.maint_wake = None
        replay(recovered, device)
        # Maintenance work survived the crash as replayed staleness...
        assert recovered.manager.pending_count() == 2
        recovered.drain_summaries()
        # ...and converges to exactly the sync-mode oracle.
        oracle = build_db(False)
        oracle.add_annotation(TEXTS[0], table="t", oid=1)
        oracle.add_annotation(TEXTS[2], table="t", oid=2)
        assert canonical_state(recovered) == canonical_state(oracle)
        assert not recovered.manager.has_pending()

    def test_bulk_load_is_durable(self):
        """Satellite regression: bulk annotation loads emit a WAL record.
        Pre-fix, `manager.add_annotations_bulk` bypassed the log and a
        crash silently lost the whole batch."""
        db = build_db(False)
        device = db.attach_wal().device
        annotations = db.add_annotations_bulk([
            (TEXTS[0], [AnnotationTarget("t", 1)]),
            (TEXTS[2], [AnnotationTarget("t", 2)]),
        ])

        recovered = build_db(False)
        replay(recovered, device)
        for ann in annotations:
            got = recovered.manager.annotations.get(ann.ann_id)
            assert got.text == ann.text  # identical forced identities
        sset = recovered.manager.summary_set_for("t", 1)
        assert sset.get_summary_object("C").get_label_value("alpha") == 1

    def test_bulk_ids_sequential_across_replay(self):
        db = build_db(False)
        device = db.attach_wal().device
        db.add_annotation(TEXTS[0], table="t", oid=1)
        batch = db.add_annotations_bulk([
            (TEXTS[1], [AnnotationTarget("t", 1)]),
            (TEXTS[2], [AnnotationTarget("t", 2)]),
        ])
        after = db.add_annotation(TEXTS[3], table="t", oid=3)
        assert [a.ann_id for a in batch] == [2, 3]
        assert after.ann_id == 4

        recovered = build_db(False)
        replay(recovered, device)
        assert recovered.manager.annotations.next_id == 5


class TestPendingSetSerialization:
    def test_pickle_roundtrip_keeps_entries(self):
        import pickle

        pending = PendingSummaryWork()
        pending.mark("t", 1)
        pending.mark("t", 2)
        clone = pickle.loads(pickle.dumps(pending))
        assert len(clone) == 2
        assert ("t", 1) in clone and ("t", 2) in clone

    def test_older_image_state_loads_its_keys(self):
        """Older images pickled the pending set as ``{key: (generation,
        epoch)}``; its keys load, in order."""
        clone = PendingSummaryWork.__new__(PendingSummaryWork)
        clone.__setstate__({"entries": {("t", 2): (3, 7), ("a", 1): (0, 0)}})
        assert len(clone) == 2
        assert list(clone.snapshot()) == [("t", 2), ("a", 1)]

    def test_mark_keeps_original_enqueue_time(self):
        pending = PendingSummaryWork()
        assert pending.mark("t", 1)
        first = pending.snapshot()[("t", 1)].enqueued_at
        assert not pending.mark("t", 1)  # already pending: no-op
        assert pending.snapshot()[("t", 1)].enqueued_at == first

    def test_fifo_pop(self):
        """``oldest`` leaves its tuple pending until it is discarded;
        ``requeue`` moves one to the back."""
        pending = PendingSummaryWork()
        pending.mark("a", 1)
        pending.mark("b", 2)
        pending.mark("a", 3)
        assert pending.oldest() == ("a", 1)
        assert pending.oldest() == ("a", 1)
        pending.requeue(("a", 1))
        assert list(pending.snapshot()) == [("b", 2), ("a", 3), ("a", 1)]
        for key in [("b", 2), ("a", 3), ("a", 1)]:
            assert pending.oldest() == key
            pending.discard(*key)
        assert pending.oldest() is None

    def test_deferred_survives_save_load(self, tmp_path):
        """save() drains, so images never carry staleness — but a
        pending set pickled mid-flight (e.g. inside a worker image)
        still round-trips."""
        db = build_db(True)
        try:
            db.manager.maint_wake = None
            db.add_annotation(TEXTS[0], table="t", oid=1)
            db.save(tmp_path / "img")  # drains first
            loaded = Database.load(tmp_path / "img")
            assert not loaded.manager.has_pending()
            # The loaded engine keeps deferring and draining correctly.
            loaded.manager.maint_wake = None
            loaded.add_annotation(TEXTS[2], table="t", oid=2)
            assert loaded.manager.summary_status("t", 2) == "stale"
            loaded.drain_summaries()
            assert loaded.manager.summary_status("t", 2) == "fresh"
        finally:
            db.stop_maintenance()


class TestTupleDeleteInteraction:
    def test_deleted_tuple_never_regenerated(self):
        db = build_db(True)
        try:
            db.manager.maint_wake = None
            db.add_annotation(TEXTS[0], table="t", oid=1)
            db.delete_tuple("t", 1)
            assert not db.manager.has_pending()  # discarded with the tuple
            db.drain_summaries()
            assert db.manager.storage_for("t").get(1) is None
        finally:
            db.stop_maintenance()

    def test_stale_then_all_annotations_deleted(self):
        """Deferred writes then deletes leaving zero annotations: the
        drain must drop the row (satellite-3 semantics through the regen
        path)."""
        db = build_db(True)
        try:
            db.manager.maint_wake = None
            ann = db.add_annotation(TEXTS[0], table="t", oid=1)
            db.drain_summaries()
            assert db.manager.storage_for("t").get(1) is not None
            db.delete_annotation(ann.ann_id)
            db.drain_summaries()
            assert db.manager.storage_for("t").get(1) is None
        finally:
            db.stop_maintenance()
