"""The summary-set cache (``repro.cache``).

Three layers of coverage:

* unit tests of :class:`SummaryCache` itself — LRU byte bounds, the
  admission guard, precise invalidation, the write-count token that
  refuses a fill racing a write, clear/resize, stats;
* integration through the engine — read-through equality with the
  uncached path, shared immutable hits, one invalidation per storage-row
  write on every annotation mutation, readers paused between their heap
  read and their store while a writer changes the row (threaded), repair
  clearing, recover and load starting cold, EXPLAIN ANALYZE counters,
  and the ``\\cache`` REPL command;
* the hot-path regressions that ride along: summary rows that grow across
  a page boundary (and back) keep the OID index consistent even under
  buffer-pool pressure.
"""

from __future__ import annotations

import io
import pickle
import sys
import threading
import types

import pytest

from repro.annotations.annotation import AnnotationTarget
from repro.cache import DEFAULT_CACHE_BYTES, SummaryCache
from repro.catalog.schema import Column
from repro.cli import execute_line
from repro.core.database import Database, _ImageUnpickler
from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heapfile import HeapFile
from repro.storage.record import ValueType
from repro.summaries.maintenance import LegacyPendingKeys
from repro.summaries.objects import SnippetObject
from repro.summaries.storage import SummaryStorage
from repro.wal.device import MemoryWALDevice
from tests.test_summary_freeze import assert_cache_matches_heap


# ---------------------------------------------------------------------------
# Unit: the cache data structure
# ---------------------------------------------------------------------------

class TestSummaryCacheUnit:
    def test_disabled_by_default(self):
        cache = SummaryCache()
        assert not cache.enabled
        assert cache.store("t", 1, {"a": 1}, 10, cache.writes) is False
        hit, _ = cache.lookup("t", 1)
        assert not hit

    def test_store_then_hit(self):
        cache = SummaryCache(capacity_bytes=10_000)
        assert cache.store("t", 1, "value", 10, cache.writes)
        hit, value = cache.lookup("t", 1)
        assert hit and value == "value"
        assert cache.hits == 1 and cache.misses == 0

    def test_negative_entry(self):
        cache = SummaryCache(capacity_bytes=10_000)
        cache.store("t", 5, None, 0, cache.writes)
        hit, value = cache.lookup("t", 5)
        assert hit and value is None

    def test_lru_eviction_by_bytes(self):
        cache = SummaryCache(capacity_bytes=10_000, max_entry_fraction=1.0)
        # Three entries of ~4000 effective bytes each: the third insert
        # must evict the least-recently-used first entry.
        cache.store("t", 1, "a", 4000, cache.writes)
        cache.store("t", 2, "b", 4000, cache.writes)
        cache.lookup("t", 1)  # touch 1 so 2 becomes LRU
        cache.store("t", 3, "c", 4000, cache.writes)
        assert cache.evictions == 1
        assert cache.lookup("t", 2)[0] is False
        assert cache.lookup("t", 1)[0] is True
        assert cache.lookup("t", 3)[0] is True
        assert cache.used_bytes <= cache.capacity_bytes

    def test_admission_guard_rejects_oversized(self):
        cache = SummaryCache(capacity_bytes=10_000)  # max entry = 1250
        assert cache.store("t", 1, "huge", 5_000, cache.writes) is False
        assert cache.rejections == 1
        assert len(cache) == 0 and cache.used_bytes == 0

    def test_restore_replaces_entry_bytes(self):
        cache = SummaryCache(capacity_bytes=10_000, max_entry_fraction=1.0)
        cache.store("t", 1, "a", 1000, cache.writes)
        cache.store("t", 1, "b", 2000, cache.writes)
        assert len(cache) == 1
        assert cache.lookup("t", 1) == (True, "b")
        # 2000 + overhead, not 3000 + 2*overhead.
        assert cache.used_bytes < 2500

    def test_precise_invalidation(self):
        cache = SummaryCache(capacity_bytes=10_000)
        cache.store("t", 1, "a", 10, cache.writes)
        cache.store("t", 2, "b", 10, cache.writes)
        cache.invalidate("t", 1)
        cache.invalidate("t", 3)  # no entry: nothing to count
        assert cache.lookup("t", 1)[0] is False
        assert cache.lookup("t", 2)[0] is True
        assert cache.invalidations == 1

    def test_fill_under_an_old_token_is_refused(self):
        """A fill whose lookup came before a finished row write may hold
        the pre-write row: any invalidation since (one counter for every
        key) refuses it, and a fill under the current count is admitted."""
        cache = SummaryCache(capacity_bytes=10_000)
        token = cache.writes
        cache.invalidate("u", 9)  # another key's write counts too
        assert cache.store("t", 1, "old", 10, token) is False
        assert cache.lookup("t", 1)[0] is False and len(cache) == 0
        assert cache.store("t", 1, "new", 10, cache.writes)
        assert cache.lookup("t", 1) == (True, "new")

    def test_clear_drops_every_table_and_refuses_fills(self):
        cache = SummaryCache(capacity_bytes=10_000)
        cache.store("t", 1, "a", 10, cache.writes)
        cache.store("u", 2, "b", 10, cache.writes)
        token = cache.writes
        cache.clear()
        assert cache.lookup("t", 1)[0] is False
        assert cache.lookup("u", 2)[0] is False
        assert cache.store("t", 1, "a", 10, token) is False
        assert len(cache) == 0 and cache.used_bytes == 0

    def test_store_after_bump_is_fresh(self):
        """An invalidation bumps the write count; the next fill, under the
        new count, serves the new value."""
        cache = SummaryCache(capacity_bytes=10_000)
        cache.store("t", 1, "old", 10, cache.writes)
        cache.invalidate("t", 1)
        assert cache.store("t", 1, "new", 10, cache.writes)
        assert cache.lookup("t", 1) == (True, "new")

    def test_clear_and_resize(self):
        cache = SummaryCache(capacity_bytes=10_000, max_entry_fraction=1.0)
        for oid in range(5):
            cache.store("t", oid, "v", 1000, cache.writes)
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes == 0
        for oid in range(5):
            cache.store("t", oid, "v", 1000, cache.writes)
        cache.resize(2200)  # room for two ~1064-byte entries
        assert len(cache) == 2
        assert cache.used_bytes <= 2200
        cache.resize(0)
        assert not cache.enabled and len(cache) == 0
        assert cache.store("t", 9, "v", 10, cache.writes) is False

    def test_stats_shape(self):
        cache = SummaryCache(capacity_bytes=10_000)
        cache.store("t", 1, "v", 10, cache.writes)
        cache.lookup("t", 1)
        cache.lookup("t", 2)
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["hit_rate"] == 0.5
        assert s["entries"] == 1 and s["capacity_bytes"] == 10_000

    def test_pickle_starts_cold_but_keeps_config(self):
        cache = SummaryCache(capacity_bytes=10_000)
        cache.store("t", 1, "v", 10, cache.writes)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.capacity_bytes == 10_000 and clone.enabled
        assert len(clone) == 0 and clone.used_bytes == 0
        assert clone.store("t", 1, "v", 10, clone.writes)

    def test_metrics_mirrored_into_registry(self):
        cache = SummaryCache(capacity_bytes=10_000)
        cache.store("t", 1, "v", 10, cache.writes)
        cache.lookup("t", 1)
        cache.lookup("t", 2)
        cache.invalidate("t", 1)
        assert cache.metrics.get("cache.stores") == 1
        assert cache.metrics.get("cache.hits") == 1
        assert cache.metrics.get("cache.misses") == 1
        assert cache.metrics.get("cache.invalidations") == 1


# ---------------------------------------------------------------------------
# Integration: the cache in front of SummaryStorage / SummaryManager
# ---------------------------------------------------------------------------

TEXTS = {
    "alpha": "apple alpha fruit",
    "beta": "bear beta animal",
}


def build_db(cache_bytes: int = 1 << 20, buffer_pages: int = 64) -> Database:
    db = Database(buffer_pages=buffer_pages, cache_bytes=cache_bytes)
    db.create_table("t", [Column("name", ValueType.TEXT),
                          Column("v", ValueType.INT)])
    db.create_classifier_instance(
        "C", ["alpha", "beta"],
        [(TEXTS["alpha"], "alpha"), (TEXTS["beta"], "beta")],
    )
    db.sql("ALTER TABLE t ADD INDEXABLE C")
    for i in range(12):
        oid = db.insert("t", [f"r{i}", i])  # OIDs run 1..12
        db.add_annotation(TEXTS["alpha" if oid % 2 == 0 else "beta"],
                          table="t", oid=oid)
    return db


def set_dict(objects) -> dict:
    """Comparable form of a summary set across databases (``obj_id`` comes
    from a process-global counter, so two databases built in one process
    number their objects differently)."""
    out = {}
    for name, obj in objects.items():
        d = dict(obj.to_dict())
        d.pop("obj_id", None)
        out[name] = d
    return out


def obj_dict(obj) -> dict:
    d = dict(obj.to_dict())
    d.pop("obj_id", None)
    return d


def label_count(db: Database, oid: int, label: str) -> int:
    objects = db.manager.storage_for("t").get(oid)
    if objects is None:
        return 0
    return dict(objects["C"].rep()).get(label, 0)


class TestReadThrough:
    def test_repeated_get_hits_and_equals_uncached(self):
        db = build_db()
        cache = db.manager.cache
        storage = db.manager.storage_for("t")
        first = storage.get(1)
        hits0 = cache.hits
        second = storage.get(1)
        assert cache.hits > hits0
        assert set_dict(first) == set_dict(second)
        # And both equal a direct uncached decode.
        uncached = build_db(cache_bytes=0).manager.storage_for("t").get(1)
        assert set_dict(second) == set_dict(uncached)

    def test_hits_return_independent_copies(self):
        # Hits share the cached objects, yet a caller still cannot change
        # the cache: every in-place edit of a shared object raises.
        db = build_db()
        storage = db.manager.storage_for("t")
        storage.get(1)  # prime
        a = storage.get(1)
        assert storage.get(1) is a
        with pytest.raises(TypeError):
            a["C"].label_elements.clear()
        with pytest.raises(TypeError):
            a["C"] = None
        b = storage.get(1)
        assert b["C"].label_elements, "cached entry was poisoned by a caller"

    def test_negative_caching_for_unannotated(self):
        db = build_db()
        oid = db.insert("t", ["bare", 99])
        storage = db.manager.storage_for("t")
        assert storage.get(oid) is None
        hits0 = db.manager.cache.hits
        assert storage.get(oid) is None
        assert db.manager.cache.hits > hits0
        # ...and the negative entry dies the moment the row appears.
        db.add_annotation(TEXTS["alpha"], table="t", oid=oid)
        assert storage.get(oid) is not None

    def test_invalidation_on_annotation_add_delete_and_tuple_delete(self):
        db = build_db()
        assert label_count(db, 2, "alpha") == 1  # primes the cache
        ann = db.add_annotation(TEXTS["alpha"], table="t", oid=2)
        assert label_count(db, 2, "alpha") == 2
        db.delete_annotation(ann.ann_id)
        assert label_count(db, 2, "alpha") == 1
        db.delete_tuple("t", 2)
        assert db.manager.storage_for("t").get(2) is None

    def test_annotate_invalidates_only_through_the_row_write(
        self, monkeypatch
    ):
        """``SummaryStorage.put``/``delete`` is the one invalidation point:
        an annotate drops its row's entry exactly once."""
        db = Database()
        db.create_table("t", [Column("name", ValueType.TEXT)])
        db.create_classifier_instance(
            "C", ["alpha", "beta"],
            [(TEXTS["alpha"], "alpha"), (TEXTS["beta"], "beta")],
        )
        db.manager.link("t", "C")
        oid = db.insert("t", ["r"])
        db.add_annotation(TEXTS["alpha"], table="t", oid=oid)
        storage = db.manager.storage_for("t")
        storage.get(oid)
        calls = []
        invalidate = SummaryCache.invalidate
        monkeypatch.setattr(
            SummaryCache, "invalidate",
            lambda self, *key: calls.append(key) or invalidate(self, *key),
        )
        ann = db.add_annotation(TEXTS["beta"], table="t", oid=oid)
        assert calls == [("t", oid)]
        assert ann.ann_id in storage.get(oid)["C"].all_annotation_ids()

    def test_get_many_shares_and_invalidates_set_entries(self):
        # A batch read fills the cache through the dense OID-range resolver;
        # the next batch read shares the very mappings, and an annotation
        # add or delete invalidates exactly the tuple it touched.
        db = build_db()
        storage = db.manager.storage_for("t")
        oids = list(range(1, 13))
        first = storage.get_many(oids)
        hits0 = db.manager.cache.hits
        again = storage.get_many(oids)
        assert db.manager.cache.hits == hits0 + len(oids)
        assert all(a is b for a, b in zip(first, again))

        def ann_ids(objects) -> set[int]:
            return objects["C"].all_annotation_ids()

        ann = db.add_annotation(TEXTS["beta"], table="t", oid=2)
        grown = storage.get_many(oids)
        assert grown[1] is not first[1]
        assert ann_ids(grown[1]) == ann_ids(first[1]) | {ann.ann_id}
        assert all(grown[i] is first[i] for i in range(12) if i != 1)
        db.delete_annotation(ann.ann_id)
        assert ann_ids(storage.get_many(oids)[1]) == ann_ids(first[1])

    def test_query_results_identical_cache_on_off(self):
        q = ("SELECT t.name FROM t "
             "WHERE t.$.getSummaryObject('C').getLabelValue('alpha') >= 1")
        rows_on = [tuple(r.values) for r in build_db().sql(q)]
        rows_off = [tuple(r.values) for r in build_db(cache_bytes=0).sql(q)]
        assert sorted(rows_on) == sorted(rows_off)
        assert rows_on  # not vacuously equal

    def test_scan_with_cache_reads_no_more_pages_than_without(self):
        q = ("SELECT t.name FROM t "
             "WHERE t.$.getSummaryObject('C').getLabelValue('alpha') >= 1")

        def scan_twice(db):
            db.options.index_scheme = "none"  # label count read per row
            cold, warm = db.sql(q), db.sql(q)
            assert [tuple(r.values) for r in cold] == \
                [tuple(r.values) for r in warm]
            return ([tuple(r.values) for r in warm],
                    cold.stats["pages"], warm.stats["pages"])

        rows_on, cold_on, warm_on = scan_twice(build_db())
        rows_off, cold_off, warm_off = scan_twice(build_db(cache_bytes=0))
        assert rows_on == rows_off and rows_on
        # Cached sets answer without I/O; misses resolve through the same
        # single OID-index range pass as the uncached scan.
        assert cold_on <= cold_off
        assert warm_on <= warm_off

    def test_disabled_cache_stores_nothing(self):
        db = build_db(cache_bytes=0)
        db.manager.storage_for("t").get(1)
        assert len(db.manager.cache) == 0
        assert db.manager.cache.hits == 0


class TestFillsRacingWrites:
    """A reader paused between its heap read and its cache store while a
    writer changes that row must not leave the pre-write row (or a "no
    row" negative entry) cached.  Every statement locks its tables, so
    the fills that race writes are those of lockless reads (the
    integrity audit's).  The reader here is a lockless ``get_many``."""

    @pytest.mark.parametrize("negative", [False, True],
                             ids=["row", "no-row"])
    def test_fill_that_read_before_a_write_is_not_served(
        self, monkeypatch, negative
    ):
        db = Database()
        db.create_table("t", [Column("name", ValueType.TEXT)])
        db.create_classifier_instance(
            "C", ["alpha", "beta"],
            [(TEXTS["alpha"], "alpha"), (TEXTS["beta"], "beta")],
        )
        db.manager.link("t", "C")
        oid = db.insert("t", ["r"])
        if not negative:
            db.add_annotation(TEXTS["alpha"], table="t", oid=oid)
        paused, resume = threading.Event(), threading.Event()
        store = SummaryCache.store

        def pausing_store(self, *args):
            if threading.current_thread() is reader:
                paused.set()
                assert resume.wait(10)
            return store(self, *args)

        monkeypatch.setattr(SummaryCache, "store", pausing_store)
        read = []
        reader = threading.Thread(target=lambda: read.append(
            db.manager.storage_for("t").get_many([oid])[0]))
        reader.start()
        try:
            assert paused.wait(10), "the reader never filled the cache"
            db.add_annotation(TEXTS["alpha"], table="t", oid=oid)
        finally:
            resume.set()
            reader.join(10)
        assert not reader.is_alive() and len(read) == 1
        # The pre-write view: no row, or the row with one alpha note.
        assert (read[0] is None) == negative
        assert negative or dict(read[0]["C"].rep())["alpha"] == 1
        assert label_count(db, oid, "alpha") == (1 if negative else 2)
        assert_cache_matches_heap(db)

    @pytest.mark.parametrize("negative", [False, True],
                             ids=["row", "no-row"])
    def test_read_while_a_write_is_mid_change_is_not_served(
        self, monkeypatch, negative
    ):
        """The other order: the writer pauses at its heap change and a
        reader runs its whole miss meanwhile.  The invalidation comes
        after the change, so it drops what that reader stored."""
        db = build_db()
        oid = db.insert("t", ["bare", 99]) if negative else 2
        storage = db.manager.storage_for("t")
        paused, resume = threading.Event(), threading.Event()
        for name in ("insert", "update"):
            original = getattr(HeapFile, name)

            def pausing(self, *args, _original=original):
                if self is storage.heap and \
                        threading.current_thread() is writer:
                    paused.set()
                    assert resume.wait(10)
                return _original(self, *args)

            monkeypatch.setattr(HeapFile, name, pausing)
        writer = threading.Thread(target=lambda: db.add_annotation(
            TEXTS["alpha"], table="t", oid=oid))
        writer.start()
        try:
            assert paused.wait(10), "the writer never reached its row"
            before = label_count(db, oid, "alpha")  # the pre-write row
        finally:
            resume.set()
            writer.join(10)
        assert not writer.is_alive()
        assert before == (0 if negative else 1)
        assert label_count(db, oid, "alpha") == before + 1
        assert_cache_matches_heap(db)


class TestEpochBumps:
    """The whole-store events that once bumped per-table epochs: repair
    now clears the cache, recovery and image load start it cold."""

    def test_repair_clears(self):
        db = build_db()
        storage = db.manager.storage_for("t")
        primed = storage.get(2)
        clears = db.metrics.get("cache.clears")
        # Delete a heap tuple behind the manager's back: its summary row
        # becomes an orphan, the audit fails, and repair runs for real
        # (a clean audit early-returns without touching the cache).
        db.catalog.table("t").delete(1)
        report = db.repair()
        assert report.converged
        assert db.metrics.get("cache.clears") == clears + 1
        # No write touched OID 2's row, yet its entry went with the rest.
        assert storage.get(2) is not primed
        assert set_dict(storage.get(2)) == set_dict(primed)
        assert storage.get(1) is None
        assert_cache_matches_heap(db)

    def test_recover_starts_cold_and_serves_fresh_rows(self):
        db = Database(buffer_pages=64)
        db.attach_wal()
        db.create_table("t", [Column("name", ValueType.TEXT),
                              Column("v", ValueType.INT)])
        db.create_classifier_instance(
            "C", ["alpha", "beta"],
            [(TEXTS["alpha"], "alpha"), (TEXTS["beta"], "beta")],
        )
        db.sql("ALTER TABLE t ADD INDEXABLE C")
        oid = db.insert("t", ["r0", 0])
        db.add_annotation(TEXTS["alpha"], table="t", oid=oid)
        crashed = MemoryWALDevice.from_durable(db.wal.device.durable(), 0)
        recovered, _report = Database.recover(None, crashed, verify=True)
        assert recovered.metrics.get("recovery.runs") == 1
        # Recovery without an image builds a default database.
        assert recovered.manager.cache.capacity_bytes == DEFAULT_CACHE_BYTES
        # Replay writes rows through put/delete, so every entry it left
        # (the read-modify-write's own fills are invalidated by its write)
        # equals its row, and reads are correct cold and warm.
        assert_cache_matches_heap(recovered)
        assert label_count(recovered, oid, "alpha") == 1
        hits = recovered.manager.cache.hits
        assert label_count(recovered, oid, "alpha") == 1  # warm read
        assert recovered.manager.cache.hits == hits + 1

    def test_saved_image_loads_cold_with_config(self, tmp_path):
        db = build_db()
        db.manager.storage_for("t").get(1)
        assert len(db.manager.cache) > 0
        path = tmp_path / "img.db"
        db.save(path)
        loaded = Database.load(path, verify=True)
        cache = loaded.manager.cache
        assert cache.enabled and cache.capacity_bytes == 1 << 20
        assert len(cache) == 0
        # Loaded database serves correct (re-read) summary sets.
        assert label_count(loaded, 2, "alpha") == 1

    def test_pickled_clone_diverges_safely(self):
        """A pickled clone must not share cache entries with the original:
        a write in the clone may not surface stale reads, even though the
        original's storage rows never changed."""
        db = build_db()
        assert label_count(db, 2, "alpha") == 1
        clone = pickle.loads(pickle.dumps(db))
        clone.add_annotation(TEXTS["alpha"], table="t", oid=2)
        assert label_count(clone, 2, "alpha") == 2
        assert label_count(db, 2, "alpha") == 1


def load_image(payload: bytes) -> Database:
    """A pickled state, loaded the way an image is."""
    clone = object.__new__(Database)
    clone.__setstate__(_ImageUnpickler(io.BytesIO(payload)).load())
    return clone


def load_state(state: dict) -> Database:
    return load_image(pickle.dumps(state))


def legacy_pending(monkeypatch, keys):
    """The staleness set of the removed deferred maintenance, pickled the
    way its ``repro.summaries.background.PendingSummaryWork`` pickled."""
    module = types.ModuleType("repro.summaries.background")

    class PendingSummaryWork:
        def __getstate__(self):
            return {"entries": list(keys)}

    PendingSummaryWork.__module__ = module.__name__
    PendingSummaryWork.__qualname__ = "PendingSummaryWork"
    module.PendingSummaryWork = PendingSummaryWork
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return PendingSummaryWork()


class TestOlderImages:
    """States shaped like the images earlier engines wrote load into the
    one configuration: sync maintenance, cache on."""

    def test_coherent_image_with_backlog_loads_sync_and_drained(
        self, monkeypatch
    ):
        """An older "coherent" state whose one tuple lags an
        annotation: the load regenerates that tuple's row."""
        db = build_db(cache_bytes=0)  # what an unset env var recorded
        manager = db.manager
        # The deferred write: the raw annotation, no summary maintenance.
        [ann] = manager.create_annotations(
            [(TEXTS["alpha"], [AnnotationTarget("t", 1)], None)])
        manager._attach_targets(ann.ann_id, [("t", 1)])
        assert label_count(db, 1, "alpha") == 0
        manager.async_mode = "coherent"
        manager.pending = legacy_pending(monkeypatch, [("t", 1)])
        state = db.__getstate__()
        state["summary_async"] = "coherent"
        payload = pickle.dumps(state)
        monkeypatch.undo()  # the old class is gone when the image loads
        clone = load_image(payload)
        assert "summary_async" not in vars(clone)
        for name in ("async_mode", "pending", "legacy_pending"):
            assert name not in vars(clone.manager)
        cache = clone.manager.cache
        assert cache.capacity_bytes == DEFAULT_CACHE_BYTES
        assert cache.hits == 0  # cold
        assert label_count(clone, 1, "alpha") == 1
        assert label_count(clone, 1, "beta") == 1
        assert clone.check_integrity().ok

    def test_older_pending_set_loads_its_keys(self):
        """The oldest staleness sets pickled ``{key: (generation,
        epoch)}``, later ones a list of keys: both load as their keys,
        in order."""
        for entries in ({("t", 2): (3, 7), ("a", 1): (0, 0)},
                        [("t", 2), ("a", 1)]):
            keys = object.__new__(LegacyPendingKeys)
            keys.__setstate__({"entries": entries})
            assert keys.keys == [("t", 2), ("a", 1)]

    @pytest.mark.parametrize("mode", [True, "deferred"])
    def test_deferred_image_loads_in_the_one_mode(self, mode):
        db = build_db(cache_bytes=4096)
        db.manager.deferred = True
        state = db.__getstate__()
        state["summary_async"] = mode
        loaded = load_state(state)
        assert "summary_async" not in vars(loaded)
        assert "deferred" not in vars(loaded.manager)
        assert loaded.manager.cache.capacity_bytes == 4096
        loaded.add_annotation(TEXTS["alpha"], table="t", oid=1)
        assert label_count(loaded, 1, "alpha") == 1

    def test_new_image_keeps_capacity_zero(self):
        loaded = load_state(build_db(cache_bytes=0).__getstate__())
        assert loaded.manager.cache.capacity_bytes == 0

    def test_pre_cache_manager_gets_a_default_cache(self):
        db = build_db()
        manager = db.manager
        storage = manager.storage_for("t")
        del manager.cache, storage.cache
        loaded = load_state(db.__getstate__())
        cache = loaded.manager.cache
        assert cache.capacity_bytes == DEFAULT_CACHE_BYTES
        assert loaded.manager.storage_for("t").cache is cache
        assert label_count(loaded, 2, "alpha") == 1
        assert label_count(loaded, 2, "alpha") == 1
        assert cache.hits >= 1
        loaded.add_annotation(TEXTS["alpha"], table="t", oid=2)
        assert label_count(loaded, 2, "alpha") == 2


class TestObservability:
    def test_metrics_snapshot_has_cache_counters(self):
        db = build_db()
        db.manager.storage_for("t").get(1)
        db.manager.storage_for("t").get(1)
        snap = db.metrics_snapshot()
        assert snap["cache.hits"] >= 1
        assert snap["cache.misses"] >= 1
        assert snap["cache.entries"] >= 1
        assert snap["cache.capacity_bytes"] == 1 << 20
        assert snap["cache.used_bytes"] > 0

    def test_explain_analyze_reports_cache_deltas(self):
        db = build_db()
        q = ("SELECT t.name FROM t "
             "WHERE t.$.getSummaryObject('C').getLabelValue('alpha') >= 1")
        db.sql(q)  # warm
        report = db.explain(q, analyze=True)
        metrics = report.execution["metrics"]
        assert metrics.get("cache.hits", 0) > 0
        assert "cache=" in report.analyzed
        ops = report.execution["operators"]
        assert sum(e["self_cache_hits"] for e in ops) == \
               metrics.get("cache.hits", 0)

    def test_analyze_render_unchanged_when_cache_off(self):
        db = build_db(cache_bytes=0)
        report = db.explain("SELECT t.name FROM t", analyze=True)
        assert "cache=" not in report.analyzed

    def test_cli_cache_command(self):
        db = build_db()
        db.manager.storage_for("t").get(1)
        db.manager.storage_for("t").get(1)
        out = execute_line(db, "\\cache")
        assert "enabled" in out and "hits=" in out
        assert execute_line(db, "\\cache clear") == "cache cleared"
        assert len(db.manager.cache) == 0
        out = execute_line(db, "\\cache resize 0")
        assert "disabled" in out
        out = execute_line(db, "\\cache resize 2048")
        assert "2048" in out and "enabled" in out
        assert "usage" in execute_line(db, "\\cache resize nope")
        assert "usage" in execute_line(db, "\\cache bogus")

    def test_help_mentions_cache(self):
        db = Database(buffer_pages=8)
        assert "\\cache" in execute_line(db, "\\help")


class TestCacheUnderPressure:
    def test_tiny_cache_evicts_but_stays_correct(self):
        db = build_db(cache_bytes=2048)
        plain = build_db(cache_bytes=0)
        oids = range(1, 13)
        expected = {oid: label_count(plain, oid, "alpha") for oid in oids}
        for _sweep in range(3):
            for oid in oids:
                assert label_count(db, oid, "alpha") == expected[oid]
        assert db.manager.cache.used_bytes <= 2048

    def test_oversized_sets_bypass_cache(self):
        db = build_db(cache_bytes=4096)
        # ~120 annotations make oid 2's encoded set far larger than the
        # 512-byte admission limit (capacity/8).
        for _ in range(120):
            db.add_annotation(TEXTS["alpha"], table="t", oid=2)
        count = label_count(db, 2, "alpha")
        assert count == 121
        assert db.manager.cache.rejections > 0
        assert label_count(db, 2, "alpha") == 121  # still correct, uncached


# ---------------------------------------------------------------------------
# Hot-path regressions: summary rows moving across page boundaries
# ---------------------------------------------------------------------------

def make_snippet_object(oid: int, ann_ids: range) -> SnippetObject:
    obj = SnippetObject(instance_name="S", tuple_id=oid)
    for ann_id in ann_ids:
        obj.add_annotation(ann_id, (), f"snippet text {ann_id} " + "x" * 40)
    return obj


class TestStorageRowMoves:
    def grow_shrink_roundtrip(self, buffer_pages: int) -> None:
        disk = DiskManager()
        pool = BufferPool(disk, capacity=buffer_pages)
        storage = SummaryStorage("t", pool)
        for oid in range(6):
            storage.put(oid, {"S": make_snippet_object(oid, range(2))})
        baseline = {oid: obj_dict(storage.get(oid)["S"]) for oid in range(6)}
        # Grow OID 3 far past one page: the row moves to an overflow chain
        # and its RID changes; the OID index must follow with no dangling
        # or duplicate entries.
        big = make_snippet_object(3, range(400))
        storage.put(3, {"S": big})
        assert obj_dict(storage.get(3)["S"]) == obj_dict(big)
        # Shrink it back inline: the row moves again.
        small = make_snippet_object(3, range(2))
        storage.put(3, {"S": small})
        assert obj_dict(storage.get(3)["S"]) == obj_dict(small)
        # Neighbors are untouched, the index maps every live row exactly
        # once, and a full scan agrees with point reads.
        for oid in range(6):
            assert obj_dict(storage.get(oid)["S"]) == baseline[oid]
        scanned = dict(storage.scan())
        assert sorted(scanned) == list(range(6))
        assert len(list(storage.oid_index.items())) == 6

    def test_grow_shrink_roundtrip(self):
        self.grow_shrink_roundtrip(buffer_pages=64)

    def test_grow_shrink_roundtrip_under_buffer_pressure(self):
        """Regression: with a pool too small to hold the row's overflow
        chain, allocating the chain inside ``HeapFile.update`` used to
        evict the very heap page being updated — the write then landed on
        an orphaned frame view and ``mark_dirty`` raised
        ``BufferPoolError: page … is not resident``, leaving the old
        overflow chain freed but the slot not rewritten."""
        self.grow_shrink_roundtrip(buffer_pages=4)

    def test_grow_shrink_through_engine_passes_integrity(self):
        db = Database(buffer_pages=8, cache_bytes=1 << 20)
        db.create_table("t", [Column("name", ValueType.TEXT)])
        db.create_snippet_instance("S", min_chars=0, max_chars=400)
        db.sql("ALTER TABLE t ADD S")
        oid = db.insert("t", ["r0"])
        for i in range(120):
            db.add_annotation(f"note {i} " + "y" * 60, table="t", oid=oid)
            if i in (2, 60, 119):
                db.check_integrity(raise_on_error=True)
        objects = db.manager.storage_for("t").get(oid)
        assert len(objects["S"].all_annotation_ids()) == 120
        db.check_integrity(raise_on_error=True)

    def test_delete_with_overflow_chain_under_pressure(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=4)
        storage = SummaryStorage("t", pool)
        storage.put(0, {"S": make_snippet_object(0, range(400))})
        storage.put(1, {"S": make_snippet_object(1, range(2))})
        try:
            storage.delete(0)
        except BufferPoolError as exc:  # pragma: no cover - the regression
            pytest.fail(f"delete under buffer pressure raised {exc}")
        assert storage.get(0) is None
        assert storage.get(1) is not None
