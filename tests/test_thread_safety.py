"""Race regressions for the shared process-level structures.

Before the concurrency era these were all naked dict read-modify-writes;
each test here drives the exact interleaving that used to lose updates
(or corrupt bookkeeping) and asserts the now-locked structure stays
consistent under real thread pressure:

* :class:`MetricsRegistry` — ``inc`` lost updates, ``snapshot`` during
  a concurrent dict resize;
* :class:`SummaryCache` — store/lookup/invalidate/clear races corrupting
  the occupancy accounting, or a fill that read a row before a write
  admitted after it (a stale value served as fresh), one key at a time
  or a batch at a time (``lookup_many``);
* :class:`BufferPool` — concurrent get/mark_dirty/flush corrupting the
  frame map or the LRU order.

Each also asserts its pickle contract: locks are process state and must
drop out of (and be rebuilt after) serialization.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time

from repro.cache.summary_cache import SummaryCache
from repro.obs.metrics import MetricsRegistry
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager

THREADS = 8
ROUNDS = 2_000


def run_threads(target, count: int = THREADS, args_for=None) -> None:
    threads = [
        threading.Thread(target=target,
                         args=(args_for(i) if args_for else ()))
        for i in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads)


class TestMetricsRegistry:
    def test_no_lost_increments(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(ROUNDS):
                registry.inc("hot")
                registry.inc("hot", 2)
                registry.add_time("clock", 0.001)

        run_threads(worker)
        assert registry.get("hot") == THREADS * ROUNDS * 3
        assert abs(registry.timers["clock"] - THREADS * ROUNDS * 0.001) < 1e-6

    def test_snapshot_during_concurrent_writes(self):
        registry = MetricsRegistry()
        stop = threading.Event()
        failures: list[str] = []

        def writer(i):
            n = 0
            while not stop.is_set():
                registry.inc(f"key.{i}.{n % 50}")
                n += 1

        def reader():
            try:
                while not stop.is_set():
                    snap = registry.snapshot()
                    assert all(v >= 0 for v in snap.values())
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        stop_timer = threading.Timer(0.5, stop.set)
        stop_timer.start()
        for t in threads:
            t.join(30)
        stop_timer.cancel()
        stop.set()
        assert failures == []

    def test_pickle_roundtrip_keeps_counts(self):
        registry = MetricsRegistry()
        registry.inc("a", 5)
        registry.add_time("b", 1.5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.get("a") == 5
        assert clone.timers["b"] == 1.5
        clone.inc("a")  # the rebuilt lock works
        assert clone.get("a") == 6


class TestSummaryCache:
    def test_concurrent_store_lookup_invalidate(self):
        cache = SummaryCache(capacity_bytes=64 * 1024)
        failures: list[str] = []

        def worker(wid):
            try:
                for i in range(500):
                    oid = (wid * 7 + i) % 40
                    cache.store("t", oid, {"k": i}, 100, cache.writes)
                    hit, value = cache.lookup("t", oid)
                    if hit:
                        assert isinstance(value, dict)
                    if i % 11 == 0:
                        cache.invalidate("t", oid)
                    if i % 97 == 0:
                        cache.clear()
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        run_threads(worker, args_for=lambda i: (i,))
        assert failures == []
        # Occupancy accounting survived the churn: recount from scratch.
        with cache._mutex:
            recount = sum(size for _v, size in cache._entries.values())
            assert cache.used_bytes == recount
        assert cache.used_bytes <= cache.capacity_bytes

    def test_fill_racing_invalidate_never_serves_stale(self):
        """Writers change a row, then invalidate; readers fill on a miss
        under the write count read before their lookup.  A hit is never
        older than the last write finished before the lookup, and what
        stays cached at the end is the row itself."""
        cache = SummaryCache(capacity_bytes=64 * 1024)
        row = {"version": 0}
        done = {"version": 0}  # last write whose invalidation finished
        failures: list[str] = []
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                row["version"] += 1  # the heap change...
                version = row["version"]
                cache.invalidate("t", 1)  # ...then its invalidation
                done["version"] = version
                stop.wait(0.0002)  # let a wrongly admitted fill be seen

        def reader():
            try:
                for _ in range(2000):
                    floor = done["version"]
                    token = cache.writes
                    hit, value = cache.lookup("t", 1)
                    if hit:
                        assert value >= floor, (value, floor)
                    else:
                        value = row["version"]  # the heap read...
                        time.sleep(0)  # ...and the decode, time to race
                        cache.store("t", 1, value, 50, token)
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        write_thread = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            write_thread.start()
            for t in readers:
                t.start()
            for t in readers:
                t.join(60)
        finally:
            stop.set()
            write_thread.join(10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + [write_thread])
        assert failures == []
        hit, value = cache.lookup("t", 1)
        assert not hit or value == row["version"]

    def test_lookup_many_racing_bumps_and_invalidations(self):
        """A batch lookup answers under one mutex hold while other threads
        write rows, invalidate them and clear the cache (each bumping the
        write count): no hit is older than the last write to its key
        finished before the lookup."""
        # Small enough that the stores evict: the LRU bookkeeping is
        # exercised too.
        cache = SummaryCache(capacity_bytes=40 * 164)
        oids = list(range(48))
        rows = dict.fromkeys(oids, 0)
        done = dict.fromkeys(oids, 0)
        failures: list[str] = []
        stop = threading.Event()

        def storer(wid):
            try:
                i = 0
                while not stop.is_set():
                    oid = oids[(wid * 13 + i) % len(oids)]
                    token = cache.writes
                    if not cache.lookup("t", oid)[0]:
                        cache.store("t", oid, rows[oid], 100, token)
                    i += 1
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        def churner():
            i = 0
            while not stop.is_set():
                if i % 3 == 0:
                    cache.clear()
                else:
                    oid = oids[i % len(oids)]
                    rows[oid] += 1
                    version = rows[oid]
                    cache.invalidate("t", oid)
                    done[oid] = version
                i += 1

        def reader():
            try:
                for _ in range(1_500):
                    floors = dict(done)
                    found = cache.lookup_many("t", oids)
                    for oid, (hit, value) in zip(oids, found):
                        if hit:
                            assert value >= floors[oid], (oid, value)
                        else:
                            assert value is None
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        threads = [threading.Thread(target=storer, args=(i,))
                   for i in range(3)]
        threads.append(threading.Thread(target=churner))
        readers = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads + readers:
                t.start()
            for t in readers:
                t.join(60)
            stop.set()
            for t in threads:
                t.join(10)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + readers)
        assert failures == []
        with cache._mutex:
            recount = sum(size for _v, size in cache._entries.values())
            assert cache.used_bytes == recount <= cache.capacity_bytes
            assert all(value == rows[oid]
                       for (_t, oid), (value, _s) in cache._entries.items())
        # LRU order: a batch lookup moves its hits to the recent end, in
        # the order asked.
        for oid in oids:
            cache.store("t", oid, rows[oid], 100, cache.writes)
        wanted = oids[-5:][::-1]
        assert all(hit for hit, _ in cache.lookup_many("t", wanted))
        assert [key[1] for key in cache._entries][-5:] == wanted

    def test_pickle_drops_entries_and_rebuilds_mutex(self):
        cache = SummaryCache(capacity_bytes=4096)
        cache.store("t", 1, {"a": 1}, 10, cache.writes)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 0 and clone.used_bytes == 0
        clone.store("t", 2, {"b": 2}, 10, clone.writes)  # rebuilt mutex works
        hit, _ = clone.lookup("t", 2)
        assert hit


class TestBufferPool:
    def test_concurrent_page_traffic(self):
        pool = BufferPool(DiskManager(), capacity=8)
        page_ids = [pool.new_page() for _ in range(32)]
        for pid in page_ids:
            data = pool.get_page(pid)
            data[0:4] = pid.to_bytes(4, "big")
            pool.mark_dirty(pid)
        pool.flush_all()
        failures: list[str] = []

        def worker(wid):
            try:
                for i in range(300):
                    pid = page_ids[(wid * 5 + i) % len(page_ids)]
                    data = pool.get_page(pid)
                    assert int.from_bytes(data[0:4], "big") == pid
                    if i % 7 == 0:
                        pool.mark_dirty(pid)
                    if i % 31 == 0:
                        pool.flush_page(pid)
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        run_threads(worker, args_for=lambda i: (i,))
        assert failures == []
        pool.flush_all()
        # Every page still carries its id: no write went to a torn frame.
        for pid in page_ids:
            assert int.from_bytes(pool.get_page(pid)[0:4], "big") == pid
        assert len(pool._frames) <= pool.capacity

    def test_pickle_rebuilds_latch(self):
        pool = BufferPool(DiskManager(), capacity=4)
        pid = pool.new_page()
        pool.flush_all()
        clone = pickle.loads(pickle.dumps(pool))
        assert clone.get_page(pid) is not None  # rebuilt latch works
