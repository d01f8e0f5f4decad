"""Race regressions for the shared process-level structures.

Before the concurrency era these were all naked dict read-modify-writes;
each test here drives the exact interleaving that used to lose updates
(or corrupt bookkeeping) and asserts the now-locked structure stays
consistent under real thread pressure:

* :class:`MetricsRegistry` — ``inc`` lost updates, ``snapshot`` during
  a concurrent dict resize;
* :class:`SummaryCache` — store/lookup/epoch-bump races corrupting the
  occupancy accounting or resurrecting stale entries, one key at a time
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
                    cache.store("t", oid, {"k": i}, size_hint=100)
                    hit, value = cache.lookup("t", oid)
                    if hit:
                        assert isinstance(value, dict)
                    if i % 11 == 0:
                        cache.invalidate("t", oid)
                    if i % 97 == 0:
                        cache.bump_epoch("t")
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        run_threads(worker, args_for=lambda i: (i,))
        assert failures == []
        # Occupancy accounting survived the churn: recount from scratch.
        with cache._mutex:
            recount = sum(size for _v, size, _e in cache._entries.values())
            assert cache.used_bytes == recount
        assert cache.used_bytes <= cache.capacity_bytes

    def test_epoch_bump_racing_store_never_serves_stale(self):
        """A store stamped before a bump must read as a miss after it —
        under the mutex the stamp and the admission are atomic, so the
        'stale value served as fresh' window is structurally gone."""
        cache = SummaryCache(capacity_bytes=64 * 1024)
        failures: list[str] = []
        stop = threading.Event()

        def bumper():
            while not stop.is_set():
                cache.bump_epoch("t", "write")

        def storer():
            try:
                for i in range(2000):
                    epoch_before = cache.epoch("t")
                    cache.store("t", 1, {"v": i}, size_hint=50)
                    hit, value = cache.lookup("t", 1)
                    if hit and cache.epoch("t") == epoch_before:
                        # Unbumped since the store: the value is ours or
                        # a concurrent storer's — never a stale epoch's.
                        assert isinstance(value, dict)
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        bump_thread = threading.Thread(target=bumper)
        store_threads = [threading.Thread(target=storer) for _ in range(3)]
        bump_thread.start()
        for t in store_threads:
            t.start()
        for t in store_threads:
            t.join(60)
        stop.set()
        bump_thread.join(10)
        assert failures == []
        # Entries stamped behind the final epoch read as misses.
        cache.bump_epoch("t")
        hit, _ = cache.lookup("t", 1)
        assert not hit

    def test_lookup_many_racing_bumps_and_invalidations(self):
        """A batch lookup reads the epoch once under the mutex, so every
        hit of one call carries that epoch: never an older one, even
        while other threads bump epochs and invalidate entries."""
        # Small enough that the stores evict: the LRU bookkeeping is
        # exercised too.
        cache = SummaryCache(capacity_bytes=40 * 164)
        oids = list(range(48))
        failures: list[str] = []
        stop = threading.Event()

        def storer(wid):
            try:
                i = 0
                while not stop.is_set():
                    oid = oids[(wid * 13 + i) % len(oids)]
                    with cache._mutex:  # stamp and value read one epoch
                        cache.store("t", oid, ("v", cache.epoch("t")),
                                    size_hint=100)
                    i += 1
            except Exception as exc:  # pragma: no cover
                failures.append(repr(exc))

        def churner():
            i = 0
            while not stop.is_set():
                if i % 3 == 0:
                    cache.bump_epoch("t")
                else:
                    cache.invalidate("t", oids[i % len(oids)])
                i += 1

        def reader():
            try:
                for _ in range(1_500):
                    floor = cache.epoch("t")
                    found = cache.lookup_many("t", oids)
                    ceiling = cache.epoch("t")
                    stamps = {value[1] for hit, value in found if hit}
                    assert len(stamps) <= 1, stamps
                    assert all(floor <= s <= ceiling for s in stamps)
                    assert all(value is None for hit, value in found
                               if not hit)
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
            recount = sum(size for _v, size, _e in cache._entries.values())
            assert cache.used_bytes == recount <= cache.capacity_bytes
        # LRU order: a batch lookup moves its hits to the recent end, in
        # the order asked.
        for oid in oids:
            cache.store("t", oid, ("v", cache.epoch("t")), size_hint=100)
        wanted = oids[-5:][::-1]
        assert all(hit for hit, _ in cache.lookup_many("t", wanted))
        assert [key[1] for key in cache._entries][-5:] == wanted

    def test_pickle_drops_entries_and_rebuilds_mutex(self):
        cache = SummaryCache(capacity_bytes=4096)
        cache.store("t", 1, {"a": 1}, size_hint=10)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 0 and clone.used_bytes == 0
        clone.store("t", 2, {"b": 2}, size_hint=10)  # rebuilt mutex works
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
