"""Bounded, versioned cache of decoded summary sets (and derived artifacts).

Every summary-aware operator ends in the same hot path: find a tuple's
``R_SummaryStorage`` row through the OID index, read it, and JSON-decode the
full de-normalized summary set — even when the same OID is touched hundreds
of times per query or per propagation batch.  :class:`SummaryCache` memoizes
that work in front of :class:`~repro.summaries.storage.SummaryStorage`.

Design, in the order the invariants matter:

* **Keying.**  Entries are keyed ``(table, oid, kind)``; ``kind`` is
  ``"set"`` for the decoded ``{instance -> SummaryObject}`` mapping (a
  ``None`` value is a *negative* entry: the tuple has no storage row) and
  ``"texts"`` for the tuple's raw annotation texts (the §3.1 keyword-search
  fallback re-reads the same texts per keyword per query).

* **Epochs.**  Each table has a monotonically increasing epoch counter;
  every entry is stamped with the epoch current at store time and an entry
  whose stamp trails the table's epoch is dead on arrival at lookup.  Writes
  that name an OID invalidate precisely (``invalidate``); events whose blast
  radius is a whole table or the whole database — OID-index rebuilds,
  ``repair()``, WAL replay, image load — bump epochs
  (``bump_epoch``/``bump_all``), which is O(1) regardless of entry count.

* **Isolation.**  The cache owns private copies of everything it stores and
  hands out copies on every hit; callers may mutate what they get back
  (``project_to_columns`` and ``merge`` do) without poisoning the cache.

* **Bounds.**  Capacity is configured in bytes (``0`` is a legal size that
  stores nothing); entries carry a size estimate, eviction is LRU, and an
  admission guard rejects any single entry larger than
  ``max_entry_fraction`` of the capacity so one oversized summary set
  cannot wipe the working set.

* **Durability.**  The cache is process state, not database state: pickling
  keeps the configuration but drops every entry, so a loaded image starts
  cold (and cannot resurrect entries from before a crash).

Counters (``cache.*``) are mirrored into the owning database's
:class:`~repro.obs.metrics.MetricsRegistry`, so ``EXPLAIN ANALYZE`` metric
deltas and :meth:`Database.metrics_snapshot` report them with no extra
wiring.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.obs.metrics import MetricsRegistry

#: Capacity of the cache every :class:`~repro.summaries.maintenance.
#: SummaryManager` owns unless its creator passes another size.
DEFAULT_CACHE_BYTES = 1 << 20

#: Fixed per-entry bookkeeping charge added to every size estimate, so a
#: flood of tiny (e.g. negative) entries still hits the byte bound.
ENTRY_OVERHEAD = 64

#: No single entry may exceed this fraction of the capacity.
MAX_ENTRY_FRACTION = 0.125


class SummaryCache:
    """LRU cache of decoded summary sets, versioned by per-table epochs."""

    def __init__(
        self,
        capacity_bytes: int = 0,
        metrics: MetricsRegistry | None = None,
        max_entry_fraction: float = MAX_ENTRY_FRACTION,
    ) -> None:
        self.capacity_bytes = max(int(capacity_bytes), 0)
        self.max_entry_fraction = max_entry_fraction
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: (table, oid, kind) -> (value, size_bytes, epoch); OrderedDict in
        #: LRU order (least-recent first).
        self._entries: "OrderedDict[tuple[str, int, str], tuple[Any, int, int]]" = (
            OrderedDict()
        )
        self._epochs: dict[str, int] = {}
        self.used_bytes = 0
        # One mutex over entries, epochs, occupancy, and the lifetime
        # counters: lookup's hit path mutates LRU order and an epoch bump
        # racing a store could otherwise admit an entry stamped with the
        # *pre*-bump epoch after the bump — a stale value served as fresh.
        # Reentrant because bump_all calls bump_epoch under it.
        self._mutex = threading.RLock()
        # Lifetime counters (survive MetricsRegistry.reset; the registry
        # mirror is what EXPLAIN ANALYZE diffs).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        self.rejections = 0
        self.epoch_bumps = 0

    # -- configuration --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    @property
    def max_entry_bytes(self) -> int:
        return int(self.capacity_bytes * self.max_entry_fraction)

    def __len__(self) -> int:
        return len(self._entries)

    def resize(self, capacity_bytes: int) -> None:
        """Change the capacity; shrinking evicts LRU entries to fit and
        resizing to 0 drops everything and stores nothing from then on."""
        with self._mutex:
            self.capacity_bytes = max(int(capacity_bytes), 0)
            if self.capacity_bytes == 0:
                self.clear()
                return
            self._evict_to_fit()

    def clear(self) -> None:
        """Drop every entry (capacity and epochs are untouched)."""
        with self._mutex:
            self._entries.clear()
            self.used_bytes = 0
        self.metrics.inc("cache.clears")

    # -- epochs ---------------------------------------------------------------

    def epoch(self, table: str) -> int:
        return self._epochs.get(table, 0)

    def bump_epoch(self, table: str, reason: str = "write") -> None:
        """Coarse per-table invalidation: every existing entry of ``table``
        becomes stale in O(1); they are reaped lazily on lookup/eviction."""
        with self._mutex:
            self._epochs[table] = self._epochs.get(table, 0) + 1
            self.epoch_bumps += 1
        self.metrics.inc("cache.epoch_bumps")
        self.metrics.inc(f"cache.epoch_bumps.{reason}")

    def bump_all(self, reason: str) -> None:
        """Whole-database invalidation (recover / repair / load)."""
        with self._mutex:
            tables = set(self._epochs) | {key[0] for key in self._entries}
            for table in tables:
                self.bump_epoch(table, reason)
        if not tables:
            # Still leave a trace that the event happened.
            self.metrics.inc(f"cache.epoch_bumps.{reason}", 0)

    # -- lookup / store -------------------------------------------------------

    def lookup(self, table: str, oid: int, kind: str = "set"
               ) -> tuple[bool, Any]:
        """Return ``(hit, value)``.  The value is the cache's private copy —
        callers must copy before mutating (the storage/manager read paths
        do).  A stale entry (epoch behind the table's) counts as a miss and
        is dropped on the spot."""
        key = (table, oid, kind)
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                value, size, epoch = entry
                if epoch == self.epoch(table):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self.metrics.inc("cache.hits")
                    return True, value
                del self._entries[key]
                self.used_bytes -= size
                self.invalidations += 1
                self.metrics.inc("cache.invalidations")
            self.misses += 1
        self.metrics.inc("cache.misses")
        return False, None

    def store(self, table: str, oid: int, value: Any, size_hint: int,
              kind: str = "set") -> bool:
        """Admit ``value`` (which the cache now owns) under the table's
        current epoch.  Returns False when the entry was rejected by the
        admission guard or the cache is disabled."""
        if not self.enabled:
            return False
        size = int(size_hint) + ENTRY_OVERHEAD
        if size > self.max_entry_bytes:
            with self._mutex:
                self.rejections += 1
            self.metrics.inc("cache.rejections")
            return False
        key = (table, oid, kind)
        with self._mutex:
            old = self._entries.pop(key, None)
            if old is not None:
                self.used_bytes -= old[1]
            self._entries[key] = (value, size, self.epoch(table))
            self.used_bytes += size
            self.stores += 1
            self.metrics.inc("cache.stores")
            self._evict_to_fit()
        return True

    def invalidate(self, table: str, oid: int) -> None:
        """Precise invalidation: drop every kind of entry for one tuple."""
        with self._mutex:
            for kind in ("set", "texts"):
                entry = self._entries.pop((table, oid, kind), None)
                if entry is not None:
                    self.used_bytes -= entry[1]
                    self.invalidations += 1
                    self.metrics.inc("cache.invalidations")

    def _evict_to_fit(self) -> None:
        # Caller holds self._mutex.
        while self.used_bytes > self.capacity_bytes and self._entries:
            _key, (_value, size, _epoch) = self._entries.popitem(last=False)
            self.used_bytes -= size
            self.evictions += 1
            self.metrics.inc("cache.evictions")

    # -- reporting ------------------------------------------------------------

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Lifetime counters + current occupancy (the ``\\cache`` view)."""
        with self._mutex:
            return {
                "capacity_bytes": self.capacity_bytes,
                "used_bytes": self.used_bytes,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate(),
                "stores": self.stores,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "rejections": self.rejections,
                "epoch_bumps": self.epoch_bumps,
            }

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Entries are process state: a loaded image starts cold, so replayed
        # or repaired history can never resurface through the cache.  The
        # mutex is process state too (unpicklable by construction).
        with self._mutex:
            state = self.__dict__.copy()
        state["_entries"] = OrderedDict()
        state["used_bytes"] = 0
        state["_epochs"] = {}
        del state["_mutex"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Caches pickled before the concurrency era carried entries but no
        # mutex; either way the restored cache starts cold with a fresh one.
        self.__dict__.setdefault("_entries", OrderedDict())
        self.__dict__.setdefault("_epochs", {})
        self.__dict__.setdefault("used_bytes", 0)
        self._mutex = threading.RLock()


class CacheInvalidator:
    """Per-table maintenance observer that turns every summary mutation
    event into a precise cache invalidation.

    Registered on the ``(table, "*")`` channel (which sees one
    ``on_objects_write``/``on_objects_delete`` per storage write) *and*
    implementing the classifier-channel :class:`SummaryObserver` protocol,
    so a cache entry cannot outlive the storage row it mirrors no matter
    which hook fires first.
    """

    def __init__(self, cache: SummaryCache, table: str) -> None:
        self.cache = cache
        self.table = table

    # consolidated per-storage-write events ("*" channel)
    def on_objects_write(self, oid: int, objects: dict, previous=None) -> None:
        self.cache.invalidate(self.table, oid)

    def on_objects_delete(self, oid: int, previous=None) -> None:
        self.cache.invalidate(self.table, oid)

    # classifier-channel events (SummaryObserver protocol)
    def on_summary_insert(self, oid: int, obj) -> None:
        self.cache.invalidate(self.table, oid)

    def on_summary_update(self, oid: int, old_counts, new_counts) -> None:
        self.cache.invalidate(self.table, oid)

    def on_tuple_delete(self, oid: int, counts) -> None:
        self.cache.invalidate(self.table, oid)
