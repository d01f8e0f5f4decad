"""Bounded cache of decoded summary sets.

Every summary-aware operator ends in the same hot path: find a tuple's
``R_SummaryStorage`` row through the OID index, read it, and JSON-decode the
full de-normalized summary set — even when the same OID is touched hundreds
of times per query or per propagation batch.  :class:`SummaryCache` memoizes
that work in front of :class:`~repro.summaries.storage.SummaryStorage`.

Design, in the order the invariants matter:

* **Keying.**  Entries are keyed ``(table, oid)`` and hold the tuple's
  decoded ``{instance -> SummaryObject}`` mapping; a ``None`` value is a
  *negative* entry (the tuple has no storage row).  Every summary read —
  label predicates, keyword search, propagation — goes through
  ``SummaryStorage.get_many`` and so through these entries; keyword
  search keeps its texts on the cached objects
  (``SnippetObject.search_texts``).

* **Coherence.**  One rule keeps every entry equal to its row.  A row
  write invalidates its one entry (``invalidate``) *after* the heap
  change, from a ``finally`` in ``SummaryStorage.put``/``delete``, which
  every writer of a row ends in; the one whole-store event, repair,
  calls ``clear()``.  Both bump one write counter, ``writes``.  A miss
  fills the cache only under the count read before its lookup
  (``store``'s ``token``): a reader that read the row before a write
  finished either stores before that write's invalidation, which then
  drops the entry, or after it, when its token no longer matches.

* **Sharing.**  A hit returns the stored value itself: decoded summary
  objects are immutable, so no reader can poison an entry
  (writers copy, through ``SummaryStorage.get_for_update``).

* **Batches.**  ``lookup_many`` answers a scan batch's OIDs under one
  mutex hold; ``lookup`` is its one-OID case.  The ``cache.hits``/
  ``misses`` counters move once per call, by the same totals as one
  lookup per OID.

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
    """LRU cache of decoded summary sets, kept coherent by one write
    counter."""

    def __init__(
        self,
        capacity_bytes: int = 0,
        metrics: MetricsRegistry | None = None,
        max_entry_fraction: float = MAX_ENTRY_FRACTION,
    ) -> None:
        self.capacity_bytes = max(int(capacity_bytes), 0)
        self.max_entry_fraction = max_entry_fraction
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: (table, oid) -> (value, size_bytes); OrderedDict in LRU order
        #: (least-recent first).
        self._entries: "OrderedDict[tuple[str, int], tuple[Any, int]]" = (
            OrderedDict()
        )
        self.used_bytes = 0
        #: invalidations and clears so far: the token a fill must match.
        self.writes = 0
        # One mutex over entries, occupancy, the write counter and the
        # lifetime counters: lookup's hit path mutates LRU order, and a
        # fill's token check must be atomic with its admission.
        # Reentrant because resize calls clear under it.
        self._mutex = threading.RLock()
        # Lifetime counters (survive MetricsRegistry.reset; the registry
        # mirror is what EXPLAIN ANALYZE diffs).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        self.rejections = 0

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
        """Drop every entry and refuse every fill in flight (capacity is
        untouched)."""
        with self._mutex:
            self._entries.clear()
            self.used_bytes = 0
            self.writes += 1
        self.metrics.inc("cache.clears")

    # -- lookup / store -------------------------------------------------------

    def lookup(self, table: str, oid: int) -> tuple[bool, Any]:
        """Return ``(hit, value)``: :meth:`lookup_many` of one OID."""
        return self.lookup_many(table, (oid,))[0]

    def lookup_many(self, table: str, oids) -> list[tuple[bool, Any]]:
        """``(hit, value)`` per OID, in order, under one mutex hold; the
        value is the stored (immutable) object itself, shared with every
        other reader.  Counters move once per call, by the totals of one
        lookup per OID."""
        out: list[tuple[bool, Any]] = []
        hits = 0
        entries = self._entries
        with self._mutex:
            for oid in oids:
                key = (table, oid)
                entry = entries.get(key)
                if entry is None:
                    out.append((False, None))
                    continue
                entries.move_to_end(key)
                hits += 1
                out.append((True, entry[0]))
            misses = len(out) - hits
            self.hits += hits
            self.misses += misses
        if hits:
            self.metrics.inc("cache.hits", hits)
        if misses:
            self.metrics.inc("cache.misses", misses)
        return out

    def store(self, table: str, oid: int, value: Any, size_hint: int,
              token: int) -> bool:
        """Admit the immutable ``value`` read after :attr:`writes` was
        ``token``; refused if an invalidation or clear came since, as the
        value may predate that write.  Returns False when the entry was
        not admitted."""
        if not self.enabled:
            return False
        size = int(size_hint) + ENTRY_OVERHEAD
        if size > self.max_entry_bytes:
            with self._mutex:
                self.rejections += 1
            self.metrics.inc("cache.rejections")
            return False
        key = (table, oid)
        with self._mutex:
            if token != self.writes:
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self.used_bytes -= old[1]
            self._entries[key] = (value, size)
            self.used_bytes += size
            self.stores += 1
            self.metrics.inc("cache.stores")
            self._evict_to_fit()
        return True

    def invalidate(self, table: str, oid: int) -> None:
        """A row write finished: drop its entry and refuse every fill in
        flight."""
        with self._mutex:
            self.writes += 1
            entry = self._entries.pop((table, oid), None)
            if entry is not None:
                self.used_bytes -= entry[1]
                self.invalidations += 1
                self.metrics.inc("cache.invalidations")

    def _evict_to_fit(self) -> None:
        # Caller holds self._mutex.
        while self.used_bytes > self.capacity_bytes and self._entries:
            _key, (_value, size) = self._entries.popitem(last=False)
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
        del state["_mutex"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Caches from before the concurrency era pickled their entries:
        # every restored cache starts cold, with a fresh mutex.  (Fields
        # older images carry that nothing reads any more stay inert.)
        self.__dict__.update(state, _entries=OrderedDict(), used_bytes=0)
        self.__dict__.setdefault("writes", 0)
        self._mutex = threading.RLock()
