"""Statistics over data columns and annotation summaries (§5.2, Figure 6).

For each summary instance linked to a relation, InsightNotes maintains the
average object size; for each classifier label it additionally keeps
``{Min, Max, NumDistinct, Equi-Width Histogram}`` over the label's count
field. These are the inputs to the cardinality estimates of the
summary-based operators.

The paper's write traffic is annotations, so the summary side is kept as
*mergeable accumulators* — per label a frequency map ``count value ->
number of stored objects``, per instance a size sum and an object count —
that every summary-storage write adjusts by the difference between the
row's old and new :func:`~repro.summaries.maintenance.row_footprint`.
:meth:`StatisticsCatalog.analyze` folds every stored row into empty
accumulators, so both routes share one representation and one derivation,
and at every statement boundary ``table_stats(t)`` equals a from-scratch
``analyze(t)``.  Data-column statistics stay scan-built (ANALYZE-style)
and are rescanned only after row DML moved ``Table.data_version``.

The planner does not read those exact statistics: it prices with a
*published* per-table snapshot (:class:`PublishedStats`), republished
the way PostgreSQL's autovacuum re-ANALYZEs — once the row events since
the last publish reach ``REPUBLISH_THRESHOLD + REPUBLISH_SCALE_FACTOR ×
rows`` — and on ``Database.analyze``, ``mark_stale`` and every plan-cache
epoch bump.  A cached plan therefore stays valid until the statistics it
priced with are republished (DESIGN.md §5n).
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.catalog.table import Table
from repro.optimizer.cost import summary_read_discount
from repro.summaries.maintenance import (
    RowFootprint,
    SummaryManager,
    row_footprint,
)
from repro.summaries.storage import SummaryStorage

DEFAULT_BUCKETS = 16
#: PostgreSQL's ``autovacuum_analyze_threshold`` and
#: ``autovacuum_analyze_scale_factor``: a table's statistics are
#: republished once ``THRESHOLD + SCALE_FACTOR × published row_count``
#: row events have landed since its last publish.
REPUBLISH_THRESHOLD = 50
REPUBLISH_SCALE_FACTOR = 0.1


@dataclass
class Histogram:
    """Equi-width histogram over a numeric domain."""

    lo: float
    hi: float
    buckets: list[int]

    @classmethod
    def build(cls, values: list[float], num_buckets: int = DEFAULT_BUCKETS) -> "Histogram":
        # Non-finite inputs are dropped, not clamped: a single NaN/inf used
        # to poison lo/hi (and thereby every bucket boundary), silently
        # skewing all later estimates for the column.
        return cls.from_frequencies(
            Counter(float(v) for v in values if math.isfinite(v)), num_buckets
        )

    @classmethod
    def from_frequencies(
        cls, freq: Mapping[float, int], num_buckets: int = DEFAULT_BUCKETS
    ) -> "Histogram":
        """Histogram of a multiset given as ``value -> occurrences``."""
        if not freq:
            return cls(0.0, 0.0, [0] * num_buckets)
        hist = cls(float(min(freq)), float(max(freq)), [0] * num_buckets)
        for value, n in freq.items():
            hist.buckets[hist._bucket_of(value)] += n
        return hist

    @property
    def total(self) -> int:
        return sum(self.buckets)

    def _width(self) -> float:
        return (self.hi - self.lo) / len(self.buckets) if self.hi > self.lo else 1.0

    def _bucket_of(self, value: float) -> int:
        if self.hi <= self.lo:
            return 0
        idx = int((value - self.lo) / self._width())
        return min(max(idx, 0), len(self.buckets) - 1)

    def selectivity_eq(self, value: float, ndistinct: int) -> float:
        """Fraction of rows expected to equal ``value``."""
        if self.total == 0:
            return 0.0
        if value < self.lo or value > self.hi:
            return 0.0
        if self.hi == self.lo:
            # One-value domain: exact, not a bucket-spread estimate.
            return 1.0 if value == self.lo else 0.0
        bucket = self.buckets[self._bucket_of(value)]
        per_value = bucket / max(self.total, 1)
        # Assume values spread evenly inside the bucket.
        values_per_bucket = max(ndistinct / len(self.buckets), 1.0)
        return per_value / values_per_bucket

    def selectivity_range(
        self, lo: float | None, hi: float | None
    ) -> float:
        """Fraction of rows expected within [lo, hi]."""
        if self.total == 0:
            return 0.0
        lo = self.lo if lo is None else lo
        hi = self.hi if hi is None else hi
        if hi < self.lo or lo > self.hi or hi < lo:
            return 0.0
        if self.hi == self.lo:
            # One-value domain: the synthetic bucket width used to make a
            # range like [v, v] compute zero overlap and return 0.0 even
            # though every row matches.  The disjointness test above already
            # rejected ranges that miss the value, so this range contains it.
            return 1.0
        width = self._width()
        count = 0.0
        for i, bucket in enumerate(self.buckets):
            b_lo = self.lo + i * width
            b_hi = b_lo + width
            overlap = max(0.0, min(hi, b_hi) - max(lo, b_lo))
            if width > 0:
                count += bucket * min(overlap / width, 1.0)
            elif lo <= b_lo <= hi:
                count += bucket
        return min(count / self.total, 1.0)


@dataclass
class LabelStats:
    """Figure 6's per-classifier-label statistics."""

    min: int
    max: int
    ndistinct: int
    histogram: Histogram

    @classmethod
    def build(cls, counts: list[int]) -> "LabelStats":
        return cls.from_frequencies(Counter(counts))

    @classmethod
    def from_frequencies(cls, freq: Mapping[int, int]) -> "LabelStats":
        """Stats of a label whose count field takes value ``v`` on
        ``freq[v]`` tuples."""
        if not freq:
            return cls(0, 0, 0, Histogram.from_frequencies({}))
        return cls(
            min(freq), max(freq), len(freq), Histogram.from_frequencies(freq)
        )


@dataclass
class ColumnStats:
    ndistinct: int
    min: object = None
    max: object = None
    histogram: Histogram | None = None

    @classmethod
    def build(cls, values: list[object]) -> "ColumnStats":
        non_null = [v for v in values if v is not None]
        if not non_null:
            return cls(0)
        numeric = all(isinstance(v, (int, float)) for v in non_null)
        return cls(
            ndistinct=len(set(non_null)),
            min=min(non_null),
            max=max(non_null),
            histogram=(
                Histogram.build([float(v) for v in non_null]) if numeric else None
            ),
        )


@dataclass
class InstanceStats:
    """Per summary instance on one relation."""

    avg_object_size: float
    #: classifier label -> stats on the count field
    labels: dict[str, LabelStats] = field(default_factory=dict)


@dataclass
class TableStats:
    row_count: int
    heap_pages: int
    summary_pages: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    instances: dict[str, InstanceStats] = field(default_factory=dict)

    def label_stats(self, instance: str, label: str) -> LabelStats | None:
        inst = self.instances.get(instance)
        return None if inst is None else inst.labels.get(label)


@dataclass(frozen=True)
class PublishedStats:
    """What the planner prices one table with: its statistics and the
    summary-cache discount, frozen at publish ``version``.  Never mutated;
    a republish replaces it."""

    stats: TableStats
    #: :func:`~repro.optimizer.cost.summary_read_discount` at publish.
    discount: float
    #: process-wide publish number — the plan-cache stamp input.
    version: int
    #: the table's row-event count at publish.
    event: int

    def due(self, events: int) -> bool:
        """True once ``events`` (the table's count now) has moved far
        enough past the publish to republish."""
        return events - self.event >= (
            REPUBLISH_THRESHOLD
            + REPUBLISH_SCALE_FACTOR * self.stats.row_count
        )


class _TableState:
    """What the catalog keeps per table: the column statistics of the last
    heap scan, and the mergeable accumulators behind Figure 6."""

    def __init__(self) -> None:
        #: True until a full fold: the accumulators say nothing yet, and
        #: deltas are dropped (the fold will see the rows themselves).
        self.cold = True
        self.columns: dict[str, ColumnStats] = {}
        #: ``Table.data_version`` the columns were scanned at.
        self.columns_version = -1
        #: instance -> [sum of stored object sizes, stored objects]
        self.sizes: dict[str, list[int]] = {}
        #: instance -> label -> count value -> stored objects carrying it
        self.freqs: dict[str, dict[str, dict[int, int]]] = {}
        #: derived stats per (instance, label); a label whose frequency
        #: map moves loses its entry, so absence is the dirty flag.
        self._label_stats: dict[tuple[str, str], LabelStats] = {}
        #: the zero fill every cached LabelStats was derived with.
        self._zero_fill = 0
        self._instances: dict[str, InstanceStats] | None = None

    def replace(self, old: RowFootprint, new: RowFootprint) -> None:
        """One storage row went from contributing ``old`` to ``new``."""
        self._shift(old, -1, new)
        self._shift(new, +1, old)

    def _shift(self, footprint: RowFootprint, sign: int,
               other: RowFootprint) -> None:
        """Add (``sign`` +1) or retract (-1) one row's footprint; labels
        that carry the same count in ``other`` cancel out and are left
        alone, so a write invalidates only the labels it moved."""
        for name, (size, counts) in footprint.items():
            entry = self.sizes.setdefault(name, [0, 0])
            entry[0] += sign * size
            entry[1] += sign
            if not entry[1]:
                del self.sizes[name]
            if not counts:
                continue
            same = other.get(name, (0, None))[1] or {}
            per_label = self.freqs.setdefault(name, {})
            for label, count in counts.items():
                if same.get(label) == count:
                    continue
                freq = per_label.setdefault(label, {})
                n = freq.get(count, 0) + sign
                if n:
                    freq[count] = n
                else:
                    del freq[count]
                    if not freq:
                        del per_label[label]
                self._label_stats.pop((name, label), None)
            if not per_label:
                del self.freqs[name]
        self._instances = None

    def derive(self, zero_fill: int) -> dict[str, InstanceStats]:
        """Figure 6 from the accumulators.  ``zero_fill`` un-annotated
        tuples count as zero for every label (the optimizer must see them
        when estimating e.g. "Provenance = 0").  Only labels whose
        frequencies moved — or all of them, when the zero fill did — are
        rebuilt; returned objects are never mutated afterwards."""
        if zero_fill != self._zero_fill:
            self._zero_fill = zero_fill
            self._label_stats.clear()
        elif self._instances is not None:
            return self._instances
        instances = {}
        for name, (size_sum, n_objects) in self.sizes.items():
            labels = {}
            for label, freq in self.freqs.get(name, {}).items():
                stats = self._label_stats.get((name, label))
                if stats is None:
                    if zero_fill:
                        freq = {**freq, 0: freq.get(0, 0) + zero_fill}
                    stats = LabelStats.from_frequencies(freq)
                    self._label_stats[name, label] = stats
                labels[label] = stats
            instances[name] = InstanceStats(size_sum / n_objects, labels)
        self._instances = instances
        return instances


class StatisticsCatalog:
    """Collects and serves statistics; subscribes to each attached table's
    summary-storage events so annotation traffic never forces a rescan."""

    def __init__(self, catalog: Catalog, manager: SummaryManager):
        self.catalog = catalog
        self.manager = manager
        #: attached tables only: a table nobody delivers storage events
        #: for cannot be kept current, so it is analyzed on every use.
        self._tables: dict[str, _TableState] = {}
        # Storage events arrive from writers while planners read.
        self._mutex = threading.RLock()
        #: held by writers while they move rows and emit the matching
        #: events; the owning Database installs its commit mutex.
        self.write_lock = threading.RLock()
        self._init_publication()

    def _init_publication(self) -> None:
        """Process state, never part of an image: a loaded, recovered or
        replica database starts unpublished."""
        #: per table, the storage-row events seen in this process.
        self._events: dict[str, int] = {}
        #: per table, the snapshot the planner prices with.
        self._published: dict[str, PublishedStats] = {}
        self._versions = itertools.count(1)
        #: publishes since the last metrics reset.
        self.publishes = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for key in ("_mutex", "write_lock", "_events", "_published",
                    "_versions", "publishes"):
            del state[key]
        return state

    def __setstate__(self, state: dict) -> None:
        # Images from before the accumulators carry finished TableStats
        # and a stale set; neither can be maintained, so such a catalog
        # starts with no table state and folds on first use.
        self.catalog = state["catalog"]
        self.manager = state["manager"]
        self._tables = state.get("_tables", {})
        self._mutex = threading.RLock()
        self.write_lock = threading.RLock()
        self._init_publication()

    # -- subscription -------------------------------------------------------------

    def attach(self, table_name: str) -> None:
        """Subscribe to ``table_name``'s storage-row events (idempotent)."""
        key = table_name.lower()
        with self._mutex:
            if key in self._tables:
                return
            self._tables[key] = _TableState()
        self.manager.add_observer(key, _TableObserver(self, key))

    def resubscribe(self) -> None:
        """After an image load (subscriptions are process state):
        subscribe every attached table again, attaching the catalog
        tables an image from before the accumulators lacks."""
        with self._mutex:
            for name in self.catalog.table_names():
                self._tables.setdefault(name.lower(), _TableState())
            tables = list(self._tables)
        for key in tables:
            self.manager.add_observer(key, _TableObserver(self, key))

    def mark_stale(self, table: str) -> None:
        """Distrust ``table``'s accumulators: the next use folds again
        and republishes.  For rows rewritten behind the manager's back
        (repair)."""
        with self._mutex:
            state = self._tables.get(table.lower())
            if state is not None:
                state.cold = True
        self.unpublish(table)

    def _row_changed(self, key: str, old: RowFootprint | None,
                     objects: dict | None) -> None:
        """The row that contributed ``old`` now holds ``objects``."""
        with self._mutex:
            self._events[key] = self._events.get(key, 0) + 1
            state = self._tables.get(key)
            if state is None or state.cold:
                return
            state.replace(old or {}, row_footprint(objects) if objects else {})
        self.manager.metrics.inc("stats.incremental_deltas")

    # -- collection ---------------------------------------------------------------

    def analyze(self, table_name: str) -> TableStats:
        """From-scratch statistics of one table: scan the heap for the
        columns, fold every stored summary row into empty accumulators."""
        table = self.catalog.table(table_name)
        key = table_name.lower()
        self.manager.metrics.inc("stats.full_analyze")
        # The fold must see no write half-done.
        with self.write_lock:
            storage = self.manager.storage_for(key)
            state = _TableState()
            state.columns_version = table.data_version
            rows = [values for _, values in table.scan()]
            state.columns = {
                col.name: ColumnStats.build([r[i] for r in rows])
                for i, col in enumerate(table.schema.columns)
            }
            for _, objects in storage.scan():
                state.replace({}, row_footprint(objects))
            state.cold = False
            with self._mutex:
                if key in self._tables:
                    self._tables[key] = state
                return self._derive(table, storage, state)

    def table_stats(self, table_name: str) -> TableStats:
        """Current statistics of a table; a full :meth:`analyze` only when
        the accumulators are cold or row DML outdated the column scan."""
        table = self.catalog.table(table_name)
        key = table_name.lower()
        storage = self.manager.storage_for(key)
        with self._mutex:
            state = self._tables.get(key)
            if (
                state is not None
                and not state.cold
                and state.columns_version == table.data_version
            ):
                return self._derive(table, storage, state)
        return self.analyze(table_name)

    @staticmethod
    def _derive(table: Table, storage: SummaryStorage,
                state: _TableState) -> TableStats:
        rows = len(table)
        return TableStats(
            row_count=rows,
            heap_pages=max(table.heap.num_pages, 1),
            summary_pages=max(storage.num_pages, 1),
            columns=state.columns,
            instances=state.derive(max(rows - len(storage), 0)),
        )

    # -- publication ----------------------------------------------------------------

    def events(self, table_name: str) -> int:
        """Row events ``table_name`` has seen: storage-row events in this
        process plus row writes (``data_version``)."""
        return (self._events.get(table_name.lower(), 0)
                + self.catalog.table(table_name).data_version)

    def published(self, table_name: str) -> PublishedStats:
        """The snapshot the planner prices ``table_name`` with, published
        first when there is none or the row events since call for it."""
        key = table_name.lower()
        events = self.events(table_name)
        with self._mutex:
            snapshot = self._published.get(key)
        if snapshot is not None and not snapshot.due(events):
            return snapshot
        # The event count is read before the statistics: a write that
        # lands in between counts toward the next publish.
        snapshot = PublishedStats(
            stats=self.table_stats(table_name),
            discount=summary_read_discount(self.manager.cache),
            version=next(self._versions),
            event=events,
        )
        with self._mutex:
            self._published[key] = snapshot
            self.publishes += 1
        return snapshot

    def unpublish(self, table_name: str | None = None) -> None:
        """Drop ``table_name``'s snapshot (every table's when None): the
        next plan over it republishes."""
        with self._mutex:
            if table_name is None:
                self._published.clear()
            else:
                self._published.pop(table_name.lower(), None)

    def describe(self, table_name: str, snapshot: PublishedStats) -> str:
        """One line saying what a plan over ``table_name`` priced with."""
        since = self.events(table_name) - snapshot.event
        return (f"stats: {table_name} published at event {snapshot.event}, "
                f"{since} since (discount {snapshot.discount:.3g})")


class _TableObserver:
    """A table's subscription on the ``"*"`` channel: turns each
    storage-row event into an accumulator delta."""

    def __init__(self, stats: StatisticsCatalog, table: str):
        self._stats = stats
        self._table = table

    def on_objects_write(self, oid, objects, previous) -> None:
        self._stats._row_changed(self._table, previous, objects)

    def on_objects_delete(self, oid, previous) -> None:
        self._stats._row_changed(self._table, previous, None)
