"""Incremental summary maintenance (§2 + §4.1.2).

:class:`SummaryManager` owns the summary-instance registry, the per-table
``R_SummaryStorage`` tables, the per-tuple CluStream states, and the
annotation store. Every annotation mutation flows through it:

* **Adding an annotation on an un-annotated tuple** creates the tuple's
  storage row (the paper's *Insertion* case) and notifies index observers
  with the fresh classifier objects.
* **Adding on an already-annotated tuple** updates the affected summary
  objects in place (*Update* case); observers receive old/new label counts
  so a Summary-BTree can delete+re-insert only the modified keys.
* **Deleting an annotation / a tuple** reverses those effects.

Index structures subscribe per ``(table, instance)`` to classifier-count
events; the optimizer statistics, the cache and the text indexes subscribe
per table (the ``"*"`` channel) to storage-row events that carry the row's
previous :func:`row_footprint` — the paper's "statistics are maintained
whenever a summary object is updated" (§5.2).

**Maintenance modes.**  ``deferred`` selects how much of that work rides
the write path (set by the owning :class:`~repro.core.database.Database`
from ``Database(summary_async=)``; a bare manager runs synchronously):

* ``False`` — classic incremental maintenance inside the write.
* ``True`` — writes only append the raw annotation and mark the tuple
  stale in :class:`~repro.summaries.background.PendingSummaryWork`; a
  background :class:`~repro.summaries.background.MaintenanceWorker`
  regenerates stale tuples in batches; reads serve the last-generated
  objects and surface ``summary_status: fresh|stale`` instead of blocking.

Regeneration recomputes a tuple's summary objects from its raw
annotations in ``ann_id`` order, which reproduces the incremental
classifier/snippet results byte-for-byte; cluster objects are rebuilt
from scratch (canonical form — CluStream's incremental *remove* is
path-dependent, so regeneration defines the converged grouping).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Protocol

from repro.annotations.annotation import Annotation, AnnotationTarget
from repro.annotations.store import AnnotationStore
from repro.cache import DEFAULT_CACHE_BYTES, CacheInvalidator, SummaryCache
from repro.errors import SummaryError, UnknownInstanceError
from repro.summaries.background import PendingSummaryWork
from repro.mining.clustream import CluStream
from repro.obs.metrics import MetricsRegistry
from repro.storage.buffer import BufferPool
from repro.summaries.functions import SummarySet
from repro.summaries.instances import (
    ClassifierInstance,
    ClusterInstance,
    SnippetInstance,
    SummaryInstance,
)
from repro.summaries.objects import (
    ClassifierObject,
    ClusterGroup,
    ClusterObject,
    SnippetObject,
    SummaryObject,
)
from repro.summaries.storage import SummaryStorage


class SummaryObserver(Protocol):
    """Observer notified of classifier summary-object changes."""

    def on_summary_insert(self, oid: int, obj: ClassifierObject) -> None:
        """A new storage row was created carrying ``obj``."""

    def on_summary_update(
        self, oid: int, old_counts: dict[str, int], new_counts: dict[str, int]
    ) -> None:
        """An existing classifier object changed label counts."""

    def on_tuple_delete(self, oid: int, counts: dict[str, int]) -> None:
        """The tuple (and its summary row) was deleted."""


#: instance name -> (stored object size, classifier label counts or None)
RowFootprint = dict[str, tuple[int, "dict[str, int] | None"]]


class StorageRowObserver(Protocol):
    """Observer on a table's ``"*"`` channel: one event per storage-row
    write or delete, whatever the summary types involved.  ``previous`` is
    the :func:`row_footprint` of the row being replaced or dropped (None
    when the write created the row)."""

    def on_objects_write(
        self, oid: int, objects: dict[str, SummaryObject],
        previous: RowFootprint | None,
    ) -> None:
        """The row of ``oid`` now holds ``objects``."""

    def on_objects_delete(self, oid: int, previous: RowFootprint) -> None:
        """The row of ``oid`` was dropped."""


def row_footprint(objects: dict[str, SummaryObject]) -> RowFootprint:
    """What one stored row contributes to the Figure 6 statistics.

    Taken from objects fresh out of (or just written to) storage, whose
    ``stored_size`` the storage layer measured on the row's own bytes; the
    maintenance paths take it *before* mutating the objects so observers
    can retract exactly what the old row contributed.
    """
    return {
        name: (
            obj.stored_size,
            dict(obj.rep()) if isinstance(obj, ClassifierObject) else None,
        )
        for name, obj in objects.items()
    }


class SummaryManager:
    """The summary subsystem's single entry point."""

    #: (table, oid) -> live annotation ids attached there; None = lazily
    #: rebuilt from the annotation store on first use (old images).
    _targets_index: "dict[tuple[str, int], set[int]] | None" = None
    #: callback the owning Database installs so regeneration never
    #: resurrects a summary row for a deleted data tuple.
    tuple_exists = None
    #: callback that nudges the background worker when work goes pending.
    maint_wake = None

    def __init__(
        self,
        pool: BufferPool,
        metrics: MetricsRegistry | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ):
        #: maintenance-event counters (``maint.*``); shared with the owning
        #: Database's registry so EXPLAIN ANALYZE can report deltas.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: shared summary-set cache in front of every SummaryStorage.
        self.cache = SummaryCache(cache_bytes, metrics=self.metrics)
        self._cell_annotated: set[str] = set()
        #: black-box summary-set UDFs (§3.2): name -> callable(SummarySet)
        self.udfs: dict[str, object] = {}
        self.pool = pool
        self.annotations = AnnotationStore(pool)
        self._instances: dict[str, SummaryInstance] = {}
        self._links: dict[str, list[str]] = defaultdict(list)  # table -> names
        self._storages: dict[str, SummaryStorage] = {}
        self._clusterers: dict[tuple[str, int, str], CluStream] = {}
        #: (table, instance) -> observers
        self._observers: dict[tuple[str, str], list[SummaryObserver]] = defaultdict(list)
        #: True defers summary work off the write path; only ever set by
        #: the owning Database — a bare manager maintains synchronously.
        self.deferred = False
        #: staleness set of deferred maintenance.
        self.pending = PendingSummaryWork()
        self._targets_index = {}
        #: serializes regeneration against foreground writers; the owning
        #: Database replaces it with its commit mutex.
        self.regen_lock = threading.RLock()

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Locks, thread-locals, and the Database-installed callbacks are
        # process state, never image state.
        state = self.__dict__.copy()
        for key in ("regen_lock", "tuple_exists", "maint_wake"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Images from before PR 24 carry a mode string; the owning
        # Database re-installs the mode it loads with.
        state.pop("async_mode", None)
        self.__dict__.update(state)
        self.__dict__.setdefault("deferred", False)
        self.__dict__.setdefault("pending", PendingSummaryWork())
        # None → rebuilt lazily from the annotation store on first use.
        self.__dict__.setdefault("_targets_index", None)
        if "cache" not in state:
            # Pre-cache image: give it the cache a new manager would own.
            self.cache = SummaryCache(DEFAULT_CACHE_BYTES, self.metrics)
            for table, storage in self._storages.items():
                storage.cache = self.cache
                self.add_observer(
                    table, "*", CacheInvalidator(self.cache, table)
                )
        self.regen_lock = threading.RLock()
        self.tuple_exists = None
        self.maint_wake = None

    # -- instance registry ---------------------------------------------------------

    def create_classifier_instance(
        self,
        name: str,
        labels: list[str],
        seed_examples: list[tuple[str, str]] | None = None,
    ) -> ClassifierInstance:
        """Define a Classifier summary instance and seed-train its model."""
        instance = ClassifierInstance(name=name, labels=list(labels))
        if seed_examples:
            instance.train(seed_examples)
        self._register(instance)
        return instance

    def create_hierarchical_classifier_instance(
        self,
        name: str,
        tree_spec: dict,
        seed_examples: list[tuple[str, str]] | None = None,
    ):
        """Define a multi-level Classifier instance (future-work §8): the
        Naive Bayes model classifies to the hierarchy's leaves; inner nodes
        roll up at query time."""
        from repro.summaries.hierarchy import (
            HierarchicalClassifierInstance,
            LabelTree,
        )

        tree = tree_spec if isinstance(tree_spec, LabelTree) else LabelTree(tree_spec)
        instance = HierarchicalClassifierInstance(
            name=name, labels=tree.leaves(), tree=tree
        )
        if seed_examples:
            instance.train(seed_examples)
        self._register(instance)
        return instance

    def create_snippet_instance(
        self, name: str, min_chars: int = 1000, max_chars: int = 400
    ) -> SnippetInstance:
        """Define a Snippet summary instance."""
        instance = SnippetInstance(name=name, min_chars=min_chars, max_chars=max_chars)
        self._register(instance)
        return instance

    def create_cluster_instance(self, name: str, **kwargs) -> ClusterInstance:
        """Define a Cluster summary instance."""
        instance = ClusterInstance(name=name, **kwargs)
        self._register(instance)
        return instance

    def _register(self, instance: SummaryInstance) -> None:
        if instance.name in self._instances:
            raise SummaryError(f"summary instance {instance.name!r} already exists")
        self._instances[instance.name] = instance

    def instance(self, name: str) -> SummaryInstance:
        if name not in self._instances:
            raise UnknownInstanceError(f"no summary instance named {name!r}")
        return self._instances[name]

    def has_instance(self, name: str) -> bool:
        return name in self._instances

    # -- table links (Alter Table ... Add <InstanceName>) -----------------------------

    def link(self, table: str, instance_name: str) -> None:
        """Link a summary instance to a relation (§2.1)."""
        self.instance(instance_name)  # validate
        table = table.lower()
        if instance_name in self._links[table]:
            raise SummaryError(
                f"instance {instance_name!r} already linked to {table!r}"
            )
        self._links[table].append(instance_name)

    def unlink(self, table: str, instance_name: str) -> None:
        """Drop the link (Alter Table ... Drop <InstanceName>)."""
        table = table.lower()
        if instance_name not in self._links[table]:
            raise SummaryError(f"instance {instance_name!r} not linked to {table!r}")
        self._links[table].remove(instance_name)

    def instances_for(self, table: str) -> list[SummaryInstance]:
        return [self._instances[n] for n in self._links[table.lower()]]

    def is_linked(self, table: str, instance_name: str) -> bool:
        return instance_name in self._links[table.lower()]

    def tables_with_instance(self, instance_name: str) -> list[str]:
        return [t for t, names in self._links.items() if instance_name in names]

    def storage_for(self, table: str) -> SummaryStorage:
        table = table.lower()
        if table not in self._storages:
            self._storages[table] = SummaryStorage(
                table, self.pool, cache=self.cache
            )
            # Observer-driven invalidation: the "*" channel sees one
            # event per storage write/delete for this table.
            self.add_observer(table, "*", CacheInvalidator(self.cache, table))
        return self._storages[table]

    # -- observers ----------------------------------------------------------------

    def add_observer(
        self, table: str, instance_name: str, observer: SummaryObserver
    ) -> None:
        self._observers[(table.lower(), instance_name)].append(observer)

    def remove_observer(
        self, table: str, instance_name: str, observer: SummaryObserver
    ) -> None:
        """Detach one observer.  Idempotent: detaching an observer that is
        not (or no longer) registered is a no-op, so teardown paths that
        overlap — ``ALTER TABLE … DROP`` clearing a channel and
        ``drop_summary_index`` removing its index — compose safely."""
        observers = self._observers.get((table.lower(), instance_name))
        if observers is None:
            return
        try:
            observers.remove(observer)
        except ValueError:
            pass

    def clear_observers(self, table: str, instance_name: str) -> None:
        """Detach *every* observer on one ``(table, instance)`` channel.

        The DROP path uses this rather than identity-based removal: a
        dropped link must leave nothing behind that keeps mutating a
        zombie index, whoever registered it."""
        self._observers.pop((table.lower(), instance_name), None)

    def _notify(self, table: str, instance_name: str, method: str, *args) -> None:
        self.metrics.inc(f"maint.{method}")
        for observer in self._observers.get((table.lower(), instance_name), []):
            getattr(observer, method)(*args)

    # -- annotation mutations ----------------------------------------------------------

    def register_udf(self, name: str, fn) -> None:
        """Register a black-box UDF usable in summary predicates (§3.2),
        e.g. ``Where diseaseHeavy(r.$)``.  ``fn`` receives the evaluated
        arguments (a bare ``alias.$`` evaluates to the SummarySet)."""
        self.udfs[name] = fn

    def has_cell_annotations(self, table: str) -> bool:
        """True when any annotation ever targeted specific columns of
        ``table``.  The planner's summary-index side condition: when False,
        projection-time annotation elimination is a no-op on classifier
        counts, so index probes (which see stored counts) stay equivalent
        to scan plans."""
        return table.lower() in self._cell_annotated

    def _record_targets(self, targets: list[AnnotationTarget]) -> None:
        for target in targets:
            if target.columns:
                self._cell_annotated.add(target.table.lower())

    def add_annotation(
        self, text: str, targets: list[AnnotationTarget],
        ann_id: int | None = None,
    ) -> Annotation:
        """Store a raw annotation and incrementally update every summary
        object it affects.  ``ann_id`` forces the assigned id (WAL replay).

        In deferred mode the summary work is postponed: the annotation is
        appended, attachments are recorded, and each affected tuple is
        marked stale for :meth:`regenerate_tuple` to converge later."""
        self._record_targets(targets)
        self.metrics.inc("maint.annotation_add")
        annotation = self.annotations.create(text, targets, ann_id=ann_id)
        affected = self._affected_tuples(annotation)
        self._attach_targets(annotation.ann_id, affected)
        if self.deferred:
            for table, oid in affected:
                self._mark_stale(table, oid)
            return annotation
        for table, oid in affected:
            self._apply_to_tuple(annotation, table, oid)
        return annotation

    def add_annotations_bulk(
        self, items: list[tuple[str, list[AnnotationTarget]]],
        first_id: int | None = None,
    ) -> list[Annotation]:
        """Bulk-load many annotations (initial-upload mode, §6).

        Summary objects are written back once per affected tuple instead of
        once per annotation; observers see one consolidated event per tuple.
        ``first_id`` forces the ids of the whole batch (``first_id``,
        ``first_id + 1``, …) so WAL replay of a logged bulk load reproduces
        the original identities — see :meth:`Database.add_annotations_bulk`,
        which is the durable entry point.
        """
        for _text, targets in items:
            self._record_targets(targets)
        self.metrics.inc("maint.annotation_add", len(items))
        annotations = []
        for offset, (text, targets) in enumerate(items):
            ann_id = None if first_id is None else first_id + offset
            annotations.append(
                self.annotations.create(text, targets, ann_id=ann_id)
            )
        grouped: dict[tuple[str, int], list[Annotation]] = {}
        for annotation in annotations:
            keys = self._affected_tuples(annotation)
            self._attach_targets(annotation.ann_id, keys)
            for key in keys:
                grouped.setdefault(key, []).append(annotation)
        if self.deferred:
            for table, oid in grouped:
                self._mark_stale(table, oid)
            return annotations
        for (table, oid), batch in grouped.items():
            self._apply_batch_to_tuple(batch, table, oid)
        return annotations

    def _apply_batch_to_tuple(
        self, batch: list[Annotation], table: str, oid: int
    ) -> None:
        instances = self.instances_for(table)
        if not instances:
            return
        storage = self.storage_for(table)
        objects = storage.get(oid)
        created_row = objects is None
        previous = None if created_row else row_footprint(objects)
        if objects is None:
            objects = {}
        old_counts: dict[str, dict[str, int] | None] = {}
        for instance in instances:
            obj = objects.get(instance.name)
            if obj is None:
                old_counts[instance.name] = None
                objects[instance.name] = instance.new_object(oid)
            elif isinstance(obj, ClassifierObject):
                old_counts[instance.name] = dict(obj.rep())
        for annotation in batch:
            columns = annotation.columns_on(table, oid)
            for instance in instances:
                obj = objects[instance.name]
                if isinstance(instance, ClassifierInstance):
                    assert isinstance(obj, ClassifierObject)
                    label = instance.classify(annotation.text)
                    obj.add_annotation(annotation.ann_id, label, columns)
                elif isinstance(instance, SnippetInstance):
                    assert isinstance(obj, SnippetObject)
                    obj.add_annotation(
                        annotation.ann_id, columns,
                        instance.snippet_for(annotation.text),
                    )
                else:
                    assert isinstance(instance, ClusterInstance)
                    clusterer = self._clusterer_for(table, oid, instance, objects)
                    clusterer.insert(annotation.ann_id, annotation.text)
                    obj.ann_targets[annotation.ann_id] = columns
        for instance in instances:
            if isinstance(instance, ClusterInstance):
                clusterer = self._clusterers.get((table, oid, instance.name))
                if clusterer is not None:
                    self._rebuild_cluster_object(
                        objects[instance.name], clusterer  # type: ignore[arg-type]
                    )
        storage.put(oid, objects)
        self._notify(table, "*", "on_objects_write", oid, objects, previous)
        for instance in instances:
            if not isinstance(instance, ClassifierInstance):
                continue
            obj = objects[instance.name]
            assert isinstance(obj, ClassifierObject)
            before = old_counts.get(instance.name)
            if created_row or before is None:
                self._notify(table, instance.name, "on_summary_insert", oid, obj)
            else:
                self._notify(
                    table, instance.name, "on_summary_update", oid, before,
                    dict(obj.rep()),
                )

    def delete_annotation(self, ann_id: int) -> None:
        """Remove a raw annotation and subtract its effects (§4.1.2)."""
        self.metrics.inc("maint.annotation_delete")
        annotation = self.annotations.delete(ann_id)
        affected = self._affected_tuples(annotation)
        self._detach_targets(ann_id, affected)
        if self.deferred:
            for table, oid in affected:
                self._mark_stale(table, oid)
            return
        for table, oid in affected:
            self._remove_from_tuple(annotation, table, oid)

    def on_tuple_delete(self, table: str, oid: int) -> None:
        """The data tuple is gone: drop its summary row and index entries."""
        table = table.lower()
        # Sever the tuple's annotation attachments and cancel any queued
        # regeneration — a dropped row must never be resurrected by the
        # background worker.
        if self._targets_index is not None:
            self._targets_index.pop((table, oid), None)
        self.pending.discard(table, oid)
        storage = self.storage_for(table)
        objects = storage.get(oid)
        if objects is None:
            return
        self._drop_row(table, oid, objects, row_footprint(objects))

    def _drop_row(
        self, table: str, oid: int, objects: dict[str, SummaryObject],
        previous: RowFootprint,
    ) -> None:
        """Drop the storage row of ``oid`` (``objects``: what indexes
        currently hold for it) with the tuple-delete event sequence."""
        for name, obj in objects.items():
            if isinstance(obj, ClassifierObject):
                self._notify(table, name, "on_tuple_delete", oid,
                             dict(obj.rep()))
            self._clusterers.pop((table, oid, name), None)
        self._storages[table].delete(oid)
        self._notify(table, "*", "on_objects_delete", oid, previous)

    # -- reads -------------------------------------------------------------------------

    def summary_set_for(self, table: str, oid: int) -> SummarySet:
        """The stored summary objects of one tuple as a :class:`SummarySet`.

        Objects are deserialized copies; callers may mutate them freely.
        """
        objects = self.storage_for(table).get(oid)
        return SummarySet(objects or {})

    def raw_texts_for(self, table: str, oid: int) -> list[str]:
        """Raw texts of every annotation attached to a tuple (keyword-search
        fallback of §3.1).

        Memoized per (table, oid): annotation texts are immutable and any
        change to *which* annotations a tuple carries rewrites its storage
        row, which invalidates both cache kinds for the OID.
        """
        table = table.lower()
        cache = self.cache
        if cache.enabled:
            hit, texts = cache.lookup(table, oid, kind="texts")
            if hit:
                return list(texts)
        objects = self.storage_for(table).get(oid)
        if not objects:
            texts = []
        else:
            ann_ids: set[int] = set()
            for obj in objects.values():
                ann_ids |= obj.all_annotation_ids()
            texts = self.annotations.texts(sorted(ann_ids))
        if cache.enabled:
            cache.store(
                table, oid, tuple(texts),
                sum(len(t) for t in texts), kind="texts",
            )
        return texts

    def zoom_in(
        self, table: str, oid: int, instance_name: str,
        selector: str | int | None = None,
    ) -> list[str]:
        """Zoom-in: raw annotation texts behind a summary (or one of its
        representatives).

        ``selector`` is a class label for Classifier objects, a Rep[]
        position for Snippet/Cluster objects, or None for everything.
        """
        objects = self.storage_for(table).get(oid)
        if not objects or instance_name not in objects:
            return []
        obj = objects[instance_name]
        if selector is None:
            ann_ids = sorted(obj.all_annotation_ids())
        elif isinstance(obj, ClassifierObject) and isinstance(selector, str):
            if selector not in obj.label_elements:
                from repro.summaries.hierarchy import (
                    HierarchicalClassifierInstance,
                )

                instance = self._instances.get(instance_name)
                if isinstance(instance, HierarchicalClassifierInstance) \
                        and selector in instance.tree:
                    # Multi-level zoom: an inner node unions its subtree.
                    ann_ids = instance.resolve_elements(obj, selector)
                    return self.annotations.texts(ann_ids)
                raise SummaryError(f"no label {selector!r} on {instance_name!r}")
            ann_ids = sorted(obj.label_elements[selector])
        elif isinstance(selector, int):
            element_lists = obj.elements()
            if not 0 <= selector < len(element_lists):
                raise SummaryError(f"representative {selector} out of range")
            ann_ids = element_lists[selector]
        else:
            raise SummaryError(f"bad zoom selector {selector!r}")
        return self.annotations.texts(ann_ids)

    # -- internals -----------------------------------------------------------------------

    @staticmethod
    def _affected_tuples(annotation: Annotation) -> list[tuple[str, int]]:
        seen: list[tuple[str, int]] = []
        for target in annotation.targets:
            key = (target.table.lower(), target.oid)
            if key not in seen:
                seen.append(key)
        return seen

    # -- async maintenance ---------------------------------------------------------------

    def _ensure_targets_index(self) -> dict[tuple[str, int], set[int]]:
        """The live attachment reverse-map: (table, oid) -> annotation ids.

        Maintained on every create/delete; rebuilt from the annotation
        store for managers unpickled from pre-async images.  Entries for
        deleted data tuples are pruned by :meth:`on_tuple_delete` (the
        live map) or filtered by ``tuple_exists`` (the rebuilt one)."""
        if self._targets_index is None:
            index: dict[tuple[str, int], set[int]] = {}
            for annotation in self.annotations.scan():
                for key in self._affected_tuples(annotation):
                    index.setdefault(key, set()).add(annotation.ann_id)
            self._targets_index = index
        return self._targets_index

    def is_annotated(self, table: str, oid: int) -> bool:
        """True when live annotations attach to the tuple — which also
        proves the tuple exists: deleting it severs its attachments."""
        return (table.lower(), oid) in self._ensure_targets_index()

    def _attach_targets(self, ann_id: int,
                        keys: list[tuple[str, int]]) -> None:
        index = self._ensure_targets_index()
        for key in keys:
            index.setdefault(key, set()).add(ann_id)

    def _detach_targets(self, ann_id: int,
                        keys: list[tuple[str, int]]) -> None:
        index = self._ensure_targets_index()
        for key in keys:
            members = index.get(key)
            if members is None:
                continue
            members.discard(ann_id)
            if not members:
                index.pop(key, None)

    def _mark_stale(self, table: str, oid: int) -> None:
        """Async write path: record staleness instead of doing the work.

        Bumps the tuple's freshness marker (a precise cache invalidation —
        the PR-4 epoch machinery guarantees nothing stale outlives the
        regeneration that follows), publishes the backlog gauge, and
        nudges the background worker."""
        if not self._links.get(table):
            return  # no linked instances: nothing will ever regenerate
        pending = self.pending
        storage = self._storages.get(table)
        generation = storage.generation(oid) if storage is not None else 0
        epoch = self.cache.epoch(table)
        if pending.mark(table, oid, generation=generation, epoch=epoch):
            self.metrics.inc("maint.deferred")
        self.cache.invalidate(table, oid)
        self.metrics.set_gauge("maint.backlog", len(pending))
        wake = self.maint_wake
        if wake is not None:
            wake()

    def summary_status(self, table: str, oid: int) -> str:
        """``"stale"`` while the tuple has queued maintenance work, else
        ``"fresh"`` — what deferred-mode query results surface per row."""
        return "stale" if (table.lower(), oid) in self.pending else "fresh"

    def has_pending(self) -> bool:
        return len(self.pending) > 0

    def pending_count(self) -> int:
        return len(self.pending)

    def pending_lag_seconds(self) -> float:
        return self.pending.oldest_age()

    def drain_pending(self, limit: int | None = None) -> int:
        """Regenerate stale tuples (up to ``limit``); returns how many
        were regenerated.

        Serialized against foreground writers by ``regen_lock`` (the
        engine's commit mutex when a Database owns this manager) and safe
        to call from anywhere — checkpoints, server drain, the background
        worker — because it is idempotent over an empty set.  A tuple
        whose regeneration raises is re-marked before the error
        propagates, so no staleness is ever lost."""
        pending = self.pending
        if not len(pending):
            return 0
        drained = 0
        with self.regen_lock:
            while limit is None or drained < limit:
                item = pending.pop_next()
                if item is None:
                    break
                (table, oid), entry = item
                try:
                    self.regenerate_tuple(table, oid)
                except BaseException:
                    pending.mark(table, oid, generation=entry.generation,
                                 epoch=entry.epoch)
                    raise
                drained += 1
        if drained:
            self.metrics.inc("maint.regen", drained)
        self.metrics.set_gauge("maint.backlog", len(pending))
        self.metrics.set_gauge("maint.lag_seconds", pending.oldest_age())
        return drained

    def regenerate_tuple(self, table: str, oid: int) -> None:
        """Recompute one tuple's summary objects from its raw annotations.

        The converged result is definitionally what synchronous
        maintenance would have produced: annotations are applied in
        ``ann_id`` order (the incremental arrival order), objects of
        currently-unlinked instances are preserved but scrubbed to live
        attachments (matching the sync path, which leaves them behind on
        unlink), and an empty result drops the storage row with the same
        event sequence as a tuple delete.  Observers receive one
        consolidated write event plus per-classifier insert/update events
        whose *old* counts are the stored (still-indexed) ones, so
        derived structures converge no matter how many writes were folded
        into this one regeneration.
        """
        table = table.lower()
        storage = self.storage_for(table)
        old = storage.get(oid)
        previous = None if old is None else row_footprint(old)
        ann_ids = sorted(self._ensure_targets_index().get((table, oid), ()))
        exists = self.tuple_exists is None or self.tuple_exists(table, oid)
        instances = self.instances_for(table) if exists else []
        linked = {instance.name for instance in instances}
        objects: dict[str, SummaryObject] = {}
        if instances and ann_ids:
            annotations = self.annotations.get_many(ann_ids)
            for instance in instances:
                obj = instance.new_object(oid)
                objects[instance.name] = obj
                if isinstance(instance, ClassifierInstance):
                    assert isinstance(obj, ClassifierObject)
                    for annotation in annotations:
                        obj.add_annotation(
                            annotation.ann_id,
                            instance.classify(annotation.text),
                            annotation.columns_on(table, oid),
                        )
                elif isinstance(instance, SnippetInstance):
                    assert isinstance(obj, SnippetObject)
                    for annotation in annotations:
                        obj.add_annotation(
                            annotation.ann_id,
                            annotation.columns_on(table, oid),
                            instance.snippet_for(annotation.text),
                        )
                else:
                    assert isinstance(instance, ClusterInstance)
                    # Canonical form: rebuild the clustering from scratch
                    # in ann_id order (incremental removes are
                    # path-dependent; regeneration defines convergence).
                    clusterer = instance.new_clusterer()
                    for annotation in annotations:
                        clusterer.insert(annotation.ann_id, annotation.text)
                        obj.ann_targets[annotation.ann_id] = \
                            annotation.columns_on(table, oid)
                    self._rebuild_cluster_object(obj, clusterer)
                    self._clusterers[(table, oid, instance.name)] = clusterer
        if old and exists and ann_ids:
            # Preserve leftover objects of instances unlinked since the
            # row was written (sync semantics), scrubbed of annotations
            # that no longer exist.
            live = set(ann_ids)
            for name, obj in old.items():
                if name in linked:
                    continue
                doomed = obj.all_annotation_ids() - live
                if doomed:
                    obj.remove_annotations(doomed)
                objects[name] = obj
            # Keep the stored object order stable across regenerations:
            # previously-present instances stay in place, new ones append.
            ordered: dict[str, SummaryObject] = {}
            for name in old:
                if name in objects:
                    ordered[name] = objects.pop(name)
            ordered.update(objects)
            objects = ordered
        if not objects or all(
            not obj.all_annotation_ids() for obj in objects.values()
        ):
            if old is not None:
                self._drop_row(table, oid, old, previous)
            return
        storage.put(oid, objects)
        self._notify(table, "*", "on_objects_write", oid, objects, previous)
        for instance in instances:
            if not isinstance(instance, ClassifierInstance):
                continue
            obj = objects.get(instance.name)
            if not isinstance(obj, ClassifierObject):
                continue
            before = old.get(instance.name) if old else None
            if isinstance(before, ClassifierObject):
                self._notify(table, instance.name, "on_summary_update", oid,
                             dict(before.rep()), dict(obj.rep()))
            else:
                self._notify(table, instance.name, "on_summary_insert", oid,
                             obj)

    def _apply_to_tuple(self, annotation: Annotation, table: str, oid: int) -> None:
        instances = self.instances_for(table)
        if not instances:
            return
        storage = self.storage_for(table)
        objects = storage.get(oid)
        created_row = objects is None
        previous = None if created_row else row_footprint(objects)
        if objects is None:
            objects = {}
        columns = annotation.columns_on(table, oid)
        updates: list[tuple[str, dict[str, int] | None, ClassifierObject]] = []
        for instance in instances:
            obj = objects.get(instance.name)
            fresh = obj is None
            if obj is None:
                obj = instance.new_object(oid)
                objects[instance.name] = obj
            if isinstance(instance, ClassifierInstance):
                assert isinstance(obj, ClassifierObject)
                old_counts = None if fresh else dict(obj.rep())
                label = instance.classify(annotation.text)
                obj.add_annotation(annotation.ann_id, label, columns)
                updates.append((instance.name, old_counts, obj))
            elif isinstance(instance, SnippetInstance):
                assert isinstance(obj, SnippetObject)
                obj.add_annotation(
                    annotation.ann_id, columns, instance.snippet_for(annotation.text)
                )
            else:
                assert isinstance(instance, ClusterInstance)
                clusterer = self._clusterer_for(table, oid, instance, objects)
                clusterer.insert(annotation.ann_id, annotation.text)
                self._rebuild_cluster_object(obj, clusterer)  # type: ignore[arg-type]
                obj.ann_targets[annotation.ann_id] = columns
        storage.put(oid, objects)
        self._notify(table, "*", "on_objects_write", oid, objects, previous)
        for name, old_counts, obj in updates:
            if created_row or old_counts is None:
                self._notify(table, name, "on_summary_insert", oid, obj)
            else:
                self._notify(
                    table, name, "on_summary_update", oid, old_counts,
                    dict(obj.rep()),
                )

    def _remove_from_tuple(self, annotation: Annotation, table: str, oid: int) -> None:
        storage = self.storage_for(table)
        objects = storage.get(oid)
        if objects is None:
            return
        previous = row_footprint(objects)
        ann_id = annotation.ann_id
        for name, obj in objects.items():
            if isinstance(obj, ClassifierObject):
                if ann_id not in obj.all_annotation_ids():
                    continue
                old_counts = dict(obj.rep())
                obj.remove_annotations({ann_id})
                self._notify(
                    table, name, "on_summary_update", oid, old_counts,
                    dict(obj.rep()),
                )
            elif isinstance(obj, ClusterObject):
                key = (table, oid, name)
                clusterer = self._clusterers.get(key)
                if clusterer is not None and clusterer.cluster_of(ann_id):
                    clusterer.remove(ann_id)
                    self._rebuild_cluster_object(obj, clusterer)
                else:
                    obj.remove_annotations({ann_id})
                obj.ann_targets.pop(ann_id, None)
            else:
                obj.remove_annotations({ann_id})
        if all(not obj.all_annotation_ids() for obj in objects.values()):
            # The tuple's last annotation is gone: a row of all-empty
            # objects must not linger for caches/indexes to keep serving.
            # Drop it with the same event sequence as a tuple delete (the
            # classifier channel already saw the update to zero counts, so
            # on_tuple_delete's zero-count keys match what is indexed).
            self._drop_row(table, oid, objects, previous)
            return
        storage.put(oid, objects)
        self._notify(table, "*", "on_objects_write", oid, objects, previous)

    def _clusterer_for(
        self,
        table: str,
        oid: int,
        instance: ClusterInstance,
        objects: dict[str, SummaryObject],
    ) -> CluStream:
        key = (table, oid, instance.name)
        clusterer = self._clusterers.get(key)
        if clusterer is None:
            clusterer = instance.new_clusterer()
            existing = objects.get(instance.name)
            if isinstance(existing, ClusterObject) and existing.groups:
                # Rebuild in-memory state from the raw annotations (e.g.
                # after the engine restarts or the state was evicted).
                for group in existing.groups:
                    for member in sorted(group.members):
                        clusterer.insert(
                            member, self.annotations.get(member).text
                        )
            self._clusterers[key] = clusterer
        return clusterer

    @staticmethod
    def _rebuild_cluster_object(obj: ClusterObject, clusterer: CluStream) -> None:
        obj.groups = [
            ClusterGroup(rep_id, set(members),
                         {m: clusterer.cluster_of(m).excerpts[m] for m in members})
            for (rep_id, _), _, members in clusterer.groups()
        ]
