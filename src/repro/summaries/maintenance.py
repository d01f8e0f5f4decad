"""Incremental summary maintenance (§2 + §4.1.2).

:class:`SummaryManager` owns the summary-instance registry, the per-table
``R_SummaryStorage`` tables, the per-tuple CluStream states, and the
annotation store.  Every annotation mutation flows through it, and each
of the paper's three cases — *Insertion* (a tuple's first annotation
creates its storage row), *Update* and *Delete* — ends in one write step,
``_write_row``.

Every consumer hears one channel per table: one event per storage-row
write (``on_objects_write``, after the row is written) or delete
(``on_objects_delete``, before the row is dropped), carrying the replaced
row's :func:`row_footprint` — its stored sizes and classifier label
counts.  The optimizer statistics (the paper's "statistics are maintained
whenever a summary object is updated", §5.2) and every
:class:`~repro.index.derived.DerivedIndex` subscribe to it; a
Summary-BTree reads old counts from the footprint and new ones from the
written objects, so it re-keys only the modified labels.  Subscriptions
are process state: the owners re-subscribe after an image load.

Maintenance runs inside the write that changes an annotation, so a
read always sees every acknowledged annotation.

:meth:`SummaryManager.regenerate_tuple` recomputes a tuple's summary
objects from its raw annotations in ``ann_id`` order, which reproduces
the incremental classifier/snippet results byte-for-byte; cluster
objects are rebuilt from scratch (canonical form — CluStream's
incremental *remove* is path-dependent).  It serves older images that
still list tuples whose rows lag their annotations, and is the
from-scratch reference the tests compare incremental maintenance with.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Protocol

from repro.annotations.annotation import Annotation, AnnotationTarget
from repro.annotations.store import AnnotationStore
from repro.cache import DEFAULT_CACHE_BYTES, SummaryCache
from repro.errors import SummaryError, UnknownInstanceError
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


#: instance name -> (stored object size, classifier label counts or None)
RowFootprint = dict[str, tuple[int, "dict[str, int] | None"]]


class StorageRowObserver(Protocol):
    """Observer on a table's channel: one event per storage-row write or
    delete, whatever the summary types involved.  ``previous`` is the
    :func:`row_footprint` of the row being replaced or dropped (None when
    the write created the row)."""

    def on_objects_write(
        self, oid: int, objects: dict[str, SummaryObject],
        previous: RowFootprint | None,
    ) -> None:
        """The row of ``oid`` now holds ``objects``."""

    def on_objects_delete(self, oid: int, previous: RowFootprint) -> None:
        """The row of ``oid`` is being dropped (it still exists)."""


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


class LegacyPendingKeys:
    """What an older image's deferred-maintenance staleness set unpickles
    into: the ``(table, oid)`` keys whose summary rows lag their
    annotations."""

    def __setstate__(self, state: dict) -> None:
        # A list of keys, or a dict keyed by them in the oldest images.
        self.keys = list(state["entries"])


class SummaryManager:
    """The summary subsystem's single entry point."""

    #: callback the owning Database installs so regeneration never
    #: resurrects a summary row for a deleted data tuple.
    tuple_exists = None

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
        self._links: dict[str, list[str]] = {}  # table -> names
        self._storages: dict[str, SummaryStorage] = {}
        self._clusterers: dict[tuple[str, int, str], CluStream] = {}
        #: table -> storage-row observers (process state, not image state)
        self._observers: dict[str, list[StorageRowObserver]] = defaultdict(list)
        #: (table, oid) -> live annotation ids attached there; None =
        #: rebuilt from the annotation store on first use.
        self._targets_index: dict[tuple[str, int], set[int]] | None = {}

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Subscriptions and the Database-installed callback are process
        # state, never image state.
        state = self.__dict__.copy()
        for key in ("tuple_exists", "_observers"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Images from before PR 24 carry a mode string; the owning
        # Database re-installs the mode it loads with.
        state.pop("async_mode", None)
        # Older images pickled the subscriptions; their owners re-subscribe.
        state.pop("_observers", None)
        # Older images carry the removed deferred mode's switch and
        # staleness set; the owning Database regenerates the set's tuples.
        state.pop("deferred", None)
        pending = state.pop("pending", None)
        if pending is not None and pending.keys:
            state["legacy_pending"] = pending.keys
        self.__dict__.update(state)
        # None → rebuilt lazily from the annotation store on first use.
        self.__dict__.setdefault("_targets_index", None)
        if "cache" not in state:
            # Pre-cache image: give it the cache a new manager would own.
            self.cache = SummaryCache(DEFAULT_CACHE_BYTES, self.metrics)
            for storage in self._storages.values():
                storage.cache = self.cache
        self._observers = defaultdict(list)
        self.tuple_exists = None

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
        names = self._links.setdefault(table, [])
        if instance_name in names:
            raise SummaryError(
                f"instance {instance_name!r} already linked to {table!r}"
            )
        names.append(instance_name)

    def unlink(self, table: str, instance_name: str) -> None:
        """Drop the link (Alter Table ... Drop <InstanceName>)."""
        table = table.lower()
        if instance_name not in self._links.get(table, ()):
            raise SummaryError(f"instance {instance_name!r} not linked to {table!r}")
        self._links[table].remove(instance_name)

    def instances_for(self, table: str) -> list[SummaryInstance]:
        return [self._instances[n] for n in self._links.get(table.lower(), ())]

    def is_linked(self, table: str, instance_name: str) -> bool:
        return instance_name in self._links.get(table.lower(), ())

    def tables_with_instance(self, instance_name: str) -> list[str]:
        return [t for t, names in self._links.items() if instance_name in names]

    def storage_for(self, table: str) -> SummaryStorage:
        table = table.lower()
        if table not in self._storages:
            self._storages[table] = SummaryStorage(
                table, self.pool, cache=self.cache
            )
        return self._storages[table]

    # -- observers ----------------------------------------------------------------

    def add_observer(self, table: str, observer: StorageRowObserver) -> None:
        self._observers[table.lower()].append(observer)

    def remove_observer(self, table: str, observer: StorageRowObserver) -> None:
        """Detach one observer; a no-op when it is not registered."""
        observers = self._observers.get(table.lower())
        if observers is not None and observer in observers:
            observers.remove(observer)

    def _notify(self, table: str, method: str, *args) -> None:
        self.metrics.inc(f"maint.{method}")
        for observer in self._observers.get(table.lower(), []):
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

    def add_annotation(
        self, text: str, targets: list[AnnotationTarget],
        ann_id: int | None = None,
    ) -> Annotation:
        """Store a raw annotation and update every summary object it
        affects: :meth:`create_annotations` then :meth:`attach_annotations`
        of one item.  ``ann_id`` forces the assigned id (WAL replay)."""
        return self.attach_annotations(
            self.create_annotations([(text, targets, ann_id)])
        )[0]

    def create_annotations(
        self, items: list[tuple[str, list[AnnotationTarget], int | None]],
    ) -> list[Annotation]:
        """Store annotations in order and touch no summary: the raw half
        of adding them.  ``items`` are ``(text, targets, ann_id)``;
        ``ann_id`` None assigns the next id, a forced id reproduces a
        logged one (WAL redo).  Redo calls it once per record, so a record
        whose create raises is left out of the run
        :meth:`attach_annotations` then applies."""
        self._cell_annotated.update(
            target.table.lower() for _text, targets, _ann_id in items
            for target in targets if target.columns
        )
        self.metrics.inc("maint.annotation_add", len(items))
        return [
            self.annotations.create(text, targets, ann_id=ann_id)
            for text, targets, ann_id in items
        ]

    def attach_annotations(
        self, annotations: list[Annotation]
    ) -> list[Annotation]:
        """The summary half: attach created annotations and apply them,
        in order, once per affected tuple (the initial-upload mode of §6),
        so observers see one consolidated event per tuple."""
        grouped: dict[tuple[str, int], list[Annotation]] = {}
        for annotation in annotations:
            keys = self._affected_tuples(annotation)
            self._attach_targets(annotation.ann_id, keys)
            for key in keys:
                grouped.setdefault(key, []).append(annotation)
        for (table, oid), batch in grouped.items():
            self._apply_batch_to_tuple(batch, table, oid)
        return annotations

    def _apply_batch_to_tuple(
        self, batch: list[Annotation], table: str, oid: int
    ) -> None:
        instances = self.instances_for(table)
        if not instances:
            return
        objects = self.storage_for(table).get_for_update(oid) or {}
        previous = row_footprint(objects) if objects else None
        for instance in instances:
            if instance.name not in objects:
                objects[instance.name] = instance.new_object(oid)
        self._fold(batch, instances, objects, table, oid)
        self._write_row(table, oid, objects, previous)

    def _fold(self, annotations: list[Annotation],
              instances: list[SummaryInstance],
              objects: dict[str, SummaryObject], table: str, oid: int) -> None:
        """Add ``annotations``, in order, to the tuple's objects of
        ``instances``: the one classifier/snippet/cluster loop that
        incremental maintenance and regeneration share."""
        for annotation in annotations:
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
                self._rebuild_cluster_object(
                    objects[instance.name],  # type: ignore[arg-type]
                    self._clusterers[(table, oid, instance.name)],
                )

    def delete_annotation(self, ann_id: int) -> None:
        """Remove a raw annotation and subtract its effects (§4.1.2)."""
        self.metrics.inc("maint.annotation_delete")
        annotation = self.annotations.delete(ann_id)
        affected = self._affected_tuples(annotation)
        self._detach_targets(ann_id, affected)
        for table, oid in affected:
            self._remove_from_tuple(annotation, table, oid)

    def on_tuple_delete(self, table: str, oid: int) -> None:
        """The data tuple is gone: drop its summary row and index entries."""
        table = table.lower()
        # Sever the tuple's annotation attachments.
        if self._targets_index is not None:
            self._targets_index.pop((table, oid), None)
        objects = self.storage_for(table).get(oid)
        if objects is not None:
            self._write_row(table, oid, {}, row_footprint(objects))

    def _write_row(self, table: str, oid: int,
                   objects: dict[str, SummaryObject],
                   previous: RowFootprint | None) -> None:
        """The one write step of a tuple's storage row: the row whose
        footprint is ``previous`` (None: no row yet) becomes ``objects``,
        with one event.  When no object keeps an annotation the row is
        dropped instead — a row of all-empty objects must not linger for
        caches and indexes to serve — and observers hear the delete while
        it still exists (a conventional-pointer Summary-BTree resolves its
        entries through the row's location)."""
        storage = self._storages[table]
        if all(not obj.all_annotation_ids() for obj in objects.values()):
            if previous is not None:
                self._notify(table, "on_objects_delete", oid, previous)
                for name in previous:
                    self._clusterers.pop((table, oid, name), None)
                storage.delete(oid)
            return
        storage.put(oid, objects)
        self._notify(table, "on_objects_write", oid, objects, previous)

    def repair_rows(self, live_oids) -> dict[str, dict[str, int]]:
        """Repair's row pass: :meth:`SummaryStorage.repair` of every
        table's storage, ``live_oids(table)`` naming the OIDs of its data
        table (None: no such table).  The rows are written quietly, since
        the derived structures may be corrupt (repair rebuilds them next).
        The CluStream states and the attachment map derived from the old
        rows are dropped, to be rebuilt from the repaired rows and store,
        so a lost annotation cannot come back.  The cache is cleared first,
        since salvage may have lost rows it still holds and the strip pass
        reads rows through it.  Returns each table's counts."""
        self.cache.clear()
        known = {annotation.ann_id for annotation in self.annotations.scan()}
        counts = {table: storage.repair(live_oids(table), known)
                  for table, storage in self._storages.items()}
        self._clusterers.clear()
        self._targets_index = None
        return counts

    # -- reads -------------------------------------------------------------------------

    def summary_set_for(
        self, table: str, oid: int, retained: set[str] | None = None
    ) -> SummarySet:
        """:meth:`summary_sets_for` of one tuple."""
        return self.summary_sets_for(table, (oid,), retained)[0]

    def summary_sets_for(
        self, table: str, oids, retained: set[str] | None = None
    ) -> list[SummarySet]:
        """The stored summary objects of each tuple in ``oids`` as a
        :class:`SummarySet`, in order, read with one storage pass and
        projected to the ``retained`` columns when given (§2.2 step 1).
        Projection is skipped when the table never had a cell annotation:
        every object then targets whole rows, so it would return each set
        itself.  The objects are shared with the cache, and immutable."""
        sets = [SummarySet(objects or {})
                for objects in self.storage_for(table).get_many(oids)]
        if retained is None or not self.has_cell_annotations(table):
            return sets
        return [summaries.project_to_columns(retained) for summaries in sets]

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
            if selector in obj.label_elements:
                ann_ids = sorted(obj.label_elements[selector])
            else:
                from repro.summaries.hierarchy import (
                    HierarchicalClassifierInstance,
                )

                instance = self._instances.get(instance_name)
                if not isinstance(instance, HierarchicalClassifierInstance) \
                        or selector not in instance.tree:
                    raise SummaryError(
                        f"no label {selector!r} on {instance_name!r}")
                # Multi-level zoom: an inner node unions its subtree.
                ann_ids = instance.resolve_elements(obj, selector)
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

    def _ensure_targets_index(self) -> dict[tuple[str, int], set[int]]:
        """The live attachment reverse-map: (table, oid) -> annotation ids.

        Maintained on every create/delete; rebuilt from the annotation
        store for managers unpickled from older images and after
        :meth:`repair_rows`.  Entries for deleted data tuples are pruned by
        :meth:`on_tuple_delete` (the live map) or left out by
        ``tuple_exists`` (the rebuilt one)."""
        if self._targets_index is None:
            index: dict[tuple[str, int], set[int]] = {}
            for annotation in self.annotations.scan():
                for key in self._affected_tuples(annotation):
                    index.setdefault(key, set()).add(annotation.ann_id)
            exists = self.tuple_exists
            self._targets_index = {
                key: ids for key, ids in index.items()
                if exists is None or exists(*key)
            }
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

    def regenerate_tuple(self, table: str, oid: int) -> None:
        """Recompute one tuple's summary objects from its raw annotations.

        The converged result is what synchronous maintenance would have
        produced: annotations are applied in ``ann_id`` order (the
        arrival order), and objects of instances unlinked since are kept
        but scrubbed to live attachments (the sync path leaves them behind
        on unlink).  :meth:`_write_row` sends one event whose footprint is
        the stored row, however many writes this regeneration folds in.
        """
        table = table.lower()
        old = self.storage_for(table).get_for_update(oid)
        previous = row_footprint(old) if old else None
        ann_ids = sorted(self._ensure_targets_index().get((table, oid), ()))
        exists = self.tuple_exists is None or self.tuple_exists(table, oid)
        instances = self.instances_for(table) if exists else []
        linked = {instance.name for instance in instances}
        objects: dict[str, SummaryObject] = {}
        if instances and ann_ids:
            for instance in instances:
                objects[instance.name] = instance.new_object(oid)
                if isinstance(instance, ClusterInstance):
                    # Canonical form: cluster from scratch in ann_id order
                    # (incremental removes are path-dependent;
                    # regeneration defines convergence).
                    self._clusterers[(table, oid, instance.name)] = \
                        instance.new_clusterer()
            self._fold(self.annotations.get_many(ann_ids), instances,
                       objects, table, oid)
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
            objects = {name: objects[name] for name in (*old, *objects)
                       if name in objects}
        self._write_row(table, oid, objects, previous)

    def _remove_from_tuple(self, annotation: Annotation, table: str, oid: int) -> None:
        objects = self.storage_for(table).get_for_update(oid)
        if objects is None:
            return
        previous = row_footprint(objects)
        ann_id = annotation.ann_id
        for name, obj in objects.items():
            if isinstance(obj, ClusterObject):
                clusterer = self._clusterers.get((table, oid, name))
                if clusterer is not None and clusterer.cluster_of(ann_id):
                    clusterer.remove(ann_id)
                    self._rebuild_cluster_object(obj, clusterer)
                else:
                    obj.remove_annotations({ann_id})
                obj.ann_targets.pop(ann_id, None)
            else:
                obj.remove_annotations({ann_id})
        self._write_row(table, oid, objects, previous)

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
        obj.groups = tuple(
            ClusterGroup(rep_id, set(members),
                         {m: clusterer.cluster_of(m).excerpts[m] for m in members})
            for (rep_id, _), _, members in clusterer.groups()
        )
