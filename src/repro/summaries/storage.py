"""De-normalized summary-object storage (§4, Figure 4(b)).

For each user relation ``R`` the engine keeps a catalog table
``R_SummaryStorage`` with exactly one row per annotated data tuple, holding
*all* of that tuple's summary objects in serialized (de-normalized) form.
The two properties the paper calls out both hold here:

1. queries over ``R`` alone never touch summary pages, and
2. propagation reads one storage row per tuple — no re-construction joins.
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.btree import BTree
from repro.cache import SummaryCache
from repro.catalog.keys import decode_int, encode_int
from repro.catalog.table import (
    pack_rid,
    rid_lookup,
    rid_resolver,
    unpack_rid,
)
from repro.errors import IndexError_, RecordNotFoundError, ReproError
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile, RID
from repro.storage.page import SlottedPage
from repro.summaries.objects import ClassifierObject, FrozenMap, SummaryObject

_JSON = json.JSONDecoder()


def _cached_label_count(
    value: dict | None, instance: str, label: str
) -> tuple:
    """``label_count`` resolution over a decoded summary-object mapping."""
    if value is None:
        return "ok", None
    obj = value.get(instance)
    if obj is None:
        return "ok", None
    if not isinstance(obj, ClassifierObject):
        return "fallback", None
    members = obj.label_elements.get(label)
    if members is None:
        return "fallback", None
    return "ok", len(members)


class SummaryStorage:
    """One table's ``R_SummaryStorage``: OID -> {instance -> SummaryObject}."""

    def __init__(self, table_name: str, pool: BufferPool,
                 cache: SummaryCache | None = None):
        self.table_name = table_name
        self.pool = pool
        self.heap = HeapFile(pool)
        #: OID -> heap RID of the tuple's summary row.
        self.oid_index = BTree(pool, unique=True)
        #: the owning SummaryManager's shared cache; a storage built on
        #: its own gets a private one of capacity 0 (stores nothing).
        self.cache = cache if cache is not None else SummaryCache()

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def num_pages(self) -> int:
        """Heap pages used (Figure 7's storage-overhead metric)."""
        return self.heap.num_pages

    # -- encoding ----------------------------------------------------------------

    @staticmethod
    def _encode(objects: dict[str, SummaryObject]) -> bytes:
        """The row: a JSON array of the objects' own serializations, each
        object's ``stored_size`` set from the bytes just produced."""
        parts = []
        for obj in objects.values():
            part = obj.to_bytes()
            obj.stored_size = len(part)
            parts.append(part)
        return b"[" + b",".join(parts) + b"]"

    @staticmethod
    def _decode(data: bytes) -> dict[str, SummaryObject]:
        """Inverse of :meth:`_encode`, element by element so that every
        object learns its ``stored_size`` (the writer emits ASCII, so
        characters are bytes).  The mapping and its objects are immutable
        (a reader may share them; a writer copies).  Anything but our own
        framing is a ``ValueError``, as it was under ``json.loads``."""
        text = data.decode("utf-8")
        if text[:1] != "[":
            raise ValueError("summary row is not a JSON array")
        objects: dict[str, SummaryObject] = {}
        pos = 1
        while text[pos:pos + 1] != "]":
            payload, end = _JSON.raw_decode(text, pos)
            obj = SummaryObject.from_dict(payload)
            obj.stored_size = end - pos
            objects[obj.instance_name] = obj
            pos = end + 1 if text[end:end + 1] == "," else end
        if pos != len(text) - 1:
            raise ValueError("trailing bytes after summary row")
        return FrozenMap(objects)

    # -- operations ----------------------------------------------------------------

    def _rid_for(self, oid: int) -> RID | None:
        return rid_lookup(self.oid_index, oid)

    def get(self, oid: int) -> dict[str, SummaryObject] | None:
        """All summary objects of tuple ``oid`` (None when un-annotated):
        :meth:`get_many` of one OID."""
        return self.get_many((oid,))[0]

    def get_many(self, oids) -> list[dict[str, SummaryObject] | None]:
        """The summary objects of each tuple in ``oids``, in order: the one
        read path, label predicates and keyword search included.

        Read-through cached and shared: one cache pass answers the batch,
        then the misses are read from the heap in order and stored, each
        fill under the cache's write count from before the lookup.  A hit
        returns the cached (immutable) mapping itself, and a ``None`` value
        memoizes "no storage row".  Writers read through
        :meth:`get_for_update`."""
        cache = self.cache
        token = cache.writes
        found = cache.lookup_many(self.table_name, oids) if cache.enabled \
            else [(False, None)] * len(oids)
        rid_of = rid_resolver(self.oid_index, [
            oid for oid, (hit, _value) in zip(oids, found) if not hit
        ])
        return [value if hit else self._read(oid, rid_of(oid), token)
                for oid, (hit, value) in zip(oids, found)]

    def _read(self, oid: int, rid: RID | None, token: int
              ) -> dict[str, SummaryObject] | None:
        if rid is None:
            self.cache.store(self.table_name, oid, None, 0, token)
            return None
        data = self.heap.read(rid)
        objects = self._decode(data)
        self.cache.store(self.table_name, oid, objects, len(data), token)
        return objects

    def get_for_update(self, oid: int) -> dict[str, SummaryObject] | None:
        """The only writable read: :meth:`get`, then a mutable ``copy()`` of
        each object.  The copies never reach the cache; :meth:`put` them."""
        objects = self.get(oid)
        if objects is None:
            return None
        return {name: obj.copy() for name, obj in objects.items()}

    # The benchmark tracer (benchmarks/perf/trace.py) wraps these two by
    # name when it installs; that is the only reason they stay.
    def label_count(self, oid: int, instance: str, label: str) -> tuple:
        """:meth:`label_counts` of one OID."""
        return self.label_counts([oid], instance, label)[0]

    def label_counts(self, oids, instance: str, label: str) -> list[tuple]:
        """Per OID, ``("ok", count)`` (None when the tuple has no object
        under ``instance``) or ``("fallback", None)`` when the object is no
        classifier or has no such label, read through :meth:`get_many`."""
        return [_cached_label_count(objects, instance, label)
                for objects in self.get_many(oids)]

    def put(self, oid: int, objects: dict[str, SummaryObject]) -> bool:
        """Insert or replace the summary row of ``oid``.

        Returns True when this created a *new* storage row (the paper's
        "Adding Annotation — Insertion" case) and False on update.
        """
        try:
            record = self._encode(objects)
            rid = self._rid_for(oid)
            if rid is None:
                new_rid = self.heap.insert(record)
                self.oid_index.insert(encode_int(oid), pack_rid(new_rid))
                return True
            new_rid = self.heap.update(rid, record)
            if new_rid != rid:
                self.oid_index.delete(encode_int(oid), pack_rid(rid))
                self.oid_index.insert(encode_int(oid), pack_rid(new_rid))
            return False
        finally:
            # The one invalidation point of a summary row: every writer
            # ends in put or delete, and invalidating after the change
            # refuses a fill that read the old row (DESIGN.md §5d).
            self.cache.invalidate(self.table_name, oid)

    def delete(self, oid: int) -> None:
        """Drop the summary row of ``oid`` (tuple deletion, §4.1.2)."""
        try:
            rid = self._rid_for(oid)
            if rid is None:
                raise RecordNotFoundError(
                    f"{self.table_name}_SummaryStorage: no row for OID {oid}"
                )
            self.heap.delete(rid)
            self.oid_index.delete(encode_int(oid), pack_rid(rid))
        finally:
            self.cache.invalidate(self.table_name, oid)

    def repair(self, live: set[int] | None, known: set[int]) -> dict[str, int]:
        """Repair's pass: :meth:`rebuild_oid_index`, then drop each row
        whose OID is not in ``live`` (None keeps all) or, as maintenance
        would, that keeps no annotation once each object's
        ``stray_annotation_ids(known)`` are stripped.  Returns the counts
        ``kept``, ``salvaged``, ``orphans`` and ``stripped``."""
        stats = {**self.rebuild_oid_index(), "orphans": 0, "stripped": 0}
        for oid, objects in list(self.scan()):
            if live is not None and oid not in live:
                self.delete(oid)
                stats["orphans"] += 1
            elif any(obj.stray_annotation_ids(known)
                     for obj in objects.values()):
                objects = self.get_for_update(oid)
                for obj in objects.values():
                    stray = obj.stray_annotation_ids(known)
                    obj.remove_annotations(stray)
                    stats["stripped"] += len(stray)
                if any(obj.all_annotation_ids() for obj in objects.values()):
                    self.put(oid, objects)
                else:
                    self.delete(oid)
        return stats

    def rebuild_oid_index(self) -> dict[str, int]:
        """Rebuild the OID index from the heap alone (repair path).

        Unlike user tables, summary rows are *self-describing*: every
        serialized object carries its ``tuple_id``, so the full OID → RID
        mapping is recoverable from the heap. Rows that fail to decode, are
        empty, or duplicate an already-seen OID (first row wins) are
        salvage-deleted. Returns counters: ``kept``, ``salvaged``.
        """
        live: dict[int, RID] = {}
        drop: list[RID] = []
        for page_no in range(len(self.heap.page_ids)):
            page = SlottedPage(
                self.pool.get_page(self.heap.page_ids[page_no]),
                page_size=self.pool.disk.page_size,
            )
            for slot, stored in page.records():
                rid = RID(page_no, slot)
                try:
                    objects = self._decode(self.heap._unwrap(stored))
                    oid = next(iter(objects.values())).tuple_id
                except (ReproError, StopIteration, ValueError, KeyError,
                        TypeError):
                    drop.append(rid)
                    continue
                if oid in live:
                    drop.append(rid)
                    continue
                live[oid] = rid
        for rid in drop:
            self.heap.salvage_delete(rid)
        try:
            self.oid_index.drop()
        except ReproError:
            pass  # corrupt tree: abandon its pages rather than fail repair
        self.oid_index = BTree(self.pool, unique=True)
        for oid, rid in live.items():
            self.oid_index.insert(encode_int(oid), pack_rid(rid))
        self.heap.recount()
        return {"kept": len(live), "salvaged": len(drop)}

    def scan(self) -> Iterator[tuple[int, dict[str, SummaryObject]]]:
        """Yield ``(oid, objects)`` for every annotated tuple."""
        rid_to_oid = {unpack_rid(v): decode_int(k)
                      for k, v in self.oid_index.items()}
        for rid, record in self.heap.scan():
            oid = rid_to_oid.get(rid)
            if oid is None:
                raise IndexError_(
                    f"summary storage {self.table_name}: live record at "
                    f"{rid} has no OID-index entry"
                )
            yield oid, self._decode(record)
