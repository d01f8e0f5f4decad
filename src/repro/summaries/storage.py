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
import struct
from typing import Iterator

from repro.btree import BTree
from repro.cache import SummaryCache
from repro.catalog.keys import decode_int, encode_int
from repro.errors import RecordNotFoundError, ReproError
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile, RID
from repro.storage.page import SlottedPage
from repro.summaries.objects import ClassifierObject, SummaryObject

_JSON = json.JSONDecoder()


def _parsed_label_count(payload: list, instance: str, label: str) -> tuple:
    """``label_count`` resolution over a fully parsed storage payload."""
    for entry in payload:
        if entry.get("instance") == instance:
            if entry.get("type") != "Classifier":
                return "fallback", None
            members = entry.get("label_elements", {}).get(label)
            if members is None:
                return "fallback", None
            return "ok", len(members)
    return "ok", None


def _cached_label_count(
    value: dict | None, instance: str, label: str
) -> tuple:
    """``label_count`` resolution over a cached (already decoded) set."""
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


def _raw_label_count(data: bytes, instance: str, label: str) -> tuple:
    """Count one classifier label straight off the serialized row bytes.

    The payload is our own ``json.dumps(..., separators=(",", ":"))`` of
    ``to_dict()`` lists, so the needles below (all quote-anchored, and
    quotes inside JSON string values are always escaped) can only match
    structural positions. Any shape the scan can't prove is resolved by a
    full parse instead — never guessed.
    """
    if json.dumps(instance) != f'"{instance}"' or \
            json.dumps(label) != f'"{label}"':
        return _parsed_label_count(json.loads(data), instance, label)
    if data.find(b'"instance":"' + instance.encode() + b'"') < 0:
        return "ok", None  # tuple has no object for this instance
    prefix = b'{"type":"Classifier","instance":"' + instance.encode() + b'"'
    cpos = data.find(prefix)
    if cpos < 0:
        return "fallback", None  # present but not a classifier object
    elements = data.find(b'"label_elements":{', cpos)
    nxt = data.find(b'{"type":', cpos + 1)
    region_end = nxt if nxt >= 0 else len(data)
    if elements < 0 or elements >= region_end:
        return _parsed_label_count(json.loads(data), instance, label)
    region = data[elements:region_end]
    kpos = region.find(b'"' + label.encode() + b'":[')
    if kpos < 0:
        return "fallback", None  # rollup node or unknown label: per-row
    start = kpos + len(label) + 4
    end = region.find(b"]", start)
    if end < 0:
        return _parsed_label_count(json.loads(data), instance, label)
    ids = region[start:end]
    return "ok", (ids.count(b",") + 1) if ids else 0


class SummaryStorage:
    """One table's ``R_SummaryStorage``: OID -> {instance -> SummaryObject}."""

    #: Class-level fallback for pre-async images: per-row freshness
    #: generations, bumped on every put/delete.  Background maintenance
    #: records a row's generation when it goes stale, so tests (and any
    #: future ABA-sensitive consumer) can tell "regenerated since" apart
    #: from "untouched".
    generations: dict[int, int] | None = None

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
        self.generations = {}

    def bump_generation(self, oid: int) -> int:
        """Advance and return ``oid``'s freshness generation."""
        if self.generations is None:
            self.generations = {}
        value = self.generations.get(oid, 0) + 1
        self.generations[oid] = value
        return value

    def generation(self, oid: int) -> int:
        """Current freshness generation of ``oid`` (0 = never written)."""
        if self.generations is None:
            return 0
        return self.generations.get(oid, 0)

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
        characters are bytes).  Anything but our own framing is a
        ``ValueError``, as it was under ``json.loads``."""
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
        return objects

    @staticmethod
    def _private_copies(
        objects: dict[str, SummaryObject]
    ) -> dict[str, SummaryObject]:
        """Deep copies for the cache boundary, still knowing the size
        they have in the stored row."""
        copies = {}
        for name, obj in objects.items():
            copies[name] = copy = obj.copy()
            copy.stored_size = obj.stored_size
        return copies

    # -- operations ----------------------------------------------------------------

    def _rid_for(self, oid: int) -> RID | None:
        hits = self.oid_index.search(encode_int(oid))
        if not hits:
            return None
        page_no, slot = struct.unpack("<IH", hits[0])
        return RID(page_no, slot)

    def get(self, oid: int) -> dict[str, SummaryObject] | None:
        """All summary objects of tuple ``oid`` (None when un-annotated).

        Read-through cached: the cache keeps pristine private copies (a
        ``None`` value memoizes "no storage row"), and every return value —
        hit or miss — is the caller's to mutate freely.
        """
        cache = self.cache
        if not cache.enabled:
            rid = self._rid_for(oid)
            if rid is None:
                return None
            return self._decode(self.heap.read(rid))
        hit, value = cache.lookup(self.table_name, oid)
        if hit:
            if value is None:
                return None
            return self._private_copies(value)
        rid = self._rid_for(oid)
        if rid is None:
            cache.store(self.table_name, oid, None, 0)
            return None
        data = self.heap.read(rid)
        objects = self._decode(data)
        cache.store(
            self.table_name, oid, self._private_copies(objects), len(data)
        )
        return objects

    def label_count(self, oid: int, instance: str, label: str) -> tuple:
        """``("ok", value)`` or ``("fallback", None)`` for the vectorized
        ``getSummaryObject(instance).getLabelValue(label)`` fast path.

        ``"ok"`` means ``value`` is exactly what full materialization would
        compute: the classifier's element count for ``label``, or None when
        the tuple has no storage row / no object under ``instance`` (the
        summary chain nullifies). ``"fallback"`` means the caller must
        materialize and evaluate the row conventionally (non-classifier
        object, hierarchical rollup label, unusual serialization). Answers
        come from the cache when it is hot, otherwise from a
        raw scan of the serialized row — no SummaryObject construction.
        """
        cache = self.cache
        if cache.enabled:
            hit, value = cache.lookup(self.table_name, oid)
            if hit:
                return _cached_label_count(value, instance, label)
        return self._stored_label_count(self._rid_for(oid), instance, label)

    def _stored_label_count(
        self, rid: RID | None, instance: str, label: str
    ) -> tuple:
        if rid is None:
            return "ok", None
        return _raw_label_count(self.heap.read(rid), instance, label)

    def label_counts(
        self, oids: list[int], instance: str, label: str
    ) -> list[tuple]:
        """:meth:`label_count` for a whole batch of OIDs at once.

        Cached sets answer first. When the remaining OIDs span a dense
        range (a scan batch, or the survivors of one), all their RIDs
        resolve in a single OID-index range scan instead of one B-Tree
        descent per tuple. Sparse OID sets — where the range pass would
        visit mostly unwanted entries — fall back to per-OID probes.
        """
        answers: dict[int, tuple] = {}
        misses = oids
        cache = self.cache
        if cache.enabled:
            misses = []
            for oid in oids:
                hit, value = cache.lookup(self.table_name, oid)
                if hit:
                    answers[oid] = _cached_label_count(value, instance, label)
                else:
                    misses.append(oid)
        if misses:
            lo, hi = min(misses), max(misses)
            wanted = set(misses)
            if hi - lo + 1 > 4 * len(wanted):
                rid_of = self._rid_for
            else:
                rids: dict[int, RID] = {}
                for key, value in self.oid_index.range_scan(
                    encode_int(lo), encode_int(hi)
                ):
                    oid = decode_int(key)
                    if oid in wanted:
                        page_no, slot = struct.unpack("<IH", value)
                        rids[oid] = RID(page_no, slot)
                rid_of = rids.get
            for oid in misses:
                answers[oid] = self._stored_label_count(
                    rid_of(oid), instance, label
                )
        return [answers[oid] for oid in oids]

    def put(self, oid: int, objects: dict[str, SummaryObject]) -> bool:
        """Insert or replace the summary row of ``oid``.

        Returns True when this created a *new* storage row (the paper's
        "Adding Annotation — Insertion" case) and False on update.
        """
        # Belt-and-braces with the observer-driven invalidation: repair
        # writes storage rows directly, bypassing the SummaryManager.
        self.cache.invalidate(self.table_name, oid)
        self.bump_generation(oid)
        record = self._encode(objects)
        rid = self._rid_for(oid)
        if rid is None:
            new_rid = self.heap.insert(record)
            self.oid_index.insert(
                encode_int(oid), struct.pack("<IH", new_rid.page_no, new_rid.slot)
            )
            return True
        new_rid = self.heap.update(rid, record)
        if new_rid != rid:
            self.oid_index.delete(
                encode_int(oid), struct.pack("<IH", rid.page_no, rid.slot)
            )
            self.oid_index.insert(
                encode_int(oid), struct.pack("<IH", new_rid.page_no, new_rid.slot)
            )
        return False

    def delete(self, oid: int) -> None:
        """Drop the summary row of ``oid`` (tuple deletion, §4.1.2)."""
        self.cache.invalidate(self.table_name, oid)
        self.bump_generation(oid)
        rid = self._rid_for(oid)
        if rid is None:
            raise RecordNotFoundError(
                f"{self.table_name}_SummaryStorage: no row for OID {oid}"
            )
        self.heap.delete(rid)
        self.oid_index.delete(
            encode_int(oid), struct.pack("<IH", rid.page_no, rid.slot)
        )

    def rebuild_oid_index(self) -> dict[str, int]:
        """Rebuild the OID index from the heap alone (repair path).

        Unlike user tables, summary rows are *self-describing*: every
        serialized object carries its ``tuple_id``, so the full OID → RID
        mapping is recoverable from the heap. Rows that fail to decode, are
        empty, or duplicate an already-seen OID (first row wins) are
        salvage-deleted. Returns counters: ``kept``, ``salvaged``.
        """
        # Any OID may remap or vanish: stale everything for this table.
        self.cache.bump_epoch(self.table_name, "rebuild_oid_index")
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
            self.oid_index.insert(
                encode_int(oid), struct.pack("<IH", rid.page_no, rid.slot)
            )
        self.heap.recount()
        return {"kept": len(live), "salvaged": len(drop)}

    def scan(self) -> Iterator[tuple[int, dict[str, SummaryObject]]]:
        """Yield ``(oid, objects)`` for every annotated tuple."""
        rid_to_oid = {}
        for k, v in self.oid_index.items():
            page_no, slot = struct.unpack("<IH", v)
            rid_to_oid[RID(page_no, slot)] = decode_int(k)
        for rid, record in self.heap.scan():
            yield rid_to_oid[rid], self._decode(record)
