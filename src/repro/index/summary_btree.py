"""The Summary-BTree index (§4.1).

A B-Tree over itemized ``label:count`` keys built directly on the
de-normalized summary storage — no replication, no normalization. Leaf
entries carry **backward pointers**: the heap location of the annotated data
tuple in relation ``R`` itself, obtained through the engine-internal
``disk_tuple_loc()`` (Table's OID index), rather than a pointer into
``R_SummaryStorage``. When summary propagation is not required, this saves
the join with the SummaryStorage table entirely (Figure 13's up-to-4x win).

The index is a :class:`~repro.index.derived.DerivedIndex`: it hears its
table's storage-row events and turns them into exactly the maintenance
cases of §4.1.2:

* *Adding Annotation — Insertion*: itemize all ``k`` labels, insert each
  (cost ``O(k·log_B kN + log_B M)``).
* *Adding Annotation — Update*: delete + re-insert only the modified label
  keys (cost ``O(2·log_B kN + log_B M)`` per changed label).
* *Deleting tuple*: remove every key of the tuple's object.

An update that relocates a data tuple moves its backward pointers with it
(:meth:`SummaryBTreeIndex.on_tuple_move`).

For the Figure 13 ablation the index can also be built with *conventional*
pointers that reference the SummaryStorage row instead; a write that
relocates the row re-points every key of it.
"""

from __future__ import annotations

import struct
from typing import Iterator, NamedTuple

from repro.btree import BTree
from repro.catalog.table import Table
from repro.errors import IndexError_, ReproError
from repro.index.derived import ClassifierIndex, Probe
from repro.index.itemize import (
    DEFAULT_WIDTH,
    clamp_probe,
    itemize,
    max_count,
    probe_range,
)
from repro.storage.heapfile import RID
from repro.summaries.objects import ClassifierObject
from repro.summaries.storage import SummaryStorage

_POINTER = struct.Struct("<qIH")  # oid, page_no, slot


class IndexPointer(NamedTuple):
    """What a Summary-BTree leaf entry points at."""

    oid: int
    rid: RID  # heap location: in R (backward) or SummaryStorage (conventional)


def _pack(oid: int, rid: RID) -> bytes:
    return _POINTER.pack(oid, rid.page_no, rid.slot)


def _unpack(data: bytes) -> IndexPointer:
    oid, page_no, slot = _POINTER.unpack(data)
    return IndexPointer(oid, RID(page_no, slot))


class SummaryBTreeIndex(ClassifierIndex):
    """Classifier-type index over one (table, summary instance) pair.

    Parameters
    ----------
    table:
        The user relation ``R`` whose classifier objects are indexed.
    storage:
        ``R``'s SummaryStorage (needed for rebuilds and for conventional
        pointers).
    instance_name:
        The Classifier summary instance being indexed.
    backward_pointers:
        True (default, the paper's scheme) points leaf entries at the data
        tuples in ``R``; False points at the SummaryStorage rows.
    """

    kind = "summary"

    def __init__(
        self,
        table: Table,
        storage: SummaryStorage,
        instance_name: str,
        backward_pointers: bool = True,
        width: int = DEFAULT_WIDTH,
    ):
        self.table = table
        self.storage = storage
        self.instance_name = instance_name
        self.backward_pointers = backward_pointers
        self.width = width
        self._create_parts(table.pool)
        #: Number of automatic key-width rebuilds performed (footnote 1).
        self.rebuilds = 0
        #: Number of lookup_eq / lookup_range probes served (Figure 11/12
        #: observability; surfaced via Database.metrics_snapshot()).
        self.probes = 0

    @property
    def table_name(self) -> str:
        return self.table.name.lower()

    # -- derived-structure protocol ----------------------------------------------------

    def _create_parts(self, pool) -> None:
        self.tree = BTree(pool)

    def parts(self) -> dict:
        # Index node pages only: this scheme adds nothing else (Figure 7).
        return {"tree": self.tree}

    def derive(self, oid: int, objects: dict) -> list:
        obj = objects.get(self.instance_name)
        if not isinstance(obj, ClassifierObject):
            return []
        pointer = _unpack(self._pointer_for(oid))
        return [(itemize(label, count, self.width), pointer)
                for label, count in obj.rep()]

    def entries(self) -> Iterator[tuple[str, IndexPointer]]:
        for key, value in self.tree.items():
            yield key.decode(), _unpack(value)

    def __len__(self) -> int:
        return len(self.tree)

    # -- pointer construction ----------------------------------------------------------

    def _pointer_for(self, oid: int) -> bytes:
        if self.backward_pointers:
            # Backward referencing: resolve the data tuple's heap location
            # via disk_tuple_loc() (one O(log_B M) OID-index probe).
            return _pack(oid, self.table.disk_tuple_loc(oid))
        rid = self.storage._rid_for(oid)
        if rid is None:
            raise IndexError_(f"no summary row for OID {oid}")
        return _pack(oid, rid)

    # -- maintenance (§4.1.2) ----------------------------------------------------------

    def on_summary_insert(self, oid: int, obj: ClassifierObject) -> None:
        """Adding Annotation — Insertion: index all k itemized keys."""
        if self._check_width(max((c for _, c in obj.rep()), default=0)):
            return  # the rebuild re-indexed everything, this object included
        pointer = self._pointer_for(oid)
        for label, count in obj.rep():
            self.tree.insert(itemize(label, count, self.width).encode(), pointer)

    def on_summary_update(
        self, oid: int, old_counts: dict[str, int], new_counts: dict[str, int]
    ) -> None:
        """Adding Annotation — Update: re-key only the modified labels."""
        if self._check_width(max(new_counts.values(), default=0)):
            return  # the rebuild re-indexed everything at the new width
        pointer = self._pointer_for(oid)
        held = pointer if self.backward_pointers else \
            self._held_pointer(oid, old_counts, pointer)
        for label, new_count in new_counts.items():
            old_count = old_counts.get(label)
            if old_count == new_count and held == pointer:
                continue
            if old_count is not None:
                self.tree.delete(
                    itemize(label, old_count, self.width).encode(), held
                )
            self.tree.insert(
                itemize(label, new_count, self.width).encode(), pointer
            )

    def _held_pointer(self, oid: int, counts: dict[str, int],
                      current: bytes) -> bytes:
        """The pointer the keys of ``oid`` carry now.  A conventional
        pointer names the storage row, which a growing write may have
        relocated; the old location is read off one held key."""
        if counts:
            label, count = next(iter(counts.items()))
            key = itemize(label, count, self.width).encode()
            for value in self.tree.search(key):
                if _unpack(value).oid == oid:
                    return value
        return current

    def on_tuple_delete(self, oid: int, counts: dict[str, int]) -> None:
        """Deleting tuple: drop every index entry of its object (heard
        while the storage row still exists, so a conventional pointer
        still resolves)."""
        pointer = self._pointer_for(oid)
        for label, count in counts.items():
            self.tree.delete(itemize(label, count, self.width).encode(), pointer)

    def on_tuple_move(self, oid: int, old_rid: RID) -> None:
        """An update relocated the data tuple from ``old_rid``: backward
        pointers name its heap location, so its entries follow it."""
        if not self.backward_pointers:
            return
        obj = (self.storage.get(oid) or {}).get(self.instance_name)
        if not isinstance(obj, ClassifierObject):
            return
        old, new = _pack(oid, old_rid), self._pointer_for(oid)
        for label, count in obj.rep():
            key = itemize(label, count, self.width).encode()
            self.tree.delete(key, old)
            self.tree.insert(key, new)

    # -- querying (§4.1.2 Summary-BTree Querying) ------------------------------------------

    def lookup_eq(self, label: str, count: int) -> list[IndexPointer]:
        """Equality probe: ``classLabel = constant``."""
        self.probes += 1
        if clamp_probe(count, count, True, True, self.width) is None:
            return []
        key = itemize(label, count, self.width).encode()
        return [_unpack(v) for v in self.tree.search(key)]

    def lookup_range(
        self,
        label: str,
        lo: int | None = None,
        hi: int | None = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[int, IndexPointer]]:
        """Range probe; yields ``(count, pointer)`` in ascending count order.

        This ordered traversal is what gives queries an *interesting order*
        on the indexed label (§5.1 Rules 3–6): a sort on the label count can
        be satisfied directly from the index scan.
        """
        # Count the probe at call time, not at first consumption: callers
        # that plan but never pull rows still performed the B-Tree descent.
        self.probes += 1
        bounds = clamp_probe(lo, hi, lo_inclusive, hi_inclusive, self.width)
        if bounds is None:
            return iter(())
        lo, hi, lo_inclusive, hi_inclusive = bounds
        lo_key, hi_key = probe_range(label, lo, hi, self.width)

        def scan() -> Iterator[tuple[int, IndexPointer]]:
            for key, value in self.tree.range_scan(
                lo_key.encode(), hi_key.encode(), lo_inclusive, hi_inclusive
            ):
                count = int(key.decode().rsplit(":", 1)[1])
                yield count, _unpack(value)

        return scan()

    def _probe(self, conjunct, args, direction, options):
        # Backward pointers: leaf -> data heap directly; conventional
        # pointers pay the storage row plus the OID-index join with R, and
        # the decoded storage row carries the summaries.
        backward = self.backward_pointers
        label, lo, hi = args[:3]
        return Probe(
            self.key, "SummaryIndexScan",
            f"{self.instance_name}.{label} in [{lo}, {hi}] {direction}",
            args, conjunct, pages=1 if backward else 2,
            hop_descents=0.0 if backward else 1.0,
            summaries_with_hit=not backward,
            order=(self.instance_name, label, direction),
        )

    def _resolve(self, pointer, table):
        if self.backward_pointers:
            # Straight to the data tuple in R — no SummaryStorage join.
            try:
                return pointer.oid, table.read_at(pointer.rid), None
            except ReproError:
                return pointer.oid, table.read(pointer.oid), None  # moved
        # Conventional pointer: the leaf references the summary row;
        # reaching the data tuple costs the OID-index join with R.
        objects = self.storage._decode(self.storage.heap.read(pointer.rid))
        return pointer.oid, table.read(pointer.oid), objects

    # -- automatic key widening (footnote 1) ------------------------------------------------

    def _check_width(self, needed_count: int) -> bool:
        """Widen + rebuild when ``needed_count`` no longer fits.

        Returns True when a rebuild happened (callers must not re-insert:
        the rebuild already indexed the current storage contents).
        """
        if needed_count <= max_count(self.width):
            return False
        new_width = self.width
        while needed_count > max_count(new_width):
            new_width += 1
        self._rebuild(new_width)
        return True

    def _rebuild(self, new_width: int) -> None:
        """Re-itemize every key at a wider count format.

        The new width is sized over the whole storage so the rebuild cannot
        re-trigger itself mid-build.
        """
        for _, objects in self.storage.scan():
            obj = objects.get(self.instance_name)
            if isinstance(obj, ClassifierObject):
                top = max((c for _, c in obj.rep()), default=0)
                while top > max_count(new_width):
                    new_width += 1
        self.width = new_width
        self.rebuilds += 1
        self.rebuild(self.storage)
