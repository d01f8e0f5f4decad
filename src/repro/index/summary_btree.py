"""The Summary-BTree index (§4.1).

A B-Tree over itemized ``label:count`` keys built directly on the
de-normalized summary storage — no replication, no normalization. Leaf
entries carry **backward pointers**: the heap location of the annotated data
tuple in relation ``R`` itself, obtained through the engine-internal
``disk_tuple_loc()`` (Table's OID index), rather than a pointer into
``R_SummaryStorage``. When summary propagation is not required, this saves
the join with the SummaryStorage table entirely (Figure 13's up-to-4x win).

The index subscribes to :class:`~repro.summaries.maintenance.SummaryManager`
events, implementing exactly the maintenance cases of §4.1.2:

* *Adding Annotation — Insertion*: itemize all ``k`` labels, insert each
  (cost ``O(k·log_B kN + log_B M)``).
* *Adding Annotation — Update*: delete + re-insert only the modified label
  keys (cost ``O(2·log_B kN + log_B M)`` per changed label).
* *Deleting tuple*: remove every key of the tuple's object.

An update that relocates a data tuple moves its backward pointers with it
(:meth:`SummaryBTreeIndex.on_tuple_move`).

For the Figure 13 ablation the index can also be built with *conventional*
pointers that reference the SummaryStorage row instead.
"""

from __future__ import annotations

import struct
from typing import Iterator, NamedTuple

from repro.btree import BTree
from repro.catalog.table import Table
from repro.errors import IndexError_, ReproError
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


class SummaryBTreeIndex:
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
        self.tree = BTree(table.pool)
        #: Number of automatic key-width rebuilds performed (footnote 1).
        self.rebuilds = 0
        #: Number of lookup_eq / lookup_range probes served (Figure 11/12
        #: observability; surfaced via Database.metrics_snapshot()).
        self.probes = 0

    # -- size accounting (Figure 7) ------------------------------------------------

    def pages_used(self) -> int:
        """Index node pages — this scheme adds nothing else."""
        return self.tree.node_count()

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

    # -- SummaryObserver protocol (maintenance, §4.1.2) -----------------------------------

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
        for label, new_count in new_counts.items():
            old_count = old_counts.get(label)
            if old_count == new_count:
                continue
            if old_count is not None:
                self.tree.delete(
                    itemize(label, old_count, self.width).encode(), pointer
                )
            self.tree.insert(
                itemize(label, new_count, self.width).encode(), pointer
            )

    def on_tuple_delete(self, oid: int, counts: dict[str, int]) -> None:
        """Deleting tuple: drop every index entry of its object."""
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

    # -- bulk build ----------------------------------------------------------------------

    def bulk_build(self) -> int:
        """Index every existing classifier object (initial upload mode).

        Returns the number of keys inserted.
        """
        inserted = 0
        for oid, objects in self.storage.scan():
            obj = objects.get(self.instance_name)
            if isinstance(obj, ClassifierObject):
                self.on_summary_insert(oid, obj)
                inserted += len(obj.rep())
        return inserted

    def rebuild(self) -> int:
        """Discard the tree and re-derive it from the summary storage
        (repair path). Backward pointers are re-resolved through
        ``disk_tuple_loc()``, so a repaired OID index re-anchors every
        leaf entry. Returns the number of keys inserted.

        Unlike the width rebuilds of :meth:`_check_width` this does not
        count toward ``rebuilds`` (that counter measures footnote 1's
        automatic key widening, not healing).
        """
        try:
            self.tree.drop()
        except ReproError:
            pass  # corrupt tree: abandon its pages rather than fail repair
        self.tree = BTree(self.table.pool)
        return self.bulk_build()

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
        self.tree.drop()
        self.tree = BTree(self.table.pool)
        self.width = new_width
        self.rebuilds += 1
        self.bulk_build()
