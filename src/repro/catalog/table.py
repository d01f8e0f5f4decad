"""Tables: heap storage + OID index + secondary B-Tree indexes.

Every inserted row receives a monotonically increasing OID (the system
column the paper shows as ``OID`` in Figure 4). A unique B-Tree on the OID
column maps OIDs to heap RIDs — this is the structure behind the engine's
``disk_tuple_loc()`` used by the Summary-BTree's backward referencing.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, Iterator

from repro.btree import BTree
from repro.catalog.keys import (
    FIRST_VALUE_KEY,
    decode_int,
    encode_int,
    encode_key,
)
from repro.catalog.schema import Schema
from repro.errors import (
    CatalogError,
    IndexError_,
    RecordNotFoundError,
    ReproError,
)
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile, RID
from repro.storage.page import SlottedPage
from repro.storage.record import LazyColumn, RecordBlock

_RID_CODEC = struct.Struct("<IH")


def pack_rid(rid: RID) -> bytes:
    return _RID_CODEC.pack(rid.page_no, rid.slot)


def unpack_rid(data: bytes) -> RID:
    page_no, slot = _RID_CODEC.unpack(data)
    return RID(page_no, slot)


def rid_lookup(oid_index: BTree, oid: int) -> RID | None:
    """The RID an OID index maps ``oid`` to, or None."""
    hits = oid_index.search(encode_int(oid))
    return unpack_rid(hits[0]) if hits else None


def rid_resolver(oid_index: BTree, oids) -> Callable[[int], RID | None]:
    """``oid -> RID | None`` for ``oids`` through an OID index.  When they
    span a dense range (a scan batch, or the survivors of one), every RID
    resolves in a single range scan instead of one B-Tree descent per
    tuple; one OID, or a sparse set whose range would visit mostly
    unwanted entries, descends per OID (:func:`rid_lookup`)."""
    wanted = set(oids)
    if len(oids) < 2 or max(wanted) - min(wanted) + 1 > 4 * len(wanted):
        return functools.partial(rid_lookup, oid_index)
    rids: dict[int, RID] = {}
    for key, value in oid_index.range_scan(
        encode_int(min(wanted)), encode_int(max(wanted))
    ):
        oid = decode_int(key)
        if oid in wanted:
            rids[oid] = unpack_rid(value)
    return rids.get


class Table:
    """A user relation: schema, heap file, OID index, secondary indexes."""

    #: Bumped by every row insert/update/delete (and by ``reindex``, which
    #: may salvage rows away) *after* its heap and OID-index changes, even
    #: when one fails.  Scan-built consumers — the optimizer's column
    #: statistics, the slot -> OID map — read it *before* they scan and
    #: compare it with the version they scanned at, so a scan overlapping
    #: a write is never taken as current.  Class-level so tables from
    #: older images start at 0.
    data_version = 0

    #: ``(data_version, pages)``: per heap page, a list indexed by slot
    #: holding the OID of the record there (None where the OID index names
    #: none) — the OID index turned around, so sequential scans read heap
    #: pages only.  Process state: never pickled (:meth:`__getstate__`).
    _oid_map: tuple[int, list[list[int | None]]] | None = None

    def __init__(self, name: str, schema: Schema, pool: BufferPool):
        self.name = name
        self.schema = schema
        self.pool = pool
        self.heap = HeapFile(pool)
        self._codec = schema.codec()
        self._next_oid = 1
        #: Unique B-Tree on the OID system column: oid -> heap RID.
        self.oid_index = BTree(pool, unique=True)
        #: Secondary indexes on data columns: column name -> B-Tree whose
        #: entries are (encoded column value, encoded oid).
        self.secondary_indexes: dict[str, BTree] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_oid_map", None)
        return state

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def row_count(self) -> int:
        return len(self.heap)

    # -- DML -------------------------------------------------------------------

    def canonical_row(self, row: dict[str, object] | list[object]) -> list[object]:
        """Validated positional values for ``row`` (mapping or positional).

        This is the canonical form WAL records carry: replay re-inserts
        exactly these values regardless of how the original call spelled
        the row.
        """
        values = self.schema.row_from_dict(row) if isinstance(row, dict) else list(row)
        self.schema.validate_row(values)
        return values

    @property
    def next_oid(self) -> int:
        """The OID the next insert will assign (WAL records log it ahead)."""
        return self._next_oid

    def insert(
        self, row: dict[str, object] | list[object], oid: int | None = None
    ) -> int:
        """Insert a row (mapping or positional); returns its OID.

        ``oid`` forces the assigned OID (WAL replay re-creating a tuple
        under its original identity); the OID counter always advances past
        it so later inserts cannot collide.
        """
        values = self.canonical_row(row)
        if oid is None:
            oid = self._next_oid
        self._next_oid = max(self._next_oid, oid + 1)
        try:
            rid = self.heap.insert(self._codec.encode(values))
            try:
                self.oid_index.insert(encode_int(oid), pack_rid(rid))
            except BaseException:
                # A record no OID names would break every later scan.
                self.heap.delete(rid)
                raise
            for col_name, index in self.secondary_indexes.items():
                value = values[self.schema.index_of(col_name)]
                key = encode_key(value, self.schema.column(col_name).type)
                index.insert(key, encode_int(oid))
        finally:
            self.data_version += 1
        return oid

    def has_tuple(self, oid: int) -> bool:
        """Whether a live tuple has ``oid``: O(1) for an OID never
        assigned, else one OID-index probe (no heap read)."""
        return oid < self._next_oid and \
            rid_lookup(self.oid_index, oid) is not None

    def disk_tuple_loc(self, oid: int) -> RID:
        """Heap location of the tuple with ``oid`` (paper's diskTupleLoc())."""
        rid = rid_lookup(self.oid_index, oid)
        if rid is None:
            raise self._missing(oid)
        return rid

    def _missing(self, oid: int) -> RecordNotFoundError:
        return RecordNotFoundError(f"{self.name}: no tuple with OID {oid}")

    def read(self, oid: int) -> list[object]:
        """Positional row values for ``oid``."""
        return self._codec.decode(self.heap.read(self.disk_tuple_loc(oid)))

    def read_dict(self, oid: int) -> dict[str, object]:
        return self.schema.dict_from_row(self.read(oid))

    def read_at(self, rid: RID) -> list[object]:
        """Positional row values at a known heap location (no OID lookup)."""
        return self._codec.decode(self.heap.read(rid))

    def _records_for(self, oids: list[int]) -> dict[int, bytes]:
        """Raw heap records for many OIDs, their RIDs resolved by
        :func:`rid_resolver` and each heap page read once
        (:meth:`HeapFile.read_many`); missing OIDs are simply absent."""
        rid_of = rid_resolver(self.oid_index, oids)
        rids = {oid: rid for oid in dict.fromkeys(oids)
                if (rid := rid_of(oid)) is not None}
        return dict(zip(rids, self.heap.read_many(list(rids.values()))))

    def read_many(self, oids: list[int]) -> list[list[object]]:
        """Positional rows for ``oids``, in order (see :meth:`_records_for`);
        an OID with no tuple raises ``RecordNotFoundError``, as in
        :meth:`read`."""
        records = self._records_for(oids)
        rows = []
        for oid in oids:
            record = records.get(oid)
            if record is None:
                raise self._missing(oid)
            rows.append(self._codec.decode(record))
        return rows

    def read_column_many(
        self, oids: list[int], column: str
    ) -> dict[int, object]:
        """One column's values for many OIDs, decoding nothing else."""
        items = list(self._records_for(oids).items())
        values = self._codec.decode_column(
            [record for _, record in items], self.schema.index_of(column)
        )
        return {oid: value for (oid, _), value in zip(items, values)}

    def update(self, oid: int, row: dict[str, object]) -> RID | None:
        """Update the named columns of tuple ``oid``.

        Returns the RID the tuple moved away from when the grown record no
        longer fit its page (None when it stayed): holders of the tuple's
        heap location, such as backward pointers, must follow it.
        """
        old_values = self.read(oid)
        values = list(old_values)
        for name, value in row.items():
            values[self.schema.index_of(name)] = value
        self.schema.validate_row(values)
        old_rid = self.disk_tuple_loc(oid)
        try:
            new_rid = self.heap.update(old_rid, self._codec.encode(values))
            if new_rid != old_rid:
                self.oid_index.delete(encode_int(oid), pack_rid(old_rid))
                self.oid_index.insert(encode_int(oid), pack_rid(new_rid))
            for col_name, index in self.secondary_indexes.items():
                i = self.schema.index_of(col_name)
                if values[i] != old_values[i]:
                    ctype = self.schema.column(col_name).type
                    index.delete(encode_key(old_values[i], ctype), encode_int(oid))
                    index.insert(encode_key(values[i], ctype), encode_int(oid))
        finally:
            self.data_version += 1
        return old_rid if new_rid != old_rid else None

    def delete(self, oid: int) -> None:
        """Delete tuple ``oid`` and all its index entries."""
        values = self.read(oid)
        rid = self.disk_tuple_loc(oid)
        try:
            self.heap.delete(rid)
            self.oid_index.delete(encode_int(oid), pack_rid(rid))
            for col_name, index in self.secondary_indexes.items():
                value = values[self.schema.index_of(col_name)]
                key = encode_key(value, self.schema.column(col_name).type)
                index.delete(key, encode_int(oid))
        finally:
            self.data_version += 1

    def _slot_oids(self) -> list[list[int | None]]:
        """The current slot -> OID map (see ``_oid_map``), rebuilt from
        the OID index when a row write has moved ``data_version``."""
        version = self.data_version  # read before the walk: see data_version
        cached = self._oid_map
        if cached is not None and cached[0] == version:
            return cached[1]
        pages: list[list[int | None]] = [[] for _ in self.heap.page_ids]
        for key, value in self.oid_index.items():
            page_no, slot = _RID_CODEC.unpack(value)
            if page_no >= len(pages):
                continue  # dangling entry: no such heap page to scan
            oids = pages[page_no]
            if slot >= len(oids):
                oids.extend([None] * (slot + 1 - len(oids)))
            oids[slot] = decode_int(key)
        self._oid_map = (version, pages)
        return pages

    def _pages(self) -> Iterator[tuple[list[int], list[bytes]]]:
        """``(oids, records)`` of each heap page's live tuples, heap order.

        OIDs come from the slot -> OID map, so a scan reads heap pages
        only (the OID index too on the first scan after a row write).
        """
        slot_oids = self._slot_oids()
        for page_no, slots, records in self.heap.scan_pages():
            known = slot_oids[page_no] if page_no < len(slot_oids) else []
            n = len(known)
            oids = [known[slot] if slot < n else None for slot in slots]
            if None in oids:
                rid = RID(page_no, slots[oids.index(None)])
                raise IndexError_(f"table {self.name}: live record at {rid} "
                                  f"has no OID-index entry")
            yield oids, records

    def scan(self) -> Iterator[tuple[int, list[object]]]:
        """Yield ``(oid, values)`` for every live tuple, heap order."""
        decode = self._codec.decode
        for oids, records in self._pages():
            yield from zip(oids, map(decode, records))

    def scan_batches(
        self, batch_rows: int
    ) -> Iterator[tuple[list[int], list[LazyColumn]]]:
        """Yield ``(oids, columns)`` chunks of up to ``batch_rows`` live
        tuples in heap order — the batch executor's scan path, filled a
        heap page at a time. Each column is a :class:`LazyColumn` over the
        chunk's one :class:`RecordBlock`: nothing is decoded until an
        operator actually reads that column (or row), so a selective filter
        never pays for the columns (or rows) it drops."""
        width = len(self.schema.names)

        def lazy(records: list[bytes]) -> list[LazyColumn]:
            block = RecordBlock(self._codec, records)
            return [LazyColumn(block, j) for j in range(width)]

        oids: list[int] = []
        records: list[bytes] = []
        for page_oids, page_records in self._pages():
            oids += page_oids
            records += page_records
            while len(records) >= batch_rows:
                yield oids[:batch_rows], lazy(records[:batch_rows])
                del oids[:batch_rows], records[:batch_rows]
        if records:
            yield oids, lazy(records)

    # -- repair ------------------------------------------------------------------

    def reindex(self) -> dict[str, int]:
        """Rebuild every index of this table from its heap (repair path).

        The OID index is the *only* holder of OID assignments, so it cannot
        be conjured from the heap: entries whose RID no longer holds a
        live, schema-decodable record are **pruned**, and live heap records
        with no surviving OID mapping (or that fail to decode) are
        **salvaged** out — their identity is unrecoverable. Secondary
        indexes are fully derived and are rebuilt wholesale. The heap's
        record counter is re-derived from the pages at the end.

        Returns counters: ``kept``, ``pruned``, ``salvaged``.
        """
        try:
            return self._rebuild_indexes()
        finally:
            self.data_version += 1

    def _rebuild_indexes(self) -> dict[str, int]:
        # Best-effort read of the existing OID mapping; an unreadable index
        # contributes nothing (its records will be salvaged, not orphaned
        # under invented OIDs).
        entries: dict[int, RID] = {}
        try:
            for key, value in self.oid_index.items():
                entries.setdefault(decode_int(key), unpack_rid(value))
        except ReproError:
            entries = {}
        # Live, decodable heap records (per-page so one corrupt record
        # cannot abort the whole walk).
        live: dict[RID, list[object]] = {}
        bad: list[RID] = []
        for page_no in range(len(self.heap.page_ids)):
            page = SlottedPage(
                self.pool.get_page(self.heap.page_ids[page_no]),
                page_size=self.pool.disk.page_size,
            )
            for slot, stored in page.records():
                rid = RID(page_no, slot)
                try:
                    values = self._codec.decode(self.heap._unwrap(stored))
                    self.schema.validate_row(values)
                except ReproError:
                    bad.append(rid)
                    continue
                live[rid] = values
        # Keep one OID per live RID (lowest OID wins on corrupt duplicates).
        rid_to_oid: dict[RID, int] = {}
        for oid in sorted(entries):
            rid = entries[oid]
            if rid in live and rid not in rid_to_oid:
                rid_to_oid[rid] = oid
        pruned = len(entries) - len(rid_to_oid)
        salvage = bad + [rid for rid in live if rid not in rid_to_oid]
        for rid in salvage:
            self.heap.salvage_delete(rid)
        # Fresh OID index from the surviving mapping.
        try:
            self.oid_index.drop()
        except ReproError:
            pass  # corrupt tree: abandon its pages rather than fail repair
        self.oid_index = BTree(self.pool, unique=True)
        for rid, oid in rid_to_oid.items():
            self.oid_index.insert(encode_int(oid), pack_rid(rid))
        if rid_to_oid:
            self._next_oid = max(self._next_oid, max(rid_to_oid.values()) + 1)
        # Secondary indexes are derived: rebuild from the kept rows.
        for col_name in list(self.secondary_indexes):
            try:
                self.secondary_indexes[col_name].drop()
            except ReproError:
                pass
            index = BTree(self.pool)
            ctype = self.schema.column(col_name).type
            pos = self.schema.index_of(col_name)
            for rid, oid in rid_to_oid.items():
                index.insert(encode_key(live[rid][pos], ctype), encode_int(oid))
            self.secondary_indexes[col_name] = index
        self.heap.recount()
        return {
            "kept": len(rid_to_oid),
            "pruned": pruned,
            "salvaged": len(salvage),
        }

    # -- secondary indexes -------------------------------------------------------

    def create_index(self, column: str) -> BTree:
        """Build a standard B-Tree index on a data column."""
        if column in self.secondary_indexes:
            raise CatalogError(f"index on {self.name}.{column} already exists")
        ctype = self.schema.column(column).type
        index = BTree(self.pool)
        col_pos = self.schema.index_of(column)
        for oid, values in self.scan():
            index.insert(encode_key(values[col_pos], ctype), encode_int(oid))
        self.secondary_indexes[column] = index
        return index

    def has_index(self, column: str) -> bool:
        return column in self.secondary_indexes

    def index_lookup(self, column: str, value: object) -> list[int]:
        """OIDs of tuples where ``column == value`` via the secondary index."""
        index = self.secondary_indexes.get(column)
        if index is None:
            raise CatalogError(f"no index on {self.name}.{column}")
        key = encode_key(value, self.schema.column(column).type)
        return [decode_int(v) for v in index.search(key)]

    def index_range(
        self,
        column: str,
        lo: object | None,
        hi: object | None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[int]:
        """OIDs with ``lo <= column <= hi``, in column order. An open bound
        (None) is unbounded on that side; NULLs satisfy no range."""
        index = self.secondary_indexes.get(column)
        if index is None:
            raise CatalogError(f"no index on {self.name}.{column}")
        ctype = self.schema.column(column).type
        if lo is None:
            lo_key, lo_inclusive = FIRST_VALUE_KEY, True
        else:
            lo_key = encode_key(lo, ctype)
        hi_key = None if hi is None else encode_key(hi, ctype)
        for _, v in index.range_scan(lo_key, hi_key, lo_inclusive, hi_inclusive):
            yield decode_int(v)
