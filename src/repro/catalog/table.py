"""Tables: heap storage + OID index + secondary B-Tree indexes.

Every inserted row receives a monotonically increasing OID (the system
column the paper shows as ``OID`` in Figure 4). A unique B-Tree on the OID
column maps OIDs to heap RIDs — this is the structure behind the engine's
``disk_tuple_loc()`` used by the Summary-BTree's backward referencing.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.btree import BTree
from repro.catalog.keys import decode_int, encode_int, encode_key
from repro.catalog.schema import Schema
from repro.errors import CatalogError, RecordNotFoundError, ReproError
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile, RID
from repro.storage.page import SlottedPage
from repro.storage.record import LazyColumn

_RID_CODEC = struct.Struct("<IH")


def pack_rid(rid: RID) -> bytes:
    return _RID_CODEC.pack(rid.page_no, rid.slot)


def unpack_rid(data: bytes) -> RID:
    page_no, slot = _RID_CODEC.unpack(data)
    return RID(page_no, slot)


class Table:
    """A user relation: schema, heap file, OID index, secondary indexes."""

    #: Bumped by every row insert/update/delete (and by ``reindex``, which
    #: may salvage rows away).  Scan-built consumers — the optimizer's
    #: column statistics — compare it with the version they scanned at.
    #: Class-level so tables from older images start at 0.
    data_version = 0

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
        self.data_version += 1
        rid = self.heap.insert(self._codec.encode(values))
        self.oid_index.insert(encode_int(oid), pack_rid(rid))
        for col_name, index in self.secondary_indexes.items():
            value = values[self.schema.index_of(col_name)]
            key = encode_key(value, self.schema.column(col_name).type)
            index.insert(key, encode_int(oid))
        return oid

    def disk_tuple_loc(self, oid: int) -> RID:
        """Heap location of the tuple with ``oid`` (paper's diskTupleLoc())."""
        hits = self.oid_index.search(encode_int(oid))
        if not hits:
            raise RecordNotFoundError(f"{self.name}: no tuple with OID {oid}")
        return unpack_rid(hits[0])

    def read(self, oid: int) -> list[object]:
        """Positional row values for ``oid``."""
        return self._codec.decode(self.heap.read(self.disk_tuple_loc(oid)))

    def read_dict(self, oid: int) -> dict[str, object]:
        return self.schema.dict_from_row(self.read(oid))

    def read_at(self, rid: RID) -> list[object]:
        """Positional row values at a known heap location (no OID lookup)."""
        return self._codec.decode(self.heap.read(rid))

    def _records_for(self, oids: list[int]) -> dict[int, bytes]:
        """Raw heap records for many OIDs; missing OIDs are simply absent.

        Dense OID sets resolve all their RIDs in a single OID-index range
        pass instead of one B-Tree descent each; sparse sets — where the
        range pass would visit mostly unwanted entries — fall back to
        per-OID lookups.
        """
        if not oids:
            return {}
        wanted = set(oids)
        lo, hi = min(wanted), max(wanted)
        out: dict[int, bytes] = {}
        if hi - lo + 1 > 4 * len(wanted):
            for oid in wanted:
                try:
                    out[oid] = self.heap.read(self.disk_tuple_loc(oid))
                except RecordNotFoundError:
                    pass
            return out
        for key, value in self.oid_index.range_scan(
            encode_int(lo), encode_int(hi)
        ):
            oid = decode_int(key)
            if oid in wanted:
                out[oid] = self.heap.read(unpack_rid(value))
        return out

    def read_many(self, oids: list[int]) -> dict[int, list[object]]:
        """Positional rows for many OIDs (see :meth:`_records_for`)."""
        return {
            oid: self._codec.decode(record)
            for oid, record in self._records_for(oids).items()
        }

    def read_column_many(
        self, oids: list[int], column: str
    ) -> dict[int, object]:
        """One column's values for many OIDs, decoding nothing else."""
        items = list(self._records_for(oids).items())
        values = self._codec.decode_column(
            [record for _, record in items], self.schema.index_of(column)
        )
        return {oid: value for (oid, _), value in zip(items, values)}

    def update(self, oid: int, row: dict[str, object]) -> None:
        """Update the named columns of tuple ``oid``."""
        old_values = self.read(oid)
        values = list(old_values)
        for name, value in row.items():
            values[self.schema.index_of(name)] = value
        self.schema.validate_row(values)
        old_rid = self.disk_tuple_loc(oid)
        self.data_version += 1
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

    def delete(self, oid: int) -> None:
        """Delete tuple ``oid`` and all its index entries."""
        values = self.read(oid)
        rid = self.disk_tuple_loc(oid)
        self.data_version += 1
        self.heap.delete(rid)
        self.oid_index.delete(encode_int(oid), pack_rid(rid))
        for col_name, index in self.secondary_indexes.items():
            value = values[self.schema.index_of(col_name)]
            key = encode_key(value, self.schema.column(col_name).type)
            index.delete(key, encode_int(oid))

    def scan(self) -> Iterator[tuple[int, list[object]]]:
        """Yield ``(oid, values)`` for every live tuple, heap order.

        OIDs are recovered by scanning the OID index once into a reverse map;
        heap order is preserved for realistic sequential-scan behaviour.
        """
        rid_to_oid = {
            unpack_rid(v): decode_int(k)
            for k, v in self.oid_index.items()
        }
        for rid, record in self.heap.scan():
            yield rid_to_oid[rid], self._codec.decode(record)

    def scan_batches(
        self, batch_rows: int
    ) -> Iterator[tuple[list[int], list[LazyColumn]]]:
        """Yield ``(oids, columns)`` chunks of up to ``batch_rows`` live
        tuples in heap order — the batch executor's scan path. Each column
        is a :class:`LazyColumn` over the chunk's raw record bytes: nothing
        is decoded until an operator actually reads that column, so a
        selective filter never pays for the columns (or rows) it drops."""
        rid_to_oid = {
            unpack_rid(v): decode_int(k)
            for k, v in self.oid_index.items()
        }
        width = len(self.schema.names)

        def lazy(records: list[bytes]) -> list[LazyColumn]:
            return [LazyColumn(self._codec, records, j) for j in range(width)]

        oids: list[int] = []
        records: list[bytes] = []
        for rid, record in self.heap.scan():
            oids.append(rid_to_oid[rid])
            records.append(record)
            if len(records) >= batch_rows:
                yield oids, lazy(records)
                oids, records = [], []
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
        self.data_version += 1
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
        """OIDs with ``lo <= column <= hi``, in column order."""
        index = self.secondary_indexes.get(column)
        if index is None:
            raise CatalogError(f"no index on {self.name}.{column}")
        ctype = self.schema.column(column).type
        lo_key = None if lo is None else encode_key(lo, ctype)
        hi_key = None if hi is None else encode_key(hi, ctype)
        for _, v in index.range_scan(lo_key, hi_key, lo_inclusive, hi_inclusive):
            yield decode_int(v)
