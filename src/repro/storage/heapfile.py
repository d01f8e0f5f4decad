"""Heap files: unordered collections of records addressed by RID.

A heap file is an ordered list of slotted pages. Records are appended into
the last page with room (a simple but effective free-space strategy for the
mostly-append workloads in this system); deletes tombstone the slot so RIDs
stay stable.

Records larger than a page spill to **overflow chains** (the same idea as
PostgreSQL's TOAST): the slotted page keeps a small stub pointing at a chain
of dedicated overflow pages. This is what lets a tuple's de-normalized
summary row keep growing as its annotation count climbs toward the paper's
200-annotations-per-tuple densities.
"""

from __future__ import annotations

import struct
from typing import Iterator, NamedTuple

from repro.errors import (
    CorruptPageError,
    PageFullError,
    ReproError,
    StorageError,
)
from repro.storage.buffer import BufferPool
from repro.storage.page import SlottedPage

_INLINE_TAG = 0
_OVERFLOW_TAG = 1

#: Stub stored in the slotted page for an overflow record:
#: [tag:u8 | total_len:u32 | first_overflow_page:u32]
_OVERFLOW_STUB = struct.Struct("<BII")
#: Overflow page header: [chunk_len:u32 | next_page:i32]
_OVERFLOW_HEADER = struct.Struct("<Ii")


class RID(NamedTuple):
    """Record identifier: (heap page position, slot number)."""

    page_no: int
    slot: int


class HeapFile:
    """An unordered record file over a buffer pool.

    ``page_ids`` maps heap page position -> disk page id; a RID's ``page_no``
    is the position, so heap pages can be recycled on disk without breaking
    RIDs.
    """

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self.page_ids: list[int] = []
        self._record_count = 0
        self._overflow_pages = 0

    def __len__(self) -> int:
        return self._record_count

    @property
    def num_pages(self) -> int:
        """All pages owned by the file, overflow chains included."""
        return len(self.page_ids) + self._overflow_pages

    def _page(self, page_no: int) -> SlottedPage:
        if not 0 <= page_no < len(self.page_ids):
            raise StorageError(f"heap page {page_no} out of range")
        data = self.pool.get_page(self.page_ids[page_no])
        return SlottedPage(data, page_size=self.pool.disk.page_size)

    def _dirty(self, page_no: int) -> None:
        self.pool.mark_dirty(self.page_ids[page_no])

    def _max_inline(self) -> int:
        return SlottedPage.max_record_size(self.pool.disk.page_size) - 1

    # -- overflow chains --------------------------------------------------------

    def _chunk_capacity(self) -> int:
        return self.pool.disk.page_size - _OVERFLOW_HEADER.size

    def _store_overflow(self, record: bytes) -> int:
        """Write ``record`` into a fresh overflow chain; returns its head."""
        capacity = self._chunk_capacity()
        chunks = [record[i:i + capacity] for i in range(0, len(record), capacity)]
        page_ids = [self.pool.new_page() for _ in chunks]
        self._overflow_pages += len(page_ids)
        for i, (page_id, chunk) in enumerate(zip(page_ids, chunks)):
            frame = self.pool.get_page(page_id)
            next_page = page_ids[i + 1] if i + 1 < len(page_ids) else -1
            _OVERFLOW_HEADER.pack_into(frame, 0, len(chunk), next_page)
            frame[_OVERFLOW_HEADER.size:_OVERFLOW_HEADER.size + len(chunk)] = chunk
            self.pool.mark_dirty(page_id)
        return page_ids[0]

    def _read_overflow(self, head: int, total_len: int) -> bytes:
        parts: list[bytes] = []
        page_id = head
        remaining = total_len
        while page_id != -1 and remaining > 0:
            frame = self.pool.get_page(page_id)
            chunk_len, next_page = _OVERFLOW_HEADER.unpack_from(frame, 0)
            parts.append(
                bytes(frame[_OVERFLOW_HEADER.size:_OVERFLOW_HEADER.size + chunk_len])
            )
            remaining -= chunk_len
            page_id = next_page
        return b"".join(parts)

    def _free_overflow(self, head: int) -> None:
        page_id = head
        while page_id != -1:
            frame = self.pool.get_page(page_id)
            _, next_page = _OVERFLOW_HEADER.unpack_from(frame, 0)
            self.pool.free_page(page_id)
            self._overflow_pages -= 1
            page_id = next_page

    def _wrap(self, record: bytes) -> bytes:
        if len(record) <= self._max_inline():
            return bytes([_INLINE_TAG]) + record
        head = self._store_overflow(record)
        return _OVERFLOW_STUB.pack(_OVERFLOW_TAG, len(record), head)

    def _unwrap(self, stored: bytes) -> bytes:
        if len(stored) == 0:
            raise CorruptPageError("empty stored record")
        if stored[0] == _INLINE_TAG:
            return stored[1:]
        if stored[0] != _OVERFLOW_TAG or len(stored) != _OVERFLOW_STUB.size:
            raise CorruptPageError(
                f"bad record framing: tag {stored[0]}, {len(stored)} bytes"
            )
        _, total_len, head = _OVERFLOW_STUB.unpack(stored)
        return self._read_overflow(head, total_len)

    def _release(self, stored: bytes) -> None:
        """Free any overflow chain owned by a stored record."""
        if stored[0] == _OVERFLOW_TAG:
            _, __, head = _OVERFLOW_STUB.unpack(stored)
            self._free_overflow(head)

    # -- operations -----------------------------------------------------------

    def insert(self, record: bytes) -> RID:
        """Append ``record``; returns its stable RID."""
        return self._insert_stored(self._wrap(record))

    def _insert_stored(self, stored: bytes) -> RID:
        if self.page_ids:
            page_no = len(self.page_ids) - 1
            page = self._page(page_no)
            if page.can_fit(len(stored)):
                slot = page.insert(stored)
                self._dirty(page_no)
                self._record_count += 1
                return RID(page_no, slot)
        page_id = self.pool.new_page()
        # Slotted pages carry a CRC32 header field: enroll them so the pool
        # stamps it on write-back and verifies it on miss reads.
        self.pool.protect(page_id)
        self.page_ids.append(page_id)
        page_no = len(self.page_ids) - 1
        fresh = SlottedPage(page_size=self.pool.disk.page_size)
        frame = self.pool.get_page(page_id)
        frame[:] = fresh.data
        page = SlottedPage(frame, page_size=self.pool.disk.page_size)
        slot = page.insert(stored)
        self._dirty(page_no)
        self._record_count += 1
        return RID(page_no, slot)

    def read(self, rid: RID) -> bytes:
        """Return the record stored at ``rid``."""
        return self._unwrap(self._page(rid.page_no).read(rid.slot))

    def read_many(self, rids: list[RID]) -> list[bytes]:
        """:meth:`read` of each of ``rids``, in order, reading each heap
        page once; overflow chains are read after every page."""
        by_page: dict[int, list[int]] = {}
        for n, rid in enumerate(rids):
            by_page.setdefault(rid.page_no, []).append(n)
        stored: list[bytes] = [b""] * len(rids)
        for page_no, positions in by_page.items():
            page = self._page(page_no)
            for n in positions:
                stored[n] = page.read(rids[n].slot)
        return [self._unwrap(record) for record in stored]

    def delete(self, rid: RID) -> None:
        """Delete the record at ``rid`` (tombstones the slot)."""
        # Pinned: _release touches overflow-chain pages through the pool,
        # which may otherwise evict this very page and orphan the frame
        # view we are about to tombstone through.
        if not 0 <= rid.page_no < len(self.page_ids):
            raise StorageError(f"heap page {rid.page_no} out of range")
        page_id = self.page_ids[rid.page_no]
        self.pool.pin(page_id)
        try:
            page = self._page(rid.page_no)
            self._release(page.read(rid.slot))
            page.delete(rid.slot)
            self._dirty(rid.page_no)
            self._record_count -= 1
        finally:
            self.pool.unpin(page_id)

    def update(self, rid: RID, record: bytes) -> RID:
        """Update the record at ``rid`` in place when it fits.

        If the new record no longer fits in its page, the record moves to a
        fresh location and the *new* RID is returned; callers owning
        secondary structures must handle the move.
        """
        # Pinned across the whole rewrite: _release frees the old overflow
        # chain and _wrap may allocate a new one, and both walk other pages
        # through the pool.  Under memory pressure that used to evict this
        # page between reading the frame view and writing through it — the
        # write landed on an orphaned buffer and mark_dirty blew up, leaving
        # the old record freed but the slot not yet rewritten.
        if not 0 <= rid.page_no < len(self.page_ids):
            raise StorageError(f"heap page {rid.page_no} out of range")
        page_id = self.page_ids[rid.page_no]
        self.pool.pin(page_id)
        try:
            page = self._page(rid.page_no)
            self._release(page.read(rid.slot))
            stored = self._wrap(record)
            try:
                page.update(rid.slot, stored)
                self._dirty(rid.page_no)
                return rid
            except PageFullError:
                page.delete(rid.slot)
                self._dirty(rid.page_no)
                self._record_count -= 1
                # Re-insert the already-wrapped form: _wrap may have
                # allocated an overflow chain that must not be duplicated.
                return self._insert_stored(stored)
        finally:
            self.pool.unpin(page_id)

    def scan(self) -> Iterator[tuple[RID, bytes]]:
        """Yield ``(rid, record)`` for every live record, in page order."""
        for page_no, slots, records in self.scan_pages():
            for slot, record in zip(slots, records):
                yield RID(page_no, slot), record

    def scan_pages(self) -> Iterator[tuple[int, list[int], list[bytes]]]:
        """Yield ``(page_no, slots, records)`` for every heap page, in page
        order: :meth:`scan` a page at a time, each inline record copied off
        the page once."""
        for page_no in range(len(self.page_ids)):
            page = self._page(page_no)
            extents, size = page.extents(), page.page_size
            with memoryview(page.data) as view:
                # Anything but an in-page inline record (overflow stubs,
                # bad framing) goes through _unwrap.
                records = [
                    bytes(view[offset + 1:offset + length])
                    if length and offset < size and view[offset] == _INLINE_TAG
                    else self._unwrap(bytes(view[offset:offset + length]))
                    for _, offset, length in extents
                ]
            yield page_no, [slot for slot, _, _ in extents], records

    # -- repair hooks -----------------------------------------------------------

    def salvage_delete(self, rid: RID) -> None:
        """Best-effort delete for the repair path.

        A normal :meth:`delete` re-reads the stored record to release its
        overflow chain; on a record too damaged to read (or whose stub now
        points at garbage) that raises. Here the slot is tombstoned anyway
        — losing an overflow chain beats keeping an undecodable record —
        and a slot that cannot even be tombstoned is left for page
        quarantine to deal with.
        """
        try:
            self.delete(rid)
        except ReproError:
            try:
                self._page(rid.page_no).delete(rid.slot)
            except ReproError:
                return
            self._dirty(rid.page_no)
            self._record_count -= 1

    def recount(self) -> int:
        """Re-derive the live-record counter from the pages themselves.

        Page quarantine and salvage deletes can leave the cached counter
        out of step with the slots; the slots are authoritative.
        """
        live = 0
        for page_no in range(len(self.page_ids)):
            live += self._page(page_no).live_count()
        self._record_count = live
        return live

    def drop(self) -> None:
        """Deallocate every page of the file (overflow chains included)."""
        for page_no in range(len(self.page_ids)):
            page = self._page(page_no)
            for _, stored in page.records():
                self._release(stored)
        for page_id in self.page_ids:
            self.pool.free_page(page_id)
        self.page_ids.clear()
        self._record_count = 0
