"""Slotted page layout.

Each page holds a slot directory that grows forward from the header and
record payloads that grow backward from the end of the page — the classic
slotted-page organization. Deleting a record leaves a tombstone slot so that
RIDs of other records remain stable.

Layout::

    [ num_slots:u16 | free_end:u16 | crc32:u32 ]          header (8 bytes)
    [ (offset:u16, length:u16) * num_slots ]              slot directory
    ...free space...
    [ record payloads packed right-to-left ]

The ``crc32`` field covers every byte of the page *except itself* (bytes
``[0:4]`` plus ``[8:page_size]``). It is stamped by the buffer pool when a
dirty page is written back to disk and verified when the page is read on a
miss, so torn writes and bit flips surface as a typed
:class:`~repro.errors.CorruptPageError` instead of decoding garbage.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import (
    CorruptPageError,
    PageFullError,
    RecordNotFoundError,
    StorageError,
)

PAGE_SIZE = 8192

_HEADER = struct.Struct("<HHI")  # num_slots, free_end, crc32
_SLOT = struct.Struct("<HH")
_HEADER_SIZE = _HEADER.size
_SLOT_SIZE = _SLOT.size
_CRC = struct.Struct("<I")
_CRC_OFFSET = 4


def compute_checksum(data: bytes | bytearray) -> int:
    """CRC32 of a slotted page, excluding the checksum field itself."""
    view = memoryview(data)
    crc = zlib.crc32(view[:_CRC_OFFSET])
    return zlib.crc32(view[_CRC_OFFSET + _CRC.size:], crc) & 0xFFFFFFFF


def stamp_checksum(data: bytearray) -> None:
    """Write the page's current CRC32 into its header field."""
    _CRC.pack_into(data, _CRC_OFFSET, compute_checksum(data))


def verify_checksum(data: bytes | bytearray) -> bool:
    """True when the stored CRC32 matches the page contents."""
    (stored,) = _CRC.unpack_from(data, _CRC_OFFSET)
    return stored == compute_checksum(data)

#: A slot with this offset marks a deleted record (offset 0 can never hold a
#: record because the header occupies it).
_TOMBSTONE = 0


class SlottedPage:
    """A mutable view over one page's bytes with slotted-record operations."""

    def __init__(self, data: bytearray | None = None, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        if data is None:
            data = bytearray(page_size)
            _HEADER.pack_into(data, 0, 0, page_size, 0)
        if len(data) != page_size:
            raise StorageError(f"page of {len(data)} bytes; expected {page_size}")
        self.data = data

    # -- header accessors ---------------------------------------------------

    @property
    def num_slots(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[0]

    @property
    def free_end(self) -> int:
        """Offset one past the free region (records start here)."""
        return _HEADER.unpack_from(self.data, 0)[1]

    def _set_header(self, num_slots: int, free_end: int) -> None:
        # The crc field (bytes 4..8) is left alone: it is stamped by the
        # buffer pool at write-back time, not on every mutation.
        struct.pack_into("<HH", self.data, 0, num_slots, free_end)

    def _slot(self, slot_no: int) -> tuple[int, int]:
        if not 0 <= slot_no < self.num_slots:
            raise RecordNotFoundError(f"slot {slot_no} out of range")
        return _SLOT.unpack_from(self.data, _HEADER_SIZE + slot_no * _SLOT_SIZE)

    def _set_slot(self, slot_no: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, _HEADER_SIZE + slot_no * _SLOT_SIZE, offset, length)

    # -- capacity -----------------------------------------------------------

    @property
    def free_space(self) -> int:
        """Bytes available for a new record *including* its new slot."""
        dir_end = _HEADER_SIZE + self.num_slots * _SLOT_SIZE
        return self.free_end - dir_end

    def can_fit(self, record_size: int) -> bool:
        # A new record may reuse a tombstone slot; be conservative and assume
        # a fresh slot is needed.
        return self.free_space >= record_size + _SLOT_SIZE

    @classmethod
    def max_record_size(cls, page_size: int = PAGE_SIZE) -> int:
        """Largest record a fresh page can hold."""
        return page_size - _HEADER_SIZE - _SLOT_SIZE

    # -- record operations ----------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert ``record`` and return its slot number."""
        if len(record) == 0:
            raise StorageError("cannot store an empty record")
        if not self.can_fit(len(record)):
            raise PageFullError(
                f"record of {len(record)} bytes does not fit "
                f"({self.free_space} free)"
            )
        num_slots = self.num_slots
        new_end = self.free_end - len(record)
        self.data[new_end:self.free_end] = record
        # Reuse a tombstone slot when one exists, otherwise append.
        slot_no = num_slots
        for i, (offset, _) in enumerate(self._directory()):
            if offset == _TOMBSTONE:
                slot_no = i
                break
        if slot_no == num_slots:
            num_slots += 1
        self._set_header(num_slots, new_end)
        self._set_slot(slot_no, new_end, len(record))
        return slot_no

    def read(self, slot_no: int) -> bytes:
        """Return the record stored at ``slot_no``."""
        offset, length = self._slot(slot_no)
        if offset == _TOMBSTONE:
            raise RecordNotFoundError(f"slot {slot_no} is deleted")
        return bytes(self.data[offset:offset + length])

    def delete(self, slot_no: int) -> None:
        """Tombstone ``slot_no`` and compact the record area."""
        offset, length = self._slot(slot_no)
        if offset == _TOMBSTONE:
            raise RecordNotFoundError(f"slot {slot_no} is already deleted")
        self._set_slot(slot_no, _TOMBSTONE, 0)
        self._compact_after_removal(offset, length)

    def update(self, slot_no: int, record: bytes) -> None:
        """Replace the record at ``slot_no`` in place (RID-stable)."""
        offset, length = self._slot(slot_no)
        if offset == _TOMBSTONE:
            raise RecordNotFoundError(f"slot {slot_no} is deleted")
        if len(record) == length:
            self.data[offset:offset + len(record)] = record
            return
        if self.free_space + length < len(record):
            # Reject before mutating so the caller can relocate the record.
            raise PageFullError(
                f"updated record of {len(record)} bytes does not fit"
            )
        # Remove then re-insert into the same slot.
        self._set_slot(slot_no, _TOMBSTONE, 0)
        self._compact_after_removal(offset, length)
        new_end = self.free_end - len(record)
        self.data[new_end:self.free_end] = record
        self._set_header(self.num_slots, new_end)
        self._set_slot(slot_no, new_end, len(record))

    def _compact_after_removal(self, gone_offset: int, gone_length: int) -> None:
        """Shift records below the removed one up to close the hole."""
        free_end = self.free_end
        moved = self.data[free_end:gone_offset]
        self.data[free_end + gone_length:gone_offset + gone_length] = moved
        new_end = free_end + gone_length
        self._set_header(self.num_slots, new_end)
        for i, (offset, length) in enumerate(self._directory()):
            if offset != _TOMBSTONE and offset < gone_offset:
                self._set_slot(i, offset + gone_length, length)

    def _directory(self) -> list[tuple[int, int]]:
        """Every slot's ``(offset, length)``, unpacked in one pass."""
        dir_end = _HEADER_SIZE + self.num_slots * _SLOT_SIZE
        if dir_end > self.page_size:
            raise CorruptPageError(
                f"slot directory ends at {dir_end}, past the page end"
            )
        with memoryview(self.data) as view:
            return list(_SLOT.iter_unpack(view[_HEADER_SIZE:dir_end]))

    def extents(self) -> list[tuple[int, int, int]]:
        """``(slot_no, offset, length)`` of every live record, unread."""
        return [(i, offset, length)
                for i, (offset, length) in enumerate(self._directory())
                if offset != _TOMBSTONE]

    def records(self) -> list[tuple[int, bytes]]:
        """Return ``(slot_no, record)`` for every live record."""
        extents = self.extents()
        with memoryview(self.data) as view:
            return [(i, bytes(view[offset:offset + length]))
                    for i, offset, length in extents]

    def live_count(self) -> int:
        """Number of live (non-tombstoned) records."""
        return sum(1 for offset, _ in self._directory() if offset != _TOMBSTONE)

    # -- integrity ----------------------------------------------------------

    def check(self) -> list[str]:
        """Verify slot/free-space accounting; returns problem descriptions.

        The invariants enforced (all guaranteed by insert/update/delete plus
        eager compaction):

        * header bounds: slot directory ends at or before ``free_end``,
          ``free_end`` within the page;
        * every live slot lies inside ``[free_end, page_size)``;
        * tombstones carry length 0;
        * live records exactly tile ``[free_end, page_size)`` — no overlap,
          no gaps.
        """
        problems: list[str] = []
        try:
            num_slots, free_end = struct.unpack_from("<HH", self.data, 0)
        except struct.error as exc:  # pragma: no cover - header always 8B
            return [f"unreadable header: {exc}"]
        dir_end = _HEADER_SIZE + num_slots * _SLOT_SIZE
        if free_end > self.page_size:
            return [f"free_end {free_end} beyond page size {self.page_size}"]
        if dir_end > free_end:
            return [
                f"slot directory ({num_slots} slots, ends {dir_end}) "
                f"overlaps record area (free_end {free_end})"
            ]
        live: list[tuple[int, int, int]] = []
        for i in range(num_slots):
            offset, length = _SLOT.unpack_from(
                self.data, _HEADER_SIZE + i * _SLOT_SIZE
            )
            if offset == _TOMBSTONE:
                if length != 0:
                    problems.append(f"tombstone slot {i} has length {length}")
                continue
            if offset < free_end or offset + length > self.page_size:
                problems.append(
                    f"slot {i} extent [{offset}, {offset + length}) outside "
                    f"record area [{free_end}, {self.page_size})"
                )
                continue
            live.append((offset, length, i))
        expected = free_end
        for offset, length, i in sorted(live):
            if offset != expected:
                kind = "overlaps" if offset < expected else "leaves a gap before"
                problems.append(
                    f"slot {i} at offset {offset} {kind} expected offset "
                    f"{expected} (records must tile the record area)"
                )
            expected = max(expected, offset + length)
        if expected != self.page_size:
            problems.append(
                f"record area ends at {expected}, not page size {self.page_size}"
            )
        return problems
