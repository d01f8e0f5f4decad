"""B-Tree node serialization.

Two node kinds share a page format discriminated by a leading byte:

Leaf::

    [ 0x01 | num:u16 | next_leaf:i32 | (klen:u16, key, vlen:u16, value)* ]

Internal::

    [ 0x00 | num:u16 | child0:u32 | (klen:u16, key, vlen:u16, value,
                                     child:u32)* ]

Internal separators are full ``(key, value)`` composites: entries strictly
less than separator *i* live under child *i*; entries greater than or equal
live to its right. This routes duplicate keys deterministically.

:func:`encode_entry` is the one definition of the ``(klen, key, vlen,
value)`` layout. A leaf keeps each entry's encoding beside it once it has
been written, so re-writing the page after an insert or delete encodes the
one entry that changed and joins the rest.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import CorruptPageError, StorageError

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")


def _read_chunk(data: bytes | bytearray, pos: int, length: int) -> bytes:
    """Slice ``length`` bytes, refusing silent truncation past the page end."""
    if pos + length > len(data):
        raise CorruptPageError(
            f"node field of {length} bytes at offset {pos} runs past the "
            f"{len(data)}-byte page"
        )
    return bytes(data[pos:pos + length])

LEAF_TAG = 1
INTERNAL_TAG = 0

#: Composite entry: (key bytes, value bytes). Ordered lexicographically as a
#: pair.
Entry = tuple[bytes, bytes]


def encode_entry(entry: Entry) -> bytes:
    """The serialized form of one (key, value) pair: ``klen:u16, key,
    vlen:u16, value``."""
    key, value = entry
    return _U16.pack(len(key)) + key + _U16.pack(len(value)) + value


def entry_size(entry: Entry) -> int:
    """Serialized size of one (key, value) pair in a leaf."""
    return 4 + len(entry[0]) + len(entry[1])


def separator_size(entry: Entry) -> int:
    """Serialized size of one separator + child pointer in an internal node."""
    return entry_size(entry) + 4


def _page(body: bytes, page_size: int) -> bytearray:
    data = bytearray(page_size)
    data[:len(body)] = body
    return data


@dataclass
class LeafNode:
    """A leaf holds sorted entries plus a pointer to the next leaf."""

    entries: list[Entry] = field(default_factory=list)
    next_leaf: int = -1  # page id of right sibling, -1 for none
    #: Cached serialized size; ``None`` means recompute.  Kept current by
    #: :meth:`insert_entry`/:meth:`remove_entry`; bulk reslices of
    #: ``entries`` must call :meth:`invalidate_size`.
    _size: int | None = field(default=None, repr=False, compare=False)
    #: ``encode_entry`` of each entry, parallel to ``entries``; ``None``
    #: until the first :meth:`to_bytes` and after :meth:`invalidate_size`.
    #: Maintained like ``_size``, and never pickled (:meth:`__getstate__`).
    _parts: list[bytes] | None = field(default=None, repr=False,
                                       compare=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_parts", None)
        return state

    def serialized_size(self) -> int:
        if self._size is None:
            self._size = 1 + 2 + 4 + sum(entry_size(e) for e in self.entries)
        return self._size

    def insert_entry(self, pos: int, entry: Entry) -> None:
        self.entries.insert(pos, entry)
        if self._size is not None:
            self._size += entry_size(entry)
        if self._parts is not None:
            self._parts.insert(pos, encode_entry(entry))

    def remove_entry(self, pos: int) -> None:
        entry = self.entries.pop(pos)
        if self._size is not None:
            self._size -= entry_size(entry)
        if self._parts is not None:
            del self._parts[pos]

    def invalidate_size(self) -> None:
        self._size = None
        self._parts = None

    def split_off(self, mid: int) -> "LeafNode":
        """Move ``entries[mid:]`` into a new right sibling and return it.

        The sibling inherits ``next_leaf``; the caller links this leaf to
        the sibling's page.  Encoded entries move with their entries.
        """
        right = LeafNode(self.entries[mid:], self.next_leaf)
        parts = self._parts
        self.entries = self.entries[:mid]
        self.invalidate_size()
        if parts is not None:
            right._parts, self._parts = parts[mid:], parts[:mid]
        return right

    def to_bytes(self, page_size: int) -> bytearray:
        if self._parts is None:
            self._parts = [encode_entry(e) for e in self.entries]
        header = (bytes([LEAF_TAG]) + _U16.pack(len(self.entries))
                  + _I32.pack(self.next_leaf))
        return _page(header + b"".join(self._parts), page_size)

    @classmethod
    def from_bytes(cls, data: bytes | bytearray) -> "LeafNode":
        try:
            (num,) = _U16.unpack_from(data, 1)
            (next_leaf,) = _I32.unpack_from(data, 3)
            entries: list[Entry] = []
            pos = 7
            for _ in range(num):
                (klen,) = _U16.unpack_from(data, pos)
                pos += 2
                key = _read_chunk(data, pos, klen)
                pos += klen
                (vlen,) = _U16.unpack_from(data, pos)
                pos += 2
                value = _read_chunk(data, pos, vlen)
                pos += vlen
                entries.append((key, value))
        except struct.error as exc:
            raise CorruptPageError(f"corrupt leaf node: {exc}") from exc
        # ``pos`` ends exactly at the serialized size: seed the cache.
        return cls(entries, next_leaf, _size=pos)


@dataclass
class InternalNode:
    """An internal node: ``children[i]`` < ``separators[i]`` <= ``children[i+1]``."""

    separators: list[Entry] = field(default_factory=list)
    children: list[int] = field(default_factory=list)  # page ids
    #: Cached serialized size; see :class:`LeafNode`.
    _size: int | None = field(default=None, repr=False, compare=False)

    def serialized_size(self) -> int:
        if self._size is None:
            self._size = 1 + 2 + 4 + sum(
                separator_size(s) for s in self.separators
            )
        return self._size

    def insert_separator(self, pos: int, separator: Entry,
                         child: int) -> None:
        """Insert ``separator`` with ``child`` as its right subtree."""
        self.separators.insert(pos, separator)
        self.children.insert(pos + 1, child)
        if self._size is not None:
            self._size += separator_size(separator)

    def invalidate_size(self) -> None:
        self._size = None

    def to_bytes(self, page_size: int) -> bytearray:
        if len(self.children) != len(self.separators) + 1:
            raise StorageError("internal node child/separator mismatch")
        pack32 = _U32.pack
        parts = [bytes([INTERNAL_TAG]), _U16.pack(len(self.separators)),
                 pack32(self.children[0])]
        for sep, child in zip(self.separators, self.children[1:]):
            parts += (encode_entry(sep), pack32(child))
        return _page(b"".join(parts), page_size)

    @classmethod
    def from_bytes(cls, data: bytes | bytearray) -> "InternalNode":
        try:
            (num,) = _U16.unpack_from(data, 1)
            (child0,) = _U32.unpack_from(data, 3)
            separators: list[Entry] = []
            children = [child0]
            pos = 7
            for _ in range(num):
                (klen,) = _U16.unpack_from(data, pos)
                pos += 2
                key = _read_chunk(data, pos, klen)
                pos += klen
                (vlen,) = _U16.unpack_from(data, pos)
                pos += 2
                value = _read_chunk(data, pos, vlen)
                pos += vlen
                (child,) = _U32.unpack_from(data, pos)
                pos += 4
                separators.append((key, value))
                children.append(child)
        except struct.error as exc:
            raise CorruptPageError(f"corrupt internal node: {exc}") from exc
        return cls(separators, children, _size=pos)


def parse_node(data: bytes | bytearray) -> LeafNode | InternalNode:
    """Parse a node page into the right node class.

    Raises :class:`~repro.errors.CorruptPageError` on an unknown node tag or
    on fields that run past the page boundary, so corrupted node pages
    surface as typed errors instead of decoding garbage.
    """
    if len(data) == 0:
        raise CorruptPageError("empty node page")
    if data[0] == LEAF_TAG:
        return LeafNode.from_bytes(data)
    if data[0] == INTERNAL_TAG:
        return InternalNode.from_bytes(data)
    raise CorruptPageError(f"unknown node tag {data[0]}")
