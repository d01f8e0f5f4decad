"""Typed record (row) serialization.

A :class:`RecordCodec` is built from a list of :class:`ValueType` and packs a
row of Python values into a compact binary record: a null bitmap followed by
fixed-width numerics and length-prefixed variable fields. This is the on-page
format used by heap files and catalog tables.
"""

from __future__ import annotations

import struct
from enum import Enum

from repro.errors import SchemaError

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class ValueType(Enum):
    """Column datatypes supported by the engine."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"
    BLOB = "blob"

    def validate(self, value: object) -> None:
        """Raise :class:`SchemaError` unless ``value`` fits this type."""
        if value is None:
            return
        ok = {
            ValueType.INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
            ValueType.FLOAT: lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool),
            ValueType.TEXT: lambda v: isinstance(v, str),
            ValueType.BOOL: lambda v: isinstance(v, bool),
            ValueType.BLOB: lambda v: isinstance(v, (bytes, bytearray)),
        }[self](value)
        if not ok:
            raise SchemaError(f"value {value!r} is not a valid {self.value}")


class RecordCodec:
    """Packs/unpacks rows described by a fixed sequence of value types."""

    def __init__(self, types: list[ValueType]):
        self.types = list(types)
        self._bitmap_bytes = (len(self.types) + 7) // 8

    def encode(self, values: list[object]) -> bytes:
        """Serialize ``values`` (one per column, ``None`` allowed) to bytes."""
        if len(values) != len(self.types):
            raise SchemaError(
                f"row has {len(values)} values; schema has {len(self.types)}"
            )
        bitmap = bytearray(self._bitmap_bytes)
        parts: list[bytes] = []
        for i, (vtype, value) in enumerate(zip(self.types, values)):
            vtype.validate(value)
            if value is None:
                bitmap[i // 8] |= 1 << (i % 8)
                continue
            if vtype is ValueType.INT:
                parts.append(_I64.pack(value))
            elif vtype is ValueType.FLOAT:
                parts.append(_F64.pack(float(value)))
            elif vtype is ValueType.BOOL:
                parts.append(b"\x01" if value else b"\x00")
            elif vtype is ValueType.TEXT:
                raw = value.encode("utf-8")
                parts.append(_U32.pack(len(raw)) + raw)
            else:  # BLOB
                raw = bytes(value)
                parts.append(_U32.pack(len(raw)) + raw)
        return bytes(bitmap) + b"".join(parts)

    def decode(self, data: bytes) -> list[object]:
        """Deserialize bytes produced by :meth:`encode` back into a row."""
        bitmap = data[: self._bitmap_bytes]
        pos = self._bitmap_bytes
        values: list[object] = []
        for i, vtype in enumerate(self.types):
            if bitmap[i // 8] & (1 << (i % 8)):
                values.append(None)
                continue
            if vtype is ValueType.INT:
                values.append(_I64.unpack_from(data, pos)[0])
                pos += _I64.size
            elif vtype is ValueType.FLOAT:
                values.append(_F64.unpack_from(data, pos)[0])
                pos += _F64.size
            elif vtype is ValueType.BOOL:
                values.append(data[pos] == 1)
                pos += 1
            else:  # TEXT / BLOB
                (length,) = _U32.unpack_from(data, pos)
                pos += _U32.size
                raw = data[pos:pos + length]
                pos += length
                if vtype is ValueType.TEXT:
                    values.append(raw.decode("utf-8"))
                else:
                    values.append(bytes(raw))
        return values

    def decode_column(self, records: list[bytes], index: int) -> list[object]:
        """Decode one column across ``records``, skipping every other field.

        Skipped fields cost a width computation (or a length unpack for
        variable-width fields) instead of value construction — the lazy
        scan-batch path uses this so a query only pays for the columns it
        actually touches.
        """
        types = self.types
        bitmap_bytes = self._bitmap_bytes
        out: list[object] = []
        for data in records:
            view = memoryview(data)
            pos = bitmap_bytes
            value: object = None
            for i, vtype in enumerate(types):
                if view[i // 8] & (1 << (i % 8)):
                    if i == index:
                        break
                    continue
                if vtype is ValueType.INT:
                    if i == index:
                        value = _I64.unpack_from(view, pos)[0]
                        break
                    pos += _I64.size
                elif vtype is ValueType.FLOAT:
                    if i == index:
                        value = _F64.unpack_from(view, pos)[0]
                        break
                    pos += _F64.size
                elif vtype is ValueType.BOOL:
                    if i == index:
                        value = view[pos] == 1
                        break
                    pos += 1
                else:  # TEXT / BLOB
                    (length,) = _U32.unpack_from(view, pos)
                    pos += _U32.size
                    if i == index:
                        raw = bytes(view[pos:pos + length])
                        value = (
                            raw.decode("utf-8") if vtype is ValueType.TEXT
                            else raw
                        )
                        break
                    pos += length
            out.append(value)
        return out

    def decode_columns(self, records: list[bytes]) -> list[list[object]]:
        """Decode many records straight into column-major lists.

        The batch executor's scan path: values land in per-column lists
        with no intermediate row objects, reading each record through a
        ``memoryview`` so variable-width fields are sliced without copying
        until their final ``bytes``/``str`` is built.
        """
        types = self.types
        bitmap_bytes = self._bitmap_bytes
        cols: list[list[object]] = [[] for _ in types]
        for data in records:
            view = memoryview(data)
            pos = bitmap_bytes
            for i, vtype in enumerate(types):
                if view[i // 8] & (1 << (i % 8)):
                    cols[i].append(None)
                    continue
                if vtype is ValueType.INT:
                    cols[i].append(_I64.unpack_from(view, pos)[0])
                    pos += _I64.size
                elif vtype is ValueType.FLOAT:
                    cols[i].append(_F64.unpack_from(view, pos)[0])
                    pos += _F64.size
                elif vtype is ValueType.BOOL:
                    cols[i].append(view[pos] == 1)
                    pos += 1
                else:  # TEXT / BLOB
                    (length,) = _U32.unpack_from(view, pos)
                    pos += _U32.size
                    raw = bytes(view[pos:pos + length])
                    pos += length
                    cols[i].append(
                        raw.decode("utf-8") if vtype is ValueType.TEXT
                        else raw
                    )
        return cols


class RecordBlock:
    """One scan chunk's raw records, shared by every column of the chunk.

    ``row(i)`` decodes record *i* whole, once, and memoizes it, so a row
    view built cell by cell off the chunk's lazy columns pays one field
    walk per record rather than one per cell.
    """

    __slots__ = ("codec", "records", "_rows")

    def __init__(self, codec: RecordCodec, records: list[bytes],
                 rows: dict[int, list[object]] | None = None):
        self.codec = codec
        self.records = records
        self._rows: dict[int, list[object]] = rows if rows is not None else {}

    def row(self, i: int) -> list[object]:
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = self.codec.decode(self.records[i])
        return row

    def take(self, indices) -> "RecordBlock":
        """Sub-block of the given records, keeping rows already decoded."""
        rows = {}
        for new_i, old_i in enumerate(indices):
            hit = self._rows.get(old_i)
            if hit is not None:
                rows[new_i] = hit
        return RecordBlock(
            self.codec, [self.records[i] for i in indices], rows
        )


class LazyColumn:
    """A scan-batch column that decodes itself on first real access.

    A column index into its chunk's :class:`RecordBlock`. ``values()``
    decodes the whole column via :meth:`RecordCodec.decode_column` and
    memoizes the list; a single element read before that goes through the
    block's decoded row. ``take`` before forcing just subsets the block,
    so a filter that drops most of a batch never decodes the dropped rows
    at all.
    """

    __slots__ = ("block", "index", "_values")

    def __init__(self, block: RecordBlock, index: int):
        self.block = block
        self.index = index
        self._values: list[object] | None = None

    def values(self) -> list[object]:
        if self._values is None:
            self._values = self.block.codec.decode_column(
                self.block.records, self.index
            )
        return self._values

    def take(self, indices, blocks: dict) -> "LazyColumn | list[object]":
        """Subset of the given rows. Sibling columns taken with one shared
        ``blocks`` dict (old block -> taken block) stay on one sub-block."""
        if self._values is not None:
            return [self._values[i] for i in indices]
        block = blocks.get(self.block)
        if block is None:
            block = blocks[self.block] = self.block.take(indices)
        return LazyColumn(block, self.index)

    def __len__(self) -> int:
        return len(self.block.records)

    def __getitem__(self, i):
        if self._values is not None:
            return self._values[i]
        return self.block.row(i)[self.index]

    def __iter__(self):
        return iter(self.values())

    def __eq__(self, other):
        if isinstance(other, LazyColumn):
            other = other.values()
        return self.values() == other
