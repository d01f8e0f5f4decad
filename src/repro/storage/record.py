"""Typed record (row) serialization.

A :class:`RecordCodec` is built from a list of :class:`ValueType` and packs a
row of Python values into a compact binary record: a null bitmap followed by
fixed-width numerics and length-prefixed variable fields. This is the on-page
format used by heap files and catalog tables.
"""

from __future__ import annotations

import struct
from enum import Enum
from functools import lru_cache

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

    #: Members are singletons: hash by identity (C speed), since the
    #: decoder memo hashes a schema's types on every decode.
    __hash__ = object.__hash__

    def validate(self, value: object) -> None:
        """Raise :class:`SchemaError` unless ``value`` fits this type."""
        if value is not None and not _FITS[self](value):
            raise SchemaError(f"value {value!r} is not a valid {self.value}")


_FITS = {
    ValueType.INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    ValueType.FLOAT: lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    ValueType.TEXT: lambda v: isinstance(v, str),
    ValueType.BOOL: lambda v: isinstance(v, bool),
    ValueType.BLOB: lambda v: isinstance(v, (bytes, bytearray)),
}

#: Bounds the decoder memo; one schema needs at most ``len(types) + 1``.
_MAX_DECODERS = 1024
_WIDTH = {ValueType.INT: 8, ValueType.FLOAT: 8, ValueType.BOOL: 1}
#: Source of one non-NULL field's value read at ``p``, leaving ``p`` at
#: its end.
_READ = {
    ValueType.INT: "_i64(d, (p := p + 8) - 8)[0]",
    ValueType.FLOAT: "_f64(d, (p := p + 8) - 8)[0]",
    ValueType.BOOL: "d[(p := p + 1) - 1] == 1",
    ValueType.TEXT: "d[(s := p + 4):(p := s + _u32(d, p)[0])].decode('utf-8')",
    ValueType.BLOB: "bytes(d[(s := p + 4):(p := s + _u32(d, p)[0])])",
}


def _null(i: int) -> str:
    """Source testing field ``i``'s null bit."""
    return f"d[{i // 8}] & {1 << i % 8}"


@lru_cache(maxsize=_MAX_DECODERS)
def _decoder(types: tuple, index: int):
    """The compiled decoder of records of ``types``: ``index`` -1 gives
    ``row(data)``, ``j`` gives ``column(records)`` for field ``j``.

    Generated once per schema and field, whatever NULLs its rows hold, so
    a schema compiles at most ``len(types) + 1`` of them.  The row decoder
    is one list display: per field a null-bit test, then an unpack at the
    running position, with no type branch.  Column decoder ``j`` is one
    comprehension: it skips each earlier field by its width (or its
    length) unless its null bit is set, then reads field ``j``.  Both
    test bits and read fields in the order of a field-by-field walk, so a
    truncated record fails as the walk does.  The source holds only
    integers and fixed names.  Module state in an LRU memo, so a pickled
    codec carries none of it.
    """
    env = {"_i64": _I64.unpack_from, "_f64": _F64.unpack_from,
           "_u32": _U32.unpack_from}
    pos = str((len(types) + 7) // 8)
    if index < 0:
        fields = ", ".join(f"None if {_null(i)} else {_READ[vtype]}"
                           for i, vtype in enumerate(types))
        source = f"def f(d):\n    p = {pos}\n    return [{fields}]"
    else:
        for i, vtype in enumerate(types[:index]):
            if vtype in _WIDTH:
                pos = f"{pos} + (0 if {_null(i)} else {_WIDTH[vtype]})"
            else:
                pos = f"(q := {pos}) + (0 if {_null(i)} else 4 + _u32(d, q)[0])"
        source = (f"def f(rs): return [None if (p := {pos}) < 0 or "
                  f"{_null(index)} else {_READ[types[index]]} for d in rs]")
    exec(source, env)
    return env["f"]


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
        """Deserialize bytes produced by :meth:`encode` back into a row,
        through the schema's compiled row decoder."""
        return _decoder(tuple(self.types), -1)(data)

    def decode_column(self, records: list[bytes], index: int) -> list[object]:
        """Decode column ``index`` across ``records``, skipping every other
        field: the lazy scan-batch path pays only for the columns a query
        touches."""
        return _decoder(tuple(self.types), index)(records)


class RecordBlock:
    """One scan chunk's raw records, shared by every column of the chunk.

    ``row(i)`` decodes record *i* whole, once, and memoizes it, so a row
    view built cell by cell off the chunk's lazy columns pays one decode
    per record rather than one per cell.
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

    @property
    def forced(self) -> bool:
        """Whether the whole column is decoded already."""
        return self._values is not None

    def take(self, indices, blocks: dict) -> "LazyColumn":
        """Subset of the given rows (a forced column keeps its values).
        Sibling columns taken with one shared ``blocks`` dict (old block
        -> taken block) stay on one sub-block."""
        block = blocks.get(self.block)
        if block is None:
            block = blocks[self.block] = self.block.take(indices)
        taken = LazyColumn(block, self.index)
        if self._values is not None:
            taken._values = [self._values[i] for i in indices]
        return taken

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
