"""Order-preserving key encodings for B-Tree indexes.

Every encoder maps Python values to byte strings whose lexicographic order
matches the natural value order, so B-Tree range scans return values in the
right sequence. NULLs sort first via a leading tag byte.
"""

from __future__ import annotations

import struct

from repro.errors import IndexError_
from repro.storage.record import ValueType

_NULL_TAG = b"\x00"
_VALUE_TAG = b"\x01"
#: Sorts after every NULL key and at or before every value key: the
#: inclusive lower bound of "any non-NULL value".
FIRST_VALUE_KEY = _VALUE_TAG

_I64_BE = struct.Struct(">Q")
_F64_BE = struct.Struct(">d")

_INT_OFFSET = 1 << 63


def encode_int(value: int) -> bytes:
    """Offset-binary big-endian signed 64-bit encoding."""
    if not -_INT_OFFSET <= value < _INT_OFFSET:
        raise IndexError_(f"integer {value} out of 64-bit range")
    return _I64_BE.pack(value + _INT_OFFSET)


def decode_int(data: bytes) -> int:
    return _I64_BE.unpack(data)[0] - _INT_OFFSET


def encode_float(value: float) -> bytes:
    """IEEE-754 bits, flipped so byte order matches numeric order."""
    bits = struct.unpack(">Q", _F64_BE.pack(value))[0]
    if bits & (1 << 63):
        bits ^= (1 << 64) - 1  # negative: flip everything
    else:
        bits ^= 1 << 63  # positive: flip sign bit
    return _I64_BE.pack(bits)


def encode_text(value: str) -> bytes:
    return value.encode("utf-8")


def encode_bool(value: bool) -> bytes:
    return b"\x01" if value else b"\x00"


def encode_key(value: object, vtype: ValueType) -> bytes:
    """Encode ``value`` of ``vtype`` as an order-preserving index key.

    ``None`` sorts before every real value.
    """
    if value is None:
        return _NULL_TAG
    if vtype is ValueType.INT:
        return _VALUE_TAG + encode_int(value)
    if vtype is ValueType.FLOAT:
        return _VALUE_TAG + encode_float(float(value))
    if vtype is ValueType.TEXT:
        return _VALUE_TAG + encode_text(value)
    if vtype is ValueType.BOOL:
        return _VALUE_TAG + encode_bool(value)
    raise IndexError_(f"type {vtype} is not indexable")
