"""Compiled record decoders and the page-at-a-time heap scan (DESIGN.md,
"Lazy scans and record blocks").

The exactness oracle for the codec is the field-by-field walk the engine
used to run, kept here and only here: test each field's null bit, branch
on its type, advance a cursor. A Hypothesis property draws schemas of 1–20
columns over all five types (so null bitmaps of one to three bytes), rows
with NULLs anywhere, all-NULL rows, empty and non-ASCII text, empty blobs,
ints at the 64-bit bounds and NaN/±inf/−0.0, and requires
``RecordCodec.decode`` and ``decode_column`` to equal the walk bit for bit,
over blocks that mix null bitmaps too. A truncated record fails with the
walk's exception type (or decodes to the walk's values where the walk does
not fail).

The scan oracle is the per-row path: every heap page's live slots in
order, each record unwrapped, its OID looked up in the OID index, then
decoded by the walk. ``Table.scan`` and ``Table.scan_batches(k)`` must
yield the same ``(oid, values)`` sequence over tables with tombstones,
moved and overflow-sized rows and many pages; a live record the OID index
does not name still raises ``IndexError_``.
"""

from __future__ import annotations

import math
import pickle
import random
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.keys import decode_int, encode_int
from repro.catalog.schema import Column, Schema
from repro.catalog.table import Table, pack_rid, unpack_rid
from repro.errors import CorruptPageError, IndexError_, SchemaError
from repro.storage import record
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heapfile import RID
from repro.storage.page import SlottedPage
from repro.storage.record import RecordCodec, ValueType

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


# -- the reference -------------------------------------------------------------


def walk_row(types, data: bytes) -> list[object]:
    """Field-by-field decode of one record."""
    width = (len(types) + 7) // 8
    bitmap = data[:width]
    pos = width
    values: list[object] = []
    for i, vtype in enumerate(types):
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
        else:
            (length,) = _U32.unpack_from(data, pos)
            pos += _U32.size
            raw = data[pos:pos + length]
            pos += length
            values.append(raw.decode("utf-8") if vtype is ValueType.TEXT
                          else bytes(raw))
    return values


def walk_column(types, data: bytes, index: int) -> object:
    """Field ``index`` of one record, skipping the fields before it."""
    view = memoryview(data)
    pos = (len(types) + 7) // 8
    for i, vtype in enumerate(types):
        if view[i // 8] & (1 << (i % 8)):
            if i == index:
                return None
            continue
        if vtype in (ValueType.INT, ValueType.FLOAT):
            if i == index:
                return (_I64 if vtype is ValueType.INT else _F64) \
                    .unpack_from(view, pos)[0]
            pos += 8
        elif vtype is ValueType.BOOL:
            if i == index:
                return view[pos] == 1
            pos += 1
        else:
            (length,) = _U32.unpack_from(view, pos)
            pos += _U32.size
            if i == index:
                raw = bytes(view[pos:pos + length])
                return raw.decode("utf-8") if vtype is ValueType.TEXT else raw
            pos += length
    return None


def exact(value):
    """A value compared bit for bit: floats by their IEEE-754 bytes."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return [exact(v) for v in value]
    return (type(value).__name__, value)


def outcome(run):
    try:
        return exact(run())
    except Exception as exc:  # noqa: BLE001 - the type is the answer
        return ("error", type(exc).__name__)


# -- the codec -----------------------------------------------------------------

VALUES = {
    ValueType.INT: st.one_of(st.sampled_from([-(1 << 63), (1 << 63) - 1, 0]),
                             st.integers(-(1 << 63), (1 << 63) - 1)),
    ValueType.FLOAT: st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
        st.floats(allow_nan=True, allow_infinity=True)),
    ValueType.TEXT: st.one_of(st.just(""), st.just("Anser cygnoïdes — 鴻雁"),
                              st.text(max_size=12)),
    ValueType.BOOL: st.booleans(),
    ValueType.BLOB: st.one_of(st.just(b""), st.binary(max_size=12)),
}

schemas = st.lists(st.sampled_from(list(ValueType)), min_size=1, max_size=20)


@st.composite
def blocks(draw):
    """A schema and a block of its encoded records: the block's first row
    is all NULL or all present, the rest have NULLs anywhere."""
    types = draw(schemas)
    codec = RecordCodec(types)
    rows = [[None] * len(types) if draw(st.booleans())
            else [draw(VALUES[t]) for t in types]]
    rows += draw(st.lists(
        st.tuples(*[st.one_of(st.none(), VALUES[t]) for t in types])
        .map(list), max_size=5))
    return types, codec, [codec.encode(row) for row in rows]


@settings(max_examples=150)
@given(blocks())
def test_decode_equals_the_field_walk(block):
    types, codec, records = block
    for data in records:
        assert exact(codec.decode(data)) == exact(walk_row(types, data))


@settings(max_examples=150)
@given(blocks(), st.data())
def test_decode_column_equals_the_field_walk(block, data):
    """Over the mixed block, over one record repeated (a block of one
    bitmap) and over the empty block."""
    types, codec, records = block
    j = data.draw(st.integers(0, len(types) - 1))
    same = [records[-1]] * 3
    for chunk in (records, same, []):
        assert exact(codec.decode_column(chunk, j)) == \
            exact([walk_column(types, r, j) for r in chunk])


@settings(max_examples=150)
@given(blocks(), st.data())
def test_a_truncated_record_fails_like_the_field_walk(block, data):
    types, codec, records = block
    whole = data.draw(st.sampled_from(records))
    cut = whole[:data.draw(st.integers(0, len(whole) - 1))]
    assert outcome(lambda: codec.decode(cut)) == \
        outcome(lambda: walk_row(types, cut))
    for j in range(len(types)):
        assert outcome(lambda: codec.decode_column([cut], j)) == \
            outcome(lambda: [walk_column(types, cut, j)])


def test_codec_pickles_the_state_it_always_had():
    """Images pickle every table's codec: decoding leaves no new state on
    it, and it has no ``__setstate__`` to migrate."""
    codec = RecordCodec([ValueType.TEXT, ValueType.INT])
    data = codec.encode(["swan", 7])
    codec.decode(data)
    codec.decode_column([data], 1)
    state = pickle.loads(pickle.dumps(codec)).__dict__
    assert state == {"types": [ValueType.TEXT, ValueType.INT],
                     "_bitmap_bytes": 1}
    assert "__setstate__" not in vars(RecordCodec)


def test_threads_share_the_decoder_memo():
    """More threads than cores decode many schemas while another empties
    the decoder memo under them: every answer still equals the walk."""
    rng = random.Random(7)
    cases = []
    for _ in range(40):
        types = [rng.choice(list(ValueType)) for _ in range(rng.randint(1, 12))]
        row = [None if rng.random() < 0.4 else
               {ValueType.INT: 3, ValueType.FLOAT: 0.5, ValueType.TEXT: "ö",
                ValueType.BOOL: True, ValueType.BLOB: b"\x01"}[t]
               for t in types]
        data = RecordCodec(types).encode(row)
        cases.append((types, data, exact(walk_row(types, data))))
    failures: list = []
    done = threading.Event()

    def work():
        for types, data, expected in cases * 5:
            codec = RecordCodec(types)
            if exact(codec.decode(data)) != expected or exact(
                    codec.decode_column([data, data], len(types) - 1)) != \
                    [expected[-1]] * 2:
                failures.append(types)

    def clear():
        while not done.is_set():
            record._decoder.cache_clear()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    clearer = threading.Thread(target=clear)
    try:
        clearer.start()
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        clearer.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_null_patterns_do_not_multiply_decoders():
    """A schema compiles one row decoder and one decoder per column, however
    many null patterns its rows take: ten nullable columns with random
    NULLs (about a thousand live patterns) decode mixed blocks through at
    most eleven decoders, and equal the walk."""
    types = [ValueType.INT, ValueType.TEXT, ValueType.FLOAT, ValueType.TEXT,
             ValueType.INT, ValueType.BOOL, ValueType.BLOB, ValueType.INT,
             ValueType.FLOAT, ValueType.TEXT]
    value = {ValueType.INT: -5, ValueType.FLOAT: 2.5, ValueType.TEXT: "tern",
             ValueType.BOOL: False, ValueType.BLOB: b"\x00"}
    rng = random.Random(3)
    codec = RecordCodec(types)
    records = [codec.encode([None if rng.random() < 0.5 else value[t]
                             for t in types]) for _ in range(3000)]
    assert len({data[:2] for data in records}) > 900
    record._decoder.cache_clear()
    for j in range(len(types)):
        assert codec.decode_column(records, j) == \
            [walk_column(types, data, j) for data in records]
    assert [codec.decode(data) for data in records] == \
        [walk_row(types, data) for data in records]
    assert record._decoder.cache_info().misses == len(types) + 1


def test_validate_errors_are_unchanged():
    for vtype, bad in ((ValueType.INT, True), (ValueType.INT, 1.5),
                       (ValueType.FLOAT, False), (ValueType.TEXT, b"x"),
                       (ValueType.BOOL, 1), (ValueType.BLOB, "x")):
        with pytest.raises(SchemaError,
                           match=f"is not a valid {vtype.value}"):
            vtype.validate(bad)
    for vtype, good in ((ValueType.INT, 3), (ValueType.FLOAT, 3),
                        (ValueType.TEXT, ""), (ValueType.BOOL, False),
                        (ValueType.BLOB, bytearray()), (ValueType.INT, None)):
        vtype.validate(good)


# -- the scan ------------------------------------------------------------------

SCHEMA = Schema([Column("k", ValueType.INT), Column("t", ValueType.TEXT),
                 Column("f", ValueType.FLOAT), Column("b", ValueType.BOOL),
                 Column("raw", ValueType.BLOB)])


def per_row_scan(table: Table) -> list[tuple[int, list[object]]]:
    """Every live slot of every heap page, unwrapped, named by the OID
    index and decoded by the walk."""
    oid_at = {unpack_rid(v): decode_int(k)
              for k, v in table.oid_index.items()}
    types = [c.type for c in table.schema.columns]
    out = []
    for page_no, page_id in enumerate(table.heap.page_ids):
        page = SlottedPage(table.pool.get_page(page_id),
                           page_size=table.pool.disk.page_size)
        for slot, stored in page.records():
            out.append((oid_at[RID(page_no, slot)],
                        walk_row(types, table.heap._unwrap(stored))))
    return out


def first_difference(got, expected):
    """None, or where two scans part (cheap to report on a failure)."""
    if got == expected:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
             min(len(got), len(expected)))
    return i, len(got), len(expected), repr(got[i:i + 1])[:200]


def batched(table: Table, k: int) -> list[tuple[int, list[object]]]:
    out = []
    for oids, columns in table.scan_batches(k):
        assert 0 < len(oids) <= k
        out += zip(oids, (list(row) for row in zip(*columns)))
    return out


def text_of(size: int, seed: int) -> str:
    return (f"{seed}:" + "annotated tuple " * (size // 16 + 1))[:size]


OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 40), st.integers(0, 2)),
    st.tuples(st.just("update"), st.integers(0, 40), st.integers(0, 2)),
    st.tuples(st.just("delete"), st.integers(0, 40), st.just(0)),
), min_size=1, max_size=60)

#: text sizes: inline, a large inline record, one that spills to overflow
SIZES = (5, 900, 12_000)


def build(ops, pool_pages: int = 8) -> Table:
    table = Table("t", SCHEMA, BufferPool(DiskManager(), capacity=pool_pages))
    for i in range(150):  # several pages before the drawn program runs
        table.insert([i, text_of(300, i), i / 3, i % 2 == 0,
                      None if i % 5 else b"\x00\x01"])
    for op, n, size in ops:
        live = [oid for oid, _ in table.scan()]
        if op == "insert":
            table.insert([n, text_of(SIZES[size], n), None, None, b""])
        elif live and op == "update":
            table.update(live[n % len(live)], {"t": text_of(SIZES[size], n)})
        elif live:
            table.delete(live[n % len(live)])
    return table


@given(OPS)
def test_scan_and_scan_batches_equal_the_per_row_path(ops):
    table = build(ops)
    expected = exact(per_row_scan(table))
    assert first_difference(exact(list(table.scan())), expected) is None
    for k in (1, 7, 64):
        assert first_difference(exact(batched(table, k)), expected) is None


def test_scan_covers_tombstones_moves_and_overflow():
    """The deterministic case: deleted slots, rows moved off a full page,
    records in overflow chains, evicted pages (an 8-page pool)."""
    ops = [("update", n, 2) for n in range(0, 30, 3)]
    ops += [("delete", n, 0) for n in range(1, 40, 4)]
    ops += [("update", n, 1) for n in range(2, 40, 5)]
    ops += [("insert", n, 2) for n in range(3)]
    table = build(ops)
    assert len(table.heap.page_ids) > 5 and table.heap._overflow_pages > 0
    expected = exact(per_row_scan(table))
    assert len(expected) == len(table)
    assert first_difference(exact(list(table.scan())), expected) is None
    for k in (1, 7, 64):
        assert first_difference(exact(batched(table, k)), expected) is None


def test_a_live_record_without_an_oid_entry_still_raises():
    table = build([("delete", 3, 0)])
    oid = 50
    rid = table.disk_tuple_loc(oid)
    table.oid_index.delete(encode_int(oid), pack_rid(rid))
    table.data_version += 1  # the slot -> OID map is rebuilt on next scan
    message = f"table t: live record at {rid} has no OID-index entry"
    with pytest.raises(IndexError_, match=message.replace("(", r"\(")
                       .replace(")", r"\)")):
        list(table.scan())
    for k in (1, 7, 64):
        with pytest.raises(IndexError_):
            list(table.scan_batches(k))


def test_a_slot_past_the_page_end_is_a_corrupt_page():
    """A damaged slot whose offset lies past the page's end frames an
    empty record: the page loop raises ``CorruptPageError``, never reads
    outside the page."""
    table = build([])
    page = SlottedPage(table.pool.get_page(table.heap.page_ids[1]),
                       page_size=table.pool.disk.page_size)
    page._set_slot(2, page.page_size + 10, 30)
    with pytest.raises(CorruptPageError, match="empty stored record"):
        list(table.heap.scan_pages())
