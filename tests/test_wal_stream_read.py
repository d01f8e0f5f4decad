"""``WALWriter.read_stream`` reads only the range a replica asks for.

A replica poll asks for at most ``max_bytes`` from ``from_lsn``.  The
writer serves retained checkpoint segments from memory and the live log
through the device's :meth:`read` — a slice of the memory device, a seek
and read on the file device — and never through :meth:`durable`, which
on the file device reads the whole file.  The reference below is the
whole-log slicing ``read_stream`` did before: pieces = retained segments
plus ``device.durable()``, stitched and cut to the durable tail.  For a
Hypothesis draw of log shapes (records per checkpoint round, payload
sizes, a torn tail past the flushed LSN) and of ``(from_lsn, max_bytes)``
windows, both devices must give byte-identical answers.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InjectedFaultError
from repro.faults.plan import FaultPlan
from repro.wal.device import FileWALDevice, MemoryWALDevice
from repro.wal.record import WALRecordType, scan_records
from repro.wal.writer import WALWriter


def whole_log_read(wal: WALWriter, from_lsn: int, max_bytes: int):
    """``read_stream`` as it sliced one full read of the device."""
    if from_lsn < wal.retained_base:
        return b"", "too_old"
    if from_lsn >= wal.flushed_lsn:
        return b"", "ok"
    end = min(from_lsn + max_bytes, wal.flushed_lsn)
    out = bytearray()
    pieces = list(wal._segments)
    pieces.append((wal.device.base_lsn, wal.device.durable()))
    for base, data in pieces:
        piece_end = base + len(data)
        lo = max(from_lsn + len(out), base)
        if lo >= end:
            break
        if lo >= piece_end:
            continue
        hi = min(end, piece_end)
        out.extend(data[lo - base:hi - base])
    return bytes(out), "ok"


def write_rounds(wal: WALWriter, rounds: list[list[int]]) -> None:
    """Append each round's records (payload sizes), sync, and checkpoint
    between rounds while a stream pinned at LSN 0 retains the bytes."""
    wal.register_stream("slow", 0)
    for number, sizes in enumerate(rounds):
        for size in sizes:
            wal.append(WALRecordType.INSERT, {"pad": "x" * size})
        wal.sync()
        if number < len(rounds) - 1:
            wal.truncate(wal.next_lsn)


def tear_memory_tail(wal: WALWriter, torn: int) -> None:
    """A last sync that lands ``torn`` bytes of a record, then dies."""
    wal.device.plan = FaultPlan().torn_sync(
        at=wal.device.sync_ops, torn_bytes=torn
    )
    wal.append(WALRecordType.INSERT, {"pad": "torn" * 8})
    try:
        wal.sync()
    except InjectedFaultError:
        pass


def tear_file_tail(wal: WALWriter, torn: int) -> None:
    """Bytes past the flushed LSN at the end of the file (a torn append)."""
    with open(wal.device.path, "ab") as fh:
        fh.write(b"\x7f" * torn)


def no_whole_read():
    raise AssertionError("read_stream read the whole log")


def assert_ranged(wal: WALWriter, windows) -> None:
    expected = [whole_log_read(wal, lo, n) for lo, n in windows]
    wal.device.durable = no_whole_read  # shadows the method on this device
    try:
        assert [wal.read_stream(lo, n) for lo, n in windows] == expected
    finally:
        del wal.device.durable


rounds = st.lists(
    st.lists(st.integers(0, 40), min_size=1, max_size=4),
    min_size=1, max_size=3,
)
windows = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 300)),
    min_size=1, max_size=8,
)


def spread(wal: WALWriter, drawn) -> list[tuple[int, int]]:
    """Draws as windows starting anywhere up to 20 bytes past the
    flushed LSN (into the torn tail)."""
    return [(at % (wal.flushed_lsn + 21), n) for at, n in drawn]


@given(rounds, st.integers(0, 30), windows)
def test_memory_device_ranges_match_whole_log(shape, torn, drawn):
    wal = WALWriter(MemoryWALDevice())
    write_rounds(wal, shape)
    tear_memory_tail(wal, torn)
    assert_ranged(wal, spread(wal, drawn))


@given(rounds, st.integers(0, 30), windows)
def test_file_device_ranges_match_whole_log(tmp_path_factory, shape, torn,
                                            drawn):
    path = tmp_path_factory.mktemp("wal") / "log"
    wal = WALWriter(FileWALDevice(path))
    write_rounds(wal, shape)
    tear_file_tail(wal, torn)
    assert_ranged(wal, spread(wal, drawn))
    wal.device.close()


def test_windowed_polls_rebuild_the_stream(tmp_path):
    """A replica's polls, 37 bytes at a time, concatenate to the whole
    retained-plus-live log and never read the file whole."""
    wal = WALWriter(FileWALDevice(tmp_path / "log"))
    write_rounds(wal, [[10, 3], [25], [0, 7, 12]])
    tear_file_tail(wal, 11)
    whole, status = whole_log_read(wal, 0, 1 << 30)
    assert status == "ok"
    wal.device.durable = no_whole_read
    pos, rebuilt = 0, bytearray()
    while pos < wal.flushed_lsn:
        piece, status = wal.read_stream(pos, 37)
        assert status == "ok" and piece
        rebuilt.extend(piece)
        pos += len(piece)
    assert bytes(rebuilt) == whole
    scan = scan_records(bytes(rebuilt), 0)
    assert scan.torn_bytes == 0 and len(scan.records) == 6
    wal.device.close()


def test_device_read_clips_at_the_durable_end(tmp_path):
    memory = MemoryWALDevice(base_lsn=50)
    memory.append(b"abcdef")
    memory.sync()
    memory.append(b"pending")
    file = FileWALDevice(tmp_path / "log")
    file.append(b"abcdef")
    file.sync()
    file.append(b"pending")
    for device in (memory, file):
        assert device.read(0, 6) == b"abcdef"
        assert device.read(2, 3) == b"cde"
        assert device.read(4, 100) == b"ef"  # pending bytes are not durable
        assert device.read(6, 10) == b""
    file.close()
