"""WAL record framing.

The log is a byte stream of self-describing frames.  Each frame is::

    [ lsn:u64 | type:u8 | stmt_id:u64 | txn_id:u64 | payload_len:u32 | crc32:u32 ]
    [ payload (pickled dict) ]

``txn_id`` is 0 for autocommit records (one statement = one implicit
transaction, synced at the statement boundary — exactly the pre-txn-era
contract) and non-zero for records belonging to an explicit
BEGIN…COMMIT transaction.  Explicit transactions are *buffered-redo*: the
whole group — a ``TXN_BEGIN`` frame, the DML redo records, a
``TXN_COMMIT`` frame — is appended and synced at commit time, so recovery
replays a transaction's records only when its commit frame made it to
durable storage (see ``repro.wal.recovery``).

``lsn`` is the byte offset of the frame's first byte in the *logical* log
stream (monotonic across checkpoint truncations — truncating re-bases the
physical log but never reuses an offset), so a frame read back from disk
self-identifies its position: a frame whose stored LSN disagrees with the
offset it was found at is garbage, not log.

``crc32`` covers the header fields (with the CRC field itself zeroed) plus
the payload.  Scanning stops cleanly at the first frame that is truncated,
mis-positioned, or fails its CRC: a torn tail is the *end* of the log, not
an error — everything before it replays, nothing after it can be trusted.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.errors import WALError

_FRAME = struct.Struct("<QBQQII")  # lsn, type, stmt_id, txn_id, payload_len, crc32
FRAME_SIZE = _FRAME.size


class WALRecordType:
    """Logical redo-record types (one per mutating statement class)."""

    #: DDL replayed by re-invoking the Database method by name.
    DDL = 1
    #: Row insert with the assigned OID and canonical positional values.
    INSERT = 2
    #: Row delete by OID (summary maintenance replays as a side effect).
    DELETE = 3
    #: Row update with post-evaluation assigned column values.
    UPDATE = 4
    #: Annotation attach with the assigned annotation id and targets.
    ANN_ADD = 5
    #: Annotation delete by id.
    ANN_DEL = 6
    #: Explicit transaction opens (first frame of a commit group).
    TXN_BEGIN = 7
    #: Explicit transaction commit — the durability point of its group.
    TXN_COMMIT = 8
    #: Bulk annotation load: one framed record for the whole batch, with
    #: the first assigned annotation id (ids are sequential from there).
    ANN_BULK = 9

    ALL = (DDL, INSERT, DELETE, UPDATE, ANN_ADD, ANN_DEL,
           TXN_BEGIN, TXN_COMMIT, ANN_BULK)

    NAMES = {
        DDL: "ddl", INSERT: "insert", DELETE: "delete",
        UPDATE: "update", ANN_ADD: "ann_add", ANN_DEL: "ann_del",
        TXN_BEGIN: "txn_begin", TXN_COMMIT: "txn_commit",
        ANN_BULK: "ann_bulk",
    }


@dataclass(frozen=True)
class WALRecord:
    """One decoded log record."""

    lsn: int            #: byte offset of the frame start in the log stream
    type: int
    stmt_id: int
    payload: dict
    #: owning explicit transaction (0 = autocommit record).
    txn_id: int = 0

    @property
    def end_lsn(self) -> int:
        """Byte offset one past this record's frame (the next record's LSN)."""
        return self.lsn + FRAME_SIZE + len(self._encoded_payload())

    def _encoded_payload(self) -> bytes:
        return pickle.dumps(self.payload)

    def __str__(self) -> str:
        return (
            f"WALRecord(lsn={self.lsn}, "
            f"type={WALRecordType.NAMES.get(self.type, self.type)}, "
            f"stmt={self.stmt_id}, txn={self.txn_id})"
        )


def _frame_crc(lsn: int, rtype: int, stmt_id: int, txn_id: int,
               payload: bytes) -> int:
    header = _FRAME.pack(lsn, rtype, stmt_id, txn_id, len(payload), 0)
    return zlib.crc32(payload, zlib.crc32(header)) & 0xFFFFFFFF


def encode_record(lsn: int, rtype: int, stmt_id: int, payload: dict,
                  txn_id: int = 0) -> bytes:
    """Frame one record at log offset ``lsn``."""
    if rtype not in WALRecordType.ALL:
        raise WALError(f"unknown WAL record type {rtype}")
    body = pickle.dumps(payload)
    crc = _frame_crc(lsn, rtype, stmt_id, txn_id, body)
    return _FRAME.pack(lsn, rtype, stmt_id, txn_id, len(body), crc) + body


@dataclass
class ScanResult:
    """Outcome of scanning a log byte stream."""

    records: list[WALRecord]
    #: bytes at the tail that did not form a valid frame (torn tail).
    torn_bytes: int
    #: log offset one past the last valid frame.
    end_lsn: int


def scan_records(data: bytes, base_lsn: int) -> ScanResult:
    """Decode every valid frame of ``data`` (whose first byte sits at log
    offset ``base_lsn``).

    Stops at the first truncated frame, CRC failure, or frame whose stored
    LSN disagrees with its physical position — the torn-tail contract: a
    partially synced frame cleanly ends the log.
    """
    records: list[WALRecord] = []
    pos = 0
    n = len(data)
    while pos + FRAME_SIZE <= n:
        lsn, rtype, stmt_id, txn_id, payload_len, crc = _FRAME.unpack_from(
            data, pos
        )
        if lsn != base_lsn + pos:
            break  # mis-positioned frame: garbage, not log
        end = pos + FRAME_SIZE + payload_len
        if end > n:
            break  # frame body truncated mid-sync
        body = bytes(data[pos + FRAME_SIZE:end])
        if _frame_crc(lsn, rtype, stmt_id, txn_id, body) != crc:
            break  # torn or bit-rotted frame
        try:
            payload = pickle.loads(body)
        except Exception:
            break  # CRC collided with undecodable bytes: treat as torn
        records.append(WALRecord(lsn, rtype, stmt_id, payload, txn_id))
        pos = end
    return ScanResult(records, torn_bytes=n - pos, end_lsn=base_lsn + pos)


def iter_records(data: bytes, base_lsn: int) -> Iterator[WALRecord]:
    """Convenience: just the valid records of :func:`scan_records`."""
    return iter(scan_records(data, base_lsn).records)
