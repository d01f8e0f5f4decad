"""Redo-only write-ahead logging and crash recovery (``repro.wal``).

Layers, bottom-up:

* :mod:`repro.wal.record` — CRC32-framed logical record encoding and the
  torn-tail-aware scanner;
* :mod:`repro.wal.device` — append/sync devices with explicit durability
  (in-memory with fault injection, or file-backed for the CLI);
* :mod:`repro.wal.writer` — the LSN-assigning writer the Database's
  mutating statement paths append through;
* :mod:`repro.wal.recovery` — replay of the durable tail onto a
  checkpoint image.
"""

from repro.wal.device import FileWALDevice, MemoryWALDevice
from repro.wal.record import (
    FRAME_SIZE,
    ScanResult,
    WALRecord,
    WALRecordType,
    encode_record,
    iter_records,
    scan_records,
)
from repro.wal.recovery import RecoveryReport, apply_records, replay
from repro.wal.writer import WALWriter

__all__ = [
    "FRAME_SIZE",
    "FileWALDevice",
    "MemoryWALDevice",
    "RecoveryReport",
    "ScanResult",
    "WALRecord",
    "WALRecordType",
    "WALWriter",
    "apply_records",
    "encode_record",
    "iter_records",
    "replay",
    "scan_records",
]
