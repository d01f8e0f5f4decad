"""Append-only log devices.

A WAL device models the durability boundary underneath the
:class:`~repro.wal.writer.WALWriter`:

* :meth:`append` buffers bytes the way ``write(2)`` hands them to the OS —
  they are *not* durable yet and are lost on a crash;
* :meth:`sync` is ``fsync(2)``: every appended byte becomes durable;
* :meth:`truncate` discards the whole log and re-bases it at a new LSN
  (the checkpoint protocol — offsets are never reused);
* :meth:`durable` returns exactly the bytes that would survive a crash,
  and :meth:`read` one range of them.

:class:`MemoryWALDevice` is the simulated device the test suites crash at
will; it consults a :class:`~repro.faults.plan.FaultPlan` on every append
and sync (ops ``"append"`` / ``"sync"``), mirroring how
:class:`~repro.faults.disk.FaultyDiskManager` schedules page faults:

* **fail-stop** on append: the record never reaches the OS buffer and the
  device is dead;
* **fail-stop** on sync: nothing pending lands, device dead;
* **torn sync**: a seeded prefix of the pending bytes becomes durable,
  then the device dies — the classic torn log tail;
* **transient** on either: the operation fails once, retries may succeed.

:class:`FileWALDevice` backs the log with a real file (the CLI's
``recover`` verb); it carries a small header recording the base LSN so a
re-opened log knows where its first byte sits in the logical stream.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from repro.errors import InjectedFaultError, TransientIOError, WALError
from repro.faults.plan import Fault, FaultKind, FaultPlan
from repro.obs.metrics import MetricsRegistry


def fsync_directory(path: str | Path) -> None:
    """``fsync`` a directory, so a file created or renamed in it survives
    a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _LogDevice:
    """A pending buffer over durable bytes: what both devices share."""

    base_lsn: int
    _pending: bytearray

    @property
    def total_len(self) -> int:
        """Durable plus pending bytes (the writer's append position)."""
        return self.durable_len + len(self._pending)

    @property
    def pending_len(self) -> int:
        return len(self._pending)

    def discard_after(self, lsn: int) -> None:
        """Drop every byte past ``lsn``, durable or pending: recovery cuts
        a torn tail or a dead commit group, the writer a failed statement.
        A fail-stopped device refuses, since its tail is unknown."""
        self._require_alive()
        keep = lsn - self.base_lsn
        if not 0 <= keep <= self.total_len:
            raise WALError(
                f"discard_after({lsn}) outside the log "
                f"[{self.base_lsn}, {self.base_lsn + self.total_len}]"
            )
        if keep >= self.durable_len:
            del self._pending[keep - self.durable_len:]
        else:
            self._pending.clear()
            self._cut_durable(keep)

    def truncate(self, new_base: int) -> None:
        """Discard the whole log and re-base at ``new_base`` (checkpoint)."""
        if new_base < self.base_lsn:
            raise WALError(
                f"cannot truncate to LSN {new_base} below base {self.base_lsn}"
            )
        self._require_alive()
        self._pending.clear()
        self._restart(new_base)


class MemoryWALDevice(_LogDevice):
    """An in-memory append-only log with explicit durability and faults."""

    def __init__(
        self,
        base_lsn: int = 0,
        plan: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.base_lsn = base_lsn
        self.plan = plan if plan is not None else FaultPlan()
        self.metrics = metrics
        self._durable = bytearray()
        self._pending = bytearray()
        #: Operation counters the fault schedule indexes against (0-based).
        self.append_ops = 0
        self.sync_ops = 0
        #: True once a fail-stop fault fired; the device never recovers.
        self.dead = False
        #: Every fault fired, as ``(kind, op, op_index)``.
        self.injected: list[tuple[str, str, int]] = []

    @classmethod
    def from_durable(cls, data: bytes, base_lsn: int) -> "MemoryWALDevice":
        """Re-open a crashed device over its surviving durable bytes."""
        device = cls(base_lsn=base_lsn)
        device._durable = bytearray(data)
        return device

    # -- bookkeeping --------------------------------------------------------

    def _fault(self, op: str) -> Fault | None:
        """Count one ``op`` and fire the fault scheduled for it: fail-stop
        and transient raise here, any other kind is returned."""
        self._require_alive()
        index = getattr(self, f"{op}_ops")
        setattr(self, f"{op}_ops", index + 1)
        fault = self.plan.match(op, index)
        if fault is None:
            return None
        self.injected.append((fault.kind, op, index))
        if self.metrics is not None:
            self.metrics.inc("faults.injected")
            self.metrics.inc(f"faults.injected.{fault.kind}")
        if fault.kind == FaultKind.FAIL_STOP:
            self.dead = True
            raise InjectedFaultError(
                f"injected fail-stop on WAL {op} #{index}"
            )
        if fault.kind == FaultKind.TRANSIENT:
            raise TransientIOError(
                f"injected transient error on WAL {op} #{index}"
            )
        return fault

    def _require_alive(self) -> None:
        if self.dead:
            raise InjectedFaultError("WAL device has fail-stopped")

    @property
    def durable_len(self) -> int:
        return len(self._durable)

    # -- operations ---------------------------------------------------------

    def append(self, data: bytes) -> None:
        """Buffer ``data`` at the log tail (not durable until :meth:`sync`)."""
        self._fault("append")
        self._pending.extend(data)

    def sync(self) -> None:
        """Make every pending byte durable (fsync)."""
        fault = self._fault("sync")
        if fault is not None and fault.kind == FaultKind.TORN_WRITE:
            torn_at = fault.torn_bytes
            if torn_at is None:
                torn_at = self.plan.rng.randrange(
                    0, max(1, len(self._pending))
                )
            torn_at = min(torn_at, len(self._pending))
            self._durable.extend(self._pending[:torn_at])
            self._pending.clear()
            self.dead = True
            raise InjectedFaultError(
                f"injected torn WAL sync #{self.sync_ops - 1} "
                f"({torn_at} pending bytes landed)"
            )
        self._durable.extend(self._pending)
        self._pending.clear()

    def durable(self) -> bytes:
        """The bytes that survive a crash right now."""
        return bytes(self._durable)

    def read(self, offset: int, length: int) -> bytes:
        """Up to ``length`` durable bytes from ``offset`` (bytes past
        ``base_lsn``)."""
        return bytes(self._durable[offset:offset + length])

    def _restart(self, new_base: int) -> None:
        self.base_lsn = new_base
        self._durable.clear()

    def _cut_durable(self, keep: int) -> None:
        del self._durable[keep:]

    def close(self) -> None:
        """Nothing to release; present so every device can be closed."""


_FILE_MAGIC = b"INSIGHTNOTES-WAL"
_FILE_HEADER = struct.Struct(">HQ")  # version, base_lsn
_FILE_VERSION = 1
FILE_HEADER_SIZE = len(_FILE_MAGIC) + _FILE_HEADER.size


class FileWALDevice(_LogDevice):
    """A WAL device over a real file (used by the CLI verbs).

    It holds one ``O_WRONLY|O_APPEND`` file, opened on the first
    :meth:`sync`, which writes the pending bytes and calls ``fdatasync``:
    for an append that also flushes the new size, so an acked record
    survives a crash. The file starts with a 26-byte header
    (``INSIGHTNOTES-WAL`` + version + base LSN) so a re-opened log
    self-describes its logical position. Fail-stop: a failed ``write``
    or ``fdatasync`` may leave a torn prefix in the file, and anything
    appended after it would be lost behind that frame, so every later
    :meth:`append` or :meth:`sync` raises :class:`WALError`.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._pending = bytearray()
        self._file = None
        self._failed: OSError | None = None
        if self.path.exists() and self.path.stat().st_size > 0:
            data = self.path.read_bytes()
            header = data[:FILE_HEADER_SIZE]
            if (
                len(header) < FILE_HEADER_SIZE
                or not header.startswith(_FILE_MAGIC)
            ):
                raise WALError(f"{self.path}: not a WAL file")
            version, self.base_lsn = _FILE_HEADER.unpack_from(
                header, len(_FILE_MAGIC)
            )
            if version != _FILE_VERSION:
                raise WALError(
                    f"{self.path}: WAL version {version} unsupported"
                )
            self._length = len(data) - FILE_HEADER_SIZE
        else:
            self._restart(0, create=True)

    def _restart(self, base_lsn: int, create: bool = False) -> None:
        """Start the log over at ``base_lsn``, durably: a checkpoint's
        truncation that a crash undid would leave the log ending below the
        image's checkpoint LSN. A held append file writes at the new end."""
        with open(self.path, "wb") as fh:
            fh.write(_FILE_MAGIC + _FILE_HEADER.pack(_FILE_VERSION, base_lsn))
            fh.flush()
            os.fsync(fh.fileno())
        if create:
            fsync_directory(self.path.parent)
        self.base_lsn = base_lsn
        self._length = 0

    def _require_alive(self) -> None:
        if self._failed is not None:
            raise WALError(f"{self.path}: WAL fail-stopped: {self._failed}")

    @property
    def durable_len(self) -> int:
        return self._length

    def append(self, data: bytes) -> None:
        self._require_alive()
        self._pending.extend(data)

    def sync(self) -> None:
        self._require_alive()
        if not self._pending:
            return
        data = bytes(self._pending)
        try:
            if self._file is None:
                self._file = open(self.path, "ab", buffering=0)
            fd, view = self._file.fileno(), memoryview(data)
            while view:  # a short write leaves the rest for the next call
                view = view[os.write(fd, view):]
            getattr(os, "fdatasync", os.fsync)(fd)
        except OSError as exc:
            self._failed = exc
            raise WALError(f"{self.path}: WAL sync failed: {exc}") from exc
        self._length += len(data)
        self._pending.clear()

    def close(self) -> None:
        """Close the held file (idempotent); the next sync re-opens it."""
        if self._file is not None:
            self._file.close()
        self._file = None

    def durable(self) -> bytes:
        return self.path.read_bytes()[FILE_HEADER_SIZE:]

    def read(self, offset: int, length: int) -> bytes:
        with open(self.path, "rb") as fh:
            fh.seek(FILE_HEADER_SIZE + offset)
            return fh.read(length)

    def _cut_durable(self, keep: int) -> None:
        with open(self.path, "r+b") as fh:
            fh.truncate(FILE_HEADER_SIZE + keep)
            os.fsync(fh.fileno())
        self._length = keep
