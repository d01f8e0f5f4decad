"""The WAL writer.

One :class:`WALWriter` sits between the database's mutating statement
paths and a log device. It owns the LSN counter (byte offsets into the
logical log stream), frames records, and tracks the *flushed* LSN — the
boundary the buffer pool's log-before-data rule compares page LSNs
against: a dirty page whose ``page_lsn`` exceeds ``flushed_lsn`` must not
be written back until the log has been flushed past it.
A statement that raises is cut back out (:meth:`discard_after`), bytes
a forced flush made durable included, so replicas read only through the
last statement-boundary :meth:`sync`.
"""

from __future__ import annotations

from repro.errors import WALError
from repro.obs.metrics import MetricsRegistry
from repro.wal.record import WALRecordType, encode_record


class WALWriter:
    """Appends framed records to a log device and tracks durability."""

    def __init__(self, device, metrics: MetricsRegistry | None = None):
        self.device = device
        self.metrics = metrics
        #: LSN the next record will be assigned (device append position).
        self._next_lsn = device.base_lsn + device.total_len
        #: LSN up to which the log is durable (device sync position).
        self._flushed_lsn = device.base_lsn + device.durable_len
        #: LSN of the last statement-boundary sync (what replicas may read).
        self._synced_lsn = self._flushed_lsn
        #: Attached replication streams: stream id -> cumulatively acked
        #: LSN. A registered stream pins log retention (see
        #: :meth:`truncate`) until it acks past the checkpoint or
        #: detaches.
        self._streams: dict[str, int] = {}
        #: Log segments retained past checkpoint for slow streams, as
        #: ``(base_lsn, data)`` in ascending, contiguous LSN order. The
        #: live device's durable bytes always follow the last segment.
        self._segments: list[tuple[int, bytes]] = []

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    def _inc(self, key: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(key, amount)

    def append(self, rtype: int, payload: dict, stmt_id: int = 0,
               txn_id: int = 0) -> int:
        """Frame and append one record; returns its LSN.

        The record is buffered, not durable — call :meth:`sync` (or rely
        on the statement-boundary sync) to force it to the device.
        ``txn_id`` stamps the record as part of an explicit transaction's
        commit group (0 = autocommit).
        """
        if rtype not in WALRecordType.ALL:
            raise WALError(f"unknown WAL record type {rtype}")
        lsn = self._next_lsn
        frame = encode_record(lsn, rtype, stmt_id, payload, txn_id=txn_id)
        self.device.append(frame)
        self._next_lsn = lsn + len(frame)
        self._inc("wal.records")
        self._inc(f"wal.records.{WALRecordType.NAMES[rtype]}")
        self._inc("wal.bytes", len(frame))
        return lsn

    def sync(self) -> None:
        """fsync the log: every appended record becomes durable."""
        self.device.sync()
        self._flushed_lsn = self._synced_lsn = self._next_lsn
        self._inc("wal.syncs")

    def flush(self, upto_lsn: int | None = None) -> None:
        """Force the log durable at least through ``upto_lsn``.

        This is the buffer pool's log-before-data hook: called before
        writing back a dirty page whose ``page_lsn`` is beyond the
        flushed tail. Counted separately (``wal.forced_flushes``) so the
        observability layer can show how often data pressure forces log
        I/O ahead of the statement-boundary sync.
        """
        if upto_lsn is None:
            upto_lsn = self._next_lsn
        if upto_lsn <= self._flushed_lsn:
            return
        self.device.sync()
        self._flushed_lsn = self._next_lsn
        self._inc("wal.forced_flushes")

    def discard_after(self, lsn: int) -> None:
        """Cut the log back to ``lsn``, the start of a statement that
        raised: every byte appended since goes, durable or not."""
        self.device.discard_after(lsn)
        self._next_lsn = lsn
        self._flushed_lsn = min(self._flushed_lsn, lsn)

    def truncate(self, new_base: int) -> None:
        """Discard the log through ``new_base`` (checkpoint protocol).

        ``new_base`` must be at the current append position — checkpoints
        truncate the *whole* log after the image rename lands, so the new
        base is exactly ``next_lsn``.

        If a replication stream is attached whose acked LSN trails
        ``new_base``, the durable bytes are *retained* as an in-memory
        segment instead of discarded, so a slow replica never falls off
        the log: :meth:`read_stream` keeps serving the retained range
        until every stream acks past it (or detaches).
        """
        if new_base != self._next_lsn:
            raise WALError(
                f"checkpoint truncation must land at next_lsn="
                f"{self._next_lsn}, not {new_base}"
            )
        min_acked = self.min_stream_lsn()
        if min_acked is not None and min_acked < new_base:
            data = self.device.durable()
            if data:
                self._segments.append((self.device.base_lsn, data))
        self.device.truncate(new_base)
        self._flushed_lsn = self._synced_lsn = new_base
        self._inc("wal.truncations")
        self._gc_segments()

    # -- replication streams -------------------------------------------------

    def register_stream(self, stream_id: str, from_lsn: int) -> None:
        """Attach a replication stream whose next needed byte is
        ``from_lsn``. Registration is sticky across link failures — the
        stream keeps pinning retention until :meth:`unregister_stream`."""
        self._streams[stream_id] = from_lsn
        self._set_stream_gauges()

    def ack_stream(self, stream_id: str, lsn: int) -> None:
        """Advance a stream's cumulative ack (monotonic); frees retained
        segments every stream has consumed."""
        current = self._streams.get(stream_id)
        if current is None or lsn > current:
            self._streams[stream_id] = lsn
        self._gc_segments()

    def unregister_stream(self, stream_id: str) -> None:
        self._streams.pop(stream_id, None)
        self._gc_segments()

    def min_stream_lsn(self) -> int | None:
        """The lowest acked LSN across attached streams (None if none)."""
        if not self._streams:
            return None
        return min(self._streams.values())

    @property
    def stream_acks(self) -> dict[str, int]:
        return dict(self._streams)

    @property
    def retained_base(self) -> int:
        """The lowest LSN still readable via :meth:`read_stream`."""
        if self._segments:
            return self._segments[0][0]
        return self.device.base_lsn

    @property
    def retained_bytes(self) -> int:
        return sum(len(data) for _, data in self._segments)

    def _gc_segments(self) -> None:
        min_acked = self.min_stream_lsn()
        if min_acked is None:
            self._segments.clear()
        else:
            while self._segments:
                base, data = self._segments[0]
                if base + len(data) <= min_acked:
                    self._segments.pop(0)
                else:
                    break
        self._set_stream_gauges()

    def _set_stream_gauges(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("wal.streams", len(self._streams))
            self.metrics.set_gauge(
                "wal.retained_bytes", self.retained_bytes
            )

    def read_stream(self, from_lsn: int, max_bytes: int) -> tuple[bytes, str]:
        """Read up to ``max_bytes`` of durable log starting at ``from_lsn``.

        Returns ``(data, status)`` where status is ``"ok"`` or
        ``"too_old"`` (the requested range predates everything retained —
        the reader must re-bootstrap from a fresh snapshot). Only bytes
        through the last statement-boundary sync are served, never a forced
        flush's, which a cut may remove; the slice may end mid-frame, which
        readers handle via the torn-tail scan contract.
        """
        if from_lsn < self.retained_base:
            return b"", "too_old"
        if from_lsn >= self._synced_lsn:
            return b"", "ok"
        end = min(from_lsn + max_bytes, self._synced_lsn)
        out = bytearray()
        for base, data in self._segments:
            lo = max(from_lsn + len(out), base)
            hi = min(end, base + len(data))
            if lo < hi:
                out.extend(data[lo - base:hi - base])
        # The live log: read just the range asked for, not the whole device.
        base = self.device.base_lsn
        lo = max(from_lsn + len(out), base)
        if lo < end:
            out.extend(self.device.read(lo - base, end - lo))
        return bytes(out), "ok"
