"""LRU buffer pool.

The buffer pool caches page bytes between the storage structures (heap
files, B-Trees) and the simulated disk. Page fetches that miss the pool cost
one disk read; evictions of dirty frames cost one disk write. Hit/miss
counters are tracked so benchmarks can report cache behaviour.

Pages registered via :meth:`BufferPool.protect` (the heap files' slotted
pages) are *checksummed*: their CRC32 header field is stamped on every
write-back and verified on every miss read, so on-disk corruption raises
:class:`~repro.errors.CorruptPageError` instead of being decoded.

When a :class:`~repro.wal.writer.WALWriter` is attached (``pool.wal``),
the pool enforces **log-before-data**: every dirtied page is stamped with
the writer's current append position (its ``page_lsn``), and a dirty page
whose LSN is beyond the flushed log tail is never written back — the pool
forces a log flush through that LSN first, so no data page can reach disk
describing a change whose log record could still be lost.

The pool is **latched**: one reentrant mutex covers the frame map, the
LRU order, the dirty/pin bits, and the LSN table, so concurrent sessions
(readers under shared table locks run truly concurrently) cannot corrupt
frame bookkeeping — the structures above the pool are protected by the
coarser table locks; the latch protects the pool itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import BufferPoolError, CorruptPageError
from repro.storage.disk import DiskManager
from repro.storage.page import stamp_checksum, verify_checksum

DEFAULT_POOL_PAGES = 256


@dataclass
class _Frame:
    data: bytearray
    dirty: bool = False
    pins: int = 0


class BufferPool:
    """A fixed-capacity LRU page cache over a :class:`DiskManager`."""

    def __init__(self, disk: DiskManager, capacity: int = DEFAULT_POOL_PAGES):
        if capacity < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        #: page ids whose CRC32 header field is stamped/verified (slotted
        #: heap pages; B-Tree nodes and overflow chunks have no CRC field).
        self._protected: set[int] = set()
        #: attached WAL writer (set by ``Database.attach_wal``); None = no
        #: logging, write-backs need no ordering.
        self.wal = None
        #: dirty-page LSNs: page id -> WAL append position when last dirtied.
        self._page_lsns: dict[int, int] = {}
        #: attached :class:`~repro.resilience.guard.DiskGuard`; None = raw
        #: device calls (no retry, no breaker). Lives on the pool, not as a
        #: disk proxy, so install_faults/remove_faults swapping ``disk``
        #: underneath cannot detach it.
        self.guard = None
        #: pool latch (see module docstring). Reentrant: flush_all takes
        #: it and calls flush_page, evictions write back under it.
        self._latch = threading.RLock()

    # -- WAL ordering ---------------------------------------------------------

    def _stamp_lsn(self, page_id: int) -> None:
        """Record the log position that must be durable before ``page_id``
        may be written back (the writer's current append position upper-
        bounds every record describing this page's pending changes)."""
        if self.wal is not None:
            self._page_lsns[page_id] = self.wal.next_lsn

    def page_lsn(self, page_id: int) -> int | None:
        """The LSN stamped on ``page_id`` when it was last dirtied."""
        return self._page_lsns.get(page_id)

    def _write_back(self, page_id: int, frame: _Frame) -> None:
        """Write one dirty frame to disk, honouring log-before-data."""
        if self.wal is not None:
            lsn = self._page_lsns.get(page_id)
            if lsn is not None and lsn > self.wal.flushed_lsn:
                self.wal.flush(lsn)
        if page_id in self._protected:
            stamp_checksum(frame.data)
        if self.guard is None:
            self.disk.write_page(page_id, frame.data)
        else:
            self.guard.call(
                "write", lambda: self.disk.write_page(page_id, frame.data)
            )
        frame.dirty = False
        self._page_lsns.pop(page_id, None)

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The WAL writer belongs to the crashed process, not the image:
        # a loaded pool starts detached (Database.attach_wal re-attaches).
        # The guard travels with the image — a database restored under an
        # injecting environment must keep retrying.
        state = self.__dict__.copy()
        state["wal"] = None
        state["_page_lsns"] = {}
        state.pop("_latch", None)  # process state, unpicklable
        return state

    def __setstate__(self, state: dict) -> None:
        # Images written before the WAL/resilience eras lack the attributes.
        state.setdefault("wal", None)
        state.setdefault("_page_lsns", {})
        state.setdefault("guard", None)
        self.__dict__.update(state)
        self._latch = threading.RLock()

    # -- checksums ------------------------------------------------------------

    def protect(self, page_id: int) -> None:
        """Enroll ``page_id`` for CRC32 stamping/verification."""
        self._protected.add(page_id)

    @property
    def protected_pages(self) -> frozenset[int]:
        """Checksummed page ids (the integrity checker's disk-scan set)."""
        return frozenset(self._protected)

    def _verify(self, page_id: int, data: bytearray) -> None:
        # An all-zero page was allocated but never written back; it carries
        # no checksum yet and cannot have been torn.
        if data == bytes(len(data)):
            return
        if not verify_checksum(data):
            raise CorruptPageError(
                f"page {page_id} failed its checksum on read "
                "(torn write or bit corruption)"
            )

    def _read_verified(self, page_id: int) -> bytearray:
        """One miss read + checksum verification, as a unit."""
        data = self.disk.read_page(page_id)
        if page_id in self._protected:
            self._verify(page_id, data)
        return data

    # -- page lifecycle -------------------------------------------------------

    def new_page(self) -> int:
        """Allocate a fresh page on disk and cache it; returns the page id.

        Room is made *before* allocating so a failed eviction write cannot
        leak a freshly allocated but uncached disk page.
        """
        with self._latch:
            self._make_room()
            page_id = self.disk.allocate_page()
            self._frames[page_id] = _Frame(
                bytearray(self.disk.page_size), dirty=True
            )
            self._stamp_lsn(page_id)
            return page_id

    def get_page(self, page_id: int) -> bytearray:
        """Return the cached bytes for ``page_id``, reading on a miss.

        The returned bytearray is the live frame: callers that mutate it must
        follow up with :meth:`mark_dirty`.

        The frame is only installed after the disk read succeeded and (for
        protected pages) the checksum verified, so a failed or corrupt read
        can never leave a half-initialized frame in the pool.
        """
        with self._latch:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.hits += 1
                self._frames.move_to_end(page_id)
                return frame.data
            self.misses += 1
            if self.guard is None:
                data = self._read_verified(page_id)
            else:
                # Read + verify retried as a unit: every attempt re-fetches
                # from disk, so transient rot (a corrupted returned copy)
                # heals on retry while persistent rot fails every attempt
                # and still surfaces as CorruptPageError after the budget.
                data = self.guard.call(
                    "read",
                    lambda: self._read_verified(page_id),
                    also_transient=(CorruptPageError,),
                )
            self._make_room()
            self._frames[page_id] = _Frame(data)
            return data

    def mark_dirty(self, page_id: int) -> None:
        with self._latch:
            frame = self._frames.get(page_id)
            if frame is None:
                raise BufferPoolError(f"page {page_id} is not resident")
            frame.dirty = True
            self._stamp_lsn(page_id)

    def put_page(self, page_id: int, data: bytearray) -> None:
        """Replace the cached contents of ``page_id`` and mark it dirty."""
        with self._latch:
            frame = self._frames.get(page_id)
            if frame is None:
                # The page was not resident: account it like any other fault
                # so hit_rate and page-access totals stay consistent with
                # get_page.
                self.misses += 1
                self._make_room()
                self._frames[page_id] = _Frame(data, dirty=True)
            else:
                frame.data = data
                frame.dirty = True
                self._frames.move_to_end(page_id)
            self._stamp_lsn(page_id)

    def free_page(self, page_id: int) -> None:
        """Drop ``page_id`` from the pool and deallocate it on disk.

        Freeing a pinned page would yank the frame out from under whoever
        pinned it (their bytearray would silently stop being the page), so
        that is an error, not a no-op.
        """
        with self._latch:
            frame = self._frames.get(page_id)
            if frame is not None and frame.pins > 0:
                raise BufferPoolError(
                    f"page {page_id} is pinned ({frame.pins}x); cannot free"
                )
            self._frames.pop(page_id, None)
            self._protected.discard(page_id)
            self._page_lsns.pop(page_id, None)
            self.disk.deallocate_page(page_id)

    # -- pinning -------------------------------------------------------------

    def pin(self, page_id: int) -> None:
        with self._latch:
            frame = self._frames.get(page_id)
            if frame is None:
                self.get_page(page_id)
                frame = self._frames[page_id]
            frame.pins += 1

    def unpin(self, page_id: int) -> None:
        with self._latch:
            frame = self._frames.get(page_id)
            if frame is None or frame.pins == 0:
                raise BufferPoolError(f"page {page_id} is not pinned")
            frame.pins -= 1

    # -- flushing ------------------------------------------------------------

    def flush_page(self, page_id: int) -> bool:
        """Write ``page_id`` back to disk if it is resident and dirty.

        Contract (documented rather than inconsistent): flushing an
        unknown or clean page is a **typed no-op** — the method returns
        ``True`` when a write-back actually happened and ``False``
        otherwise, never raising.  A no-op result is normal (the page was
        evicted earlier, or was never dirtied), so callers that must know
        whether I/O occurred check the return value instead of catching.
        """
        with self._latch:
            frame = self._frames.get(page_id)
            if frame is None or not frame.dirty:
                return False
            self._write_back(page_id, frame)
            return True

    def flush_all(self) -> None:
        """Write back every dirty frame.

        The WAL is flushed *first* (one sync instead of one forced flush
        per page): log-before-data then holds trivially for every frame,
        since no dirty page can carry an LSN beyond the writer's current
        append position.
        """
        with self._latch:
            if self.wal is not None:
                self.wal.flush()
            for page_id in list(self._frames):
                self.flush_page(page_id)

    def clear(self) -> None:
        """Flush everything and empty the pool (simulates a cold cache)."""
        with self._latch:
            self.flush_all()
            self._frames.clear()

    # -- internal ------------------------------------------------------------

    def _make_room(self) -> None:
        while len(self._frames) >= self.capacity:
            victim_id = None
            for page_id, frame in self._frames.items():
                if frame.pins == 0:
                    victim_id = page_id
                    break
            if victim_id is None:
                raise BufferPoolError("all frames are pinned; cannot evict")
            # Write back *before* dropping the frame: if the disk write
            # fails, the dirty frame must stay resident (and dirty) or its
            # contents would be silently lost. _write_back enforces
            # log-before-data for the evicted page.
            frame = self._frames[victim_id]
            if frame.dirty:
                self._write_back(victim_id, frame)
            self._frames.pop(victim_id)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
