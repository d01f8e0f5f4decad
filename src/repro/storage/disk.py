"""Simulated disk manager.

The disk is a flat array of fixed-size pages held in memory. Every read and
write that crosses the disk boundary is counted in :class:`IOStats`; the
buffer pool sits above this layer, so counted I/Os correspond to buffer-pool
misses and write-backs — the same quantity a real DBMS charges in its cost
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.storage.page import PAGE_SIZE


@dataclass
class IOStats:
    """Counters for page-level disk traffic."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0

    def snapshot(self) -> "IOStats":
        """Return a copy of the current counters."""
        return IOStats(self.reads, self.writes, self.allocations)

    def delta(self, before: "IOStats") -> "IOStats":
        """Return the counter difference since ``before``."""
        return IOStats(
            self.reads - before.reads,
            self.writes - before.writes,
            self.allocations - before.allocations,
        )

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.allocations = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"IOStats(reads={self.reads}, writes={self.writes})"


@dataclass
class DiskManager:
    """A simulated disk: an append-only array of :data:`PAGE_SIZE` pages.

    Pages are addressed by integer page id. Deallocated pages are kept on a
    free list and recycled by :meth:`allocate_page`.
    """

    page_size: int = PAGE_SIZE
    stats: IOStats = field(default_factory=IOStats)
    _pages: list[bytearray | None] = field(default_factory=list)
    _free: list[int] = field(default_factory=list)

    @property
    def num_pages(self) -> int:
        """Number of currently allocated (live) pages."""
        return len(self._pages) - len(self._free)

    def allocate_page(self) -> int:
        """Allocate a zeroed page and return its page id."""
        self.stats.allocations += 1
        if self._free:
            page_id = self._free.pop()
            self._pages[page_id] = bytearray(self.page_size)
            return page_id
        self._pages.append(bytearray(self.page_size))
        return len(self._pages) - 1

    def deallocate_page(self, page_id: int) -> None:
        """Return ``page_id`` to the free list."""
        self._check(page_id)
        self._pages[page_id] = None
        self._free.append(page_id)

    def read_page(self, page_id: int) -> bytearray:
        """Read a page from disk (counted)."""
        self._check(page_id)
        self.stats.reads += 1
        page = self._pages[page_id]
        assert page is not None
        return bytearray(page)

    def write_page(self, page_id: int, data: bytes | bytearray) -> None:
        """Write a page to disk (counted)."""
        self._check(page_id)
        if len(data) != self.page_size:
            raise StorageError(
                f"page write of {len(data)} bytes; expected {self.page_size}"
            )
        self.stats.writes += 1
        self._pages[page_id] = bytearray(data)

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages) or self._pages[page_id] is None:
            raise StorageError(f"page {page_id} is not allocated")
