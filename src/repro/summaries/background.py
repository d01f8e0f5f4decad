"""Background summary maintenance (ROADMAP item 5).

Synchronous maintenance reclassifies / re-clusters / re-extracts snippets
inside every annotation write — at scale that is the write-amplification
bottleneck.  This module holds the two pieces that move the expensive part
off the write path:

* :class:`PendingSummaryWork` — the durable staleness set.  The write path
  records ``(table, oid)`` here instead of touching summary objects or
  their cache entries (the stored row has not changed); each entry
  remembers when it was enqueued, for the ``maint.lag_seconds`` gauge.
  The set pickles into the checkpoint image as its list of keys — the
  lock and the monotonic timestamps are process state — and is also
  rebuilt for free by WAL replay: a replayed ``ANN_ADD``/``ANN_DEL`` in a
  deferred-mode database re-marks its tuples pending, so a crash can delay
  maintenance work but never lose it.

* :class:`MaintenanceWorker` — the engine-owned daemon thread that drains
  the set in batches through
  :meth:`~repro.summaries.maintenance.SummaryManager.drain_pending`
  (which regenerates each stale tuple's summary objects from the raw
  annotations under the engine's commit mutex).  The worker is
  event-driven: it blocks on an Event the write path sets, with a short
  fallback heartbeat so work enqueued during a race is never stranded.
  ``Database.save()``, ``check_integrity()``, ``repair()`` and the query
  server's ``stop()`` all drain inline instead of waiting on the thread,
  so shutdown and checkpoints never depend on worker scheduling.

Freshness is surfaced, not hidden: while a tuple is pending, reads in
deferred mode answer from its last-generated objects and report
``summary_status: "stale"`` (graceful degradation — never blocking);
``maint.backlog`` / ``maint.lag_seconds`` gauges and the server health
frame expose the same signal to operators.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


@dataclass
class PendingEntry:
    """Bookkeeping for one stale ``(table, oid)``."""

    #: ``time.monotonic()`` at enqueue — basis of the staleness-lag gauge.
    enqueued_at: float


class PendingSummaryWork:
    """Thread-safe FIFO set of stale ``(table, oid)`` tuples.

    Marking an already-pending tuple is a no-op that keeps the *original*
    enqueue time: the lag gauge measures the oldest unserviced staleness,
    not the most recent write.  Iteration order is insertion order, so the
    drain loop services tuples roughly in the order they went stale.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, int], PendingEntry] = {}
        self._lock = threading.Lock()

    def mark(self, table: str, oid: int) -> bool:
        """Record ``(table, oid)`` as stale; True when newly added."""
        key = (table.lower(), oid)
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = PendingEntry(enqueued_at=time.monotonic())
            return True

    def discard(self, table: str, oid: int) -> bool:
        """Forget a pending tuple (its row was dropped with the tuple)."""
        with self._lock:
            return self._entries.pop((table.lower(), oid), None) is not None

    def oldest(self) -> tuple[str, int] | None:
        """The oldest pending tuple, left pending (None when empty)."""
        with self._lock:
            return next(iter(self._entries), None)

    def requeue(self, key: tuple[str, int]) -> None:
        """Move a pending tuple to the back, keeping its enqueue time."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._entries[key] = entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple[str, int]) -> bool:
        with self._lock:
            return key in self._entries

    def oldest_age(self, now: float | None = None) -> float:
        """Seconds the oldest entry has been waiting (0.0 when empty)."""
        with self._lock:
            if not self._entries:
                return 0.0
            now = time.monotonic() if now is None else now
            return max(
                0.0,
                now - min(e.enqueued_at for e in self._entries.values()),
            )

    def snapshot(self) -> dict[tuple[str, int], PendingEntry]:
        """A copy of the current entries (tests and the ``\\maint`` view)."""
        with self._lock:
            return dict(self._entries)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The lock is process state; monotonic timestamps do not survive a
        # restart either — entries re-age from load time, which only makes
        # the lag gauge conservative (it restarts at 0, never overstates).
        with self._lock:
            return {"entries": list(self._entries)}

    def __setstate__(self, state: dict) -> None:
        # Iterating "entries" yields the keys of older images' dicts too.
        now = time.monotonic()
        self._entries = {key: PendingEntry(enqueued_at=now)
                         for key in state["entries"]}
        self._lock = threading.Lock()


class MaintenanceWorker:
    """The background maintenance thread of one deferred-mode Database.

    Owns no state of its own: every batch goes through
    ``manager.drain_pending(limit=batch_size)``, which takes the engine's
    commit mutex — the worker and foreground writers interleave at batch
    granularity, never inside one tuple's regeneration.
    """

    def __init__(self, db, batch_size: int = 32,
                 heartbeat: float = 0.2) -> None:
        self.db = db
        self.batch_size = batch_size
        #: fallback poll period: the wake Event is the primary signal, the
        #: heartbeat only catches a mark that raced a clear.
        self.heartbeat = heartbeat
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-maint", daemon=True
        )
        self._thread.start()

    def wake(self) -> None:
        """Signal that new pending work exists (called by the write path)."""
        self._wake.set()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the thread.  Does not drain — callers that need an empty
        backlog drain inline via ``manager.drain_pending()`` afterwards."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        self._thread = None

    def _run(self) -> None:
        manager = self.db.manager
        metrics = self.db.metrics
        while not self._stop.is_set():
            self._wake.wait(timeout=self.heartbeat)
            self._wake.clear()
            if self._stop.is_set():
                break
            try:
                while not self._stop.is_set():
                    if manager.drain_pending(limit=self.batch_size) == 0:
                        break
                    metrics.inc("maint.worker_batches")
            except Exception:  # pragma: no cover - engine bug surfaced late
                # A failing regeneration must not kill the thread: the
                # tuple stays pending (or was consumed — the next write
                # re-marks it) and the error is visible in the counters.
                metrics.inc("maint.worker_errors")
                time.sleep(self.heartbeat)
