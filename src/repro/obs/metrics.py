"""Counter/timer registry.

A :class:`MetricsRegistry` is a flat namespace of named monotonic counters
(``inc``) and accumulated wall-time buckets (``timer``/``add_time``).  It is
deliberately tiny: dict updates under one mutex, no background machinery —
cheap enough to leave enabled in every run, which is what makes the counted
numbers comparable across benches (DESIGN.md §5's interpreter-noise
argument).  The mutex matters since the engine went concurrent: the
read-modify-write in ``inc`` is a classic lost-update race when sessions
on worker threads count through the same registry (locks, WAL, cache all
share it), and an unlocked ``snapshot`` could observe a dict mid-resize.

Naming convention used by the engine::

    maint.on_objects_write / maint.on_objects_delete
                                 storage-row events, one per summary-row
                                 write or delete (§4.1.2)
    maint.annotation_add / maint.annotation_delete
                                 raw annotation mutations (maintenance of
                                 the summaries they touch runs inside the
                                 same write)
    index.<kind>.<tbl>.<inst>.probes / .rebuilds
                                 per derived structure (kind: summary /
                                 baseline / keyword / replica): probes
                                 served, automatic key-width rebuilds
    cache.hits / cache.misses    summary-cache lookups (repro.cache)
    cache.stores / cache.evictions / cache.invalidations / cache.rejections
                                 summary-cache admission and removal events
                                 (an invalidation drops a row write's entry)
    cache.clears                 whole-cache drops (repair, \\cache clear,
                                 resize to 0)
    pool.hits / pool.misses      buffer-pool counters (merged at snapshot)
    optimizer.plan_cache.hits / .misses / .invalidations
                                 statement-cache plan lookups (merged at
                                 snapshot; an invalidation is a miss on a
                                 stale entry)
    query.parse_cache.hits / .misses
                                 parse-memo lookups (process-wide, merged
                                 at snapshot)
    disk.reads / disk.writes     DiskManager counters (merged at snapshot)
    faults.injected              total injected disk faults (repro.faults)
    faults.injected.<kind>       per-kind: fail_stop / transient /
                                 torn_write / bit_flip
    resilience.retries[.<op>]    transient I/O retries (repro.resilience)
    resilience.recovered         operations that succeeded after >=1 retry
    resilience.failures          operations that failed past the budget
    resilience.breaker.<state>   breaker transitions (closed/half-open/open)
    resilience.breaker.rejected  calls fast-failed by an open breaker
    resilience.timeouts          statements killed by their deadline
    resilience.cancelled         statements cooperatively cancelled
    resilience.quarantined / resilience.restored
                                 access-path health transitions
    resilience.degraded_plans    statements planned around unhealthy paths
    resilience.statement_retries statements re-run after mid-query index
                                 corruption quarantined their access paths
    resilience.breaker_state     snapshot gauge: 0=closed 1=half-open 2=open
    resilience.unhealthy_paths   snapshot gauge: quarantined path count
    txn.begins / txn.commits / txn.aborts / txn.empty_commits
                                 explicit-transaction lifecycle (repro.txn)
    txn.ops_committed            buffered redo ops applied at commit
    txn.commit_failures          commits that raised mid-apply
    txn.open                     snapshot gauge: transactions in flight
    lock.acquisitions.shared / lock.acquisitions.exclusive / lock.upgrades
                                 lock-manager grants (repro.txn.locks)
    lock.waits / lock.timeouts   blocked acquisitions / deadlock victims
    lock.releases                release_all calls that dropped >=1 lock
    lock.tables                  snapshot gauge: distinct locked resources
    server.connections / server.requests / server.errors
                                 query server (repro.server)
    server.cancelled_disconnects statements cancelled by client hangup
    server.shed                  requests shed by admission control, with
                                 per-cause children: server.shed.connections
                                 (connection cap) / server.shed.queue_full /
                                 server.shed.queue_deadline /
                                 server.shed.draining
    server.queue_depth           gauge: admission-queue places in use (a
                                 statement that waited keeps its place until
                                 its answer is written)
    server.active_connections    gauge: connections currently admitted
    server.idle_closed           connections dropped by the idle timeout
    server.health_requests       {"op": "health"} frames answered
    server.drains                graceful drains begun (stop() calls)
    server.drain_cancelled       in-flight statements cooperatively
                                 cancelled at the drain deadline
    server.faults.injected[.<kind>]
                                 injected network faults (repro.faults
                                 NetworkFaultPlan): reset / stall /
                                 partial_frame / garble
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class MetricsRegistry:
    """Named monotonic counters + accumulated timers (thread-safe)."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._mutex = threading.Lock()

    # -- pickling (the registry rides inside Database images) -----------------

    def __getstate__(self) -> dict:
        with self._mutex:
            return {"counters": dict(self.counters),
                    "timers": dict(self.timers),
                    "gauges": dict(self.gauges)}

    def __setstate__(self, state: dict) -> None:
        self.counters = state.get("counters", {})
        self.timers = state.get("timers", {})
        self.gauges = state.get("gauges", {})
        self._mutex = threading.Lock()

    # -- counters -------------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        with self._mutex:
            self.counters[name] = self.counters.get(name, 0) + n

    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    # -- gauges ---------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time level (queue depth, open connections) —
        unlike counters these go down; snapshots report the last value."""
        with self._mutex:
            self.gauges[name] = value

    def get_gauge(self, name: str, default: float = 0) -> float:
        return self.gauges.get(name, default)

    # -- timers ---------------------------------------------------------------

    def add_time(self, name: str, seconds: float) -> None:
        with self._mutex:
            self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str):
        """Accumulate the elapsed wall time of the ``with`` body."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    # -- snapshot / delta / reset --------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """One flat dict of every counter and timer (timers keyed
        ``<name>.seconds``)."""
        with self._mutex:
            out: dict[str, float] = dict(self.counters)
            out.update(self.gauges)
            for name, seconds in self.timers.items():
                out[f"{name}.seconds"] = seconds
        return out

    @staticmethod
    def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
        """Per-key difference of two snapshots (keys absent from ``before``
        count from zero; unchanged keys are dropped)."""
        out = {}
        for key, value in after.items():
            diff = value - before.get(key, 0)
            if diff:
                out[key] = diff
        return out

    def reset(self) -> None:
        with self._mutex:
            self.counters.clear()
            self.timers.clear()
            self.gauges.clear()
