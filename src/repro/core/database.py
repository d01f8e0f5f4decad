"""The InsightNotes+ engine facade.

One :class:`Database` object owns the whole stack — simulated disk, buffer
pool, catalog, annotation store, summary manager, indexes, statistics, and
the summary-aware planner — and exposes the end-user surface:

* DDL / DML (programmatic and via :meth:`sql`),
* the extended ``ALTER TABLE … ADD [INDEXABLE] <instance>`` command (§4),
* annotation CRUD with incremental summary maintenance,
* summary-aware SELECTs mixing standard and summary-based operators,
* zoom-in from summaries back to raw annotations, and
* EXPLAIN plus the ablation knobs the benchmarks flip.
"""

from __future__ import annotations

import functools
import io
import os
import pickle
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.annotations.annotation import AnnotationTarget
from repro.cache import DEFAULT_CACHE_BYTES
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, Schema
from repro.core.integrity import IntegrityChecker, IntegrityReport
from repro.errors import (
    CatalogError,
    CorruptImageError,
    CorruptPageError,
    IndexError_,
    IntegrityError,
    QueryError,
    ReadOnlyReplicaError,
    RecordNotFoundError,
    ReproError,
    SummaryError,
)
from repro.index.baseline import BaselineClassifierIndex
from repro.index.keyword import TrigramKeywordIndex
from repro.index.replica import NormalizedSnippetReplica
from repro.index.summary_btree import SummaryBTreeIndex
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PlanProfiler
from repro.optimizer.planner import Planner, PlannerOptions
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.ast import (
    AlterTableSummary,
    CreateTableStmt,
    DeleteStmt,
    ExplainStmt,
    InsertStmt,
    SelectItem,
    SelectStmt,
    Star,
    TableRef,
    UpdateStmt,
    ZoomIn,
)
from repro.query.parser import parse_sql
from repro.query.result import ResultSet, ZoomResult
from repro.resilience import (
    AccessPathHealth,
    CircuitBreaker,
    DiskGuard,
    ExecutionContext,
    RetryPolicy,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, IOStats
from repro.storage.record import ValueType
from repro.summaries.maintenance import SummaryManager
from repro.txn.locks import StripedLockManager
from repro.txn.manager import TransactionManager
from repro.txn.session import Session
from repro.wal.device import MemoryWALDevice
from repro.wal.record import WALRecordType
from repro.wal.writer import WALWriter

_TYPE_KEYWORDS = {
    "int": ValueType.INT,
    "float": ValueType.FLOAT,
    "text": ValueType.TEXT,
    "bool": ValueType.BOOL,
}


def _env_fault_disk(metrics) -> "DiskManager | None":
    """A seeded transient-fault disk when ``REPRO_FAULT_INJECT=transient``.

    This is the whole-suite soak knob: with it set, every Database built
    without an explicit ``disk`` argument runs over a device that throws a
    :class:`~repro.errors.TransientIOError` on a seeded periodic schedule
    (``REPRO_FAULT_SEED``, ``REPRO_FAULT_PERIOD``) — and the retry layer
    must absorb every one of them transparently. The period is clamped to
    ≥2 so the retry that follows each injected fault (the next read index)
    can never land on the schedule again.
    """
    kind = os.environ.get("REPRO_FAULT_INJECT", "").strip().lower()
    if kind != "transient":
        return None
    from repro.faults.disk import FaultyDiskManager
    from repro.faults.plan import FaultPlan

    seed = int(os.environ.get("REPRO_FAULT_SEED", "0"))
    period = max(2, int(os.environ.get("REPRO_FAULT_PERIOD", "97")))
    plan = FaultPlan(seed=seed).transient_read(
        at=seed % period, period=period
    )
    return FaultyDiskManager(plan=plan, metrics=metrics)


def _env_retry_policy() -> RetryPolicy:
    attempts = int(os.environ.get("REPRO_RETRY_ATTEMPTS", "3"))
    base_delay = float(os.environ.get("REPRO_RETRY_BASE_DELAY", "0.001"))
    return RetryPolicy(
        max_attempts=max(1, attempts), base_delay=max(0.0, base_delay)
    )


def _env_timeout() -> float | None:
    raw = os.environ.get("REPRO_STATEMENT_TIMEOUT", "").strip()
    return float(raw) if raw else None


def _logged_ddl(fn):
    """Wrap a DDL method so top-level calls append a DDL redo record.

    The record carries the method name plus its (picklable) arguments;
    recovery replays it by re-invoking the method on the restored
    database. Nested calls (e.g. ``link_summary_instance`` building its
    index through ``create_summary_index``) log nothing — the outermost
    statement's record re-creates the whole effect on replay.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        with self._wal_statement() as log:
            if log:
                self._wal_append(
                    WALRecordType.DDL,
                    {"method": fn.__name__, "args": list(args),
                     "kwargs": dict(kwargs)},
                )
            return fn(self, *args, **kwargs)

    return wrapper


@dataclass
class QueryReport:
    """EXPLAIN output: chosen logical plan + physical plan + cost.

    ``EXPLAIN ANALYZE`` additionally executes the query and fills in
    ``analyzed`` (the per-operator annotated plan tree), ``execution``
    (run totals: elapsed, page accesses, disk I/O, per-operator entries,
    metric deltas) and ``result`` (the :class:`ResultSet` itself).
    """

    logical: str
    physical: str
    estimated_cost: float
    analyzed: str | None = None
    execution: dict = field(default_factory=dict)
    result: "ResultSet | None" = None
    #: quarantined access paths the planner excluded, as
    #: ``(kind, table, instance)`` — non-empty means this is a degraded plan.
    degraded: list = field(default_factory=list)

    def __str__(self) -> str:
        text = (
            f"Estimated cost: {self.estimated_cost:.2f}\n"
            f"-- logical --\n{self.logical}\n"
            f"-- physical --\n{self.physical}"
        )
        if self.degraded:
            paths = ", ".join(
                f"{kind} {table}.{instance}"
                for kind, table, instance in self.degraded
            )
            text += f"\nDegraded: excluded unhealthy paths [{paths}]"
        if self.analyzed is not None:
            text += f"\n-- analyze --\n{self.analyzed}"
            ex = self.execution
            if ex:
                text += (
                    f"\nActual: {ex.get('rows', 0)} rows in "
                    f"{ex.get('elapsed_s', 0.0) * 1e3:.2f} ms; "
                    f"pages={ex.get('pages', 0)} "
                    f"reads={ex.get('io_reads', 0)} "
                    f"writes={ex.get('io_writes', 0)}"
                )
        return text


class _ImageUnpickler(pickle.Unpickler):
    """Reads images written by older engines: a class retired since then
    resolves to the class that took over its pickled state."""

    _SUCCESSORS = {
        # The statistics subscribed once per linked instance; the
        # per-table subscription that replaced it keeps the same state,
        # and StatisticsCatalog.resubscribe() re-homes it.
        ("repro.optimizer.statistics", "_StalenessObserver"):
            ("repro.optimizer.statistics", "_TableObserver"),
    }

    def find_class(self, module: str, name: str):
        return super().find_class(
            *self._SUCCESSORS.get((module, name), (module, name))
        )


class Database:
    """A complete in-process InsightNotes+ engine."""

    def __init__(
        self,
        buffer_pages: int = 4096,
        options: PlannerOptions | None = None,
        disk: DiskManager | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        summary_async: bool = False,
    ):
        # Metrics first: the resilience layer and (under REPRO_FAULT_INJECT)
        # the fault-injecting disk both count through the registry.
        self.metrics = MetricsRegistry()
        if disk is None:
            disk = _env_fault_disk(self.metrics) or DiskManager()
        self.disk = disk
        self.pool = BufferPool(self.disk, capacity=buffer_pages)
        #: degraded-mode planning registry (quarantined access paths).
        self.health = AccessPathHealth(metrics=self.metrics)
        #: retry + circuit-breaker guard over every pool<->disk page I/O.
        self.guard = DiskGuard(
            policy=_env_retry_policy(),
            breaker=CircuitBreaker(metrics=self.metrics),
            metrics=self.metrics,
        )
        self.pool.guard = self.guard
        self.catalog = Catalog(self.pool)
        #: ``cache_bytes`` sizes the summary-set cache (0 stores nothing).
        self.manager = SummaryManager(
            self.pool, metrics=self.metrics, cache_bytes=cache_bytes
        )
        self.statistics = StatisticsCatalog(self.catalog, self.manager)
        self.summary_indexes: dict[tuple[str, str], SummaryBTreeIndex] = {}
        self.baseline_indexes: dict[tuple[str, str], BaselineClassifierIndex] = {}
        self.normalized_replicas: dict[tuple[str, str], NormalizedSnippetReplica] = {}
        self.keyword_indexes: dict[tuple[str, str], TrigramKeywordIndex] = {}
        self.options = options or PlannerOptions()
        #: write-ahead log writer; None until :meth:`attach_wal`.
        self.wal: WALWriter | None = None
        #: LSN stamped into the last checkpoint image (v3 header).
        self.checkpoint_lsn = 0
        #: log offset up to which records are folded into this state
        #: (recovery's idempotency watermark).
        self._applied_lsn = 0
        #: statement nesting depth — only depth-0 mutations emit records.
        self._wal_depth = 0
        #: True while recovery re-applies records (suppresses re-logging).
        self._wal_replaying = False
        #: monotonically increasing statement id carried by WAL records.
        self._stmt_counter = 0
        #: default statement deadline in seconds (None = no deadline);
        #: seeded from REPRO_STATEMENT_TIMEOUT, overridable per call and
        #: from the REPL's ``\timeout`` command.
        self.statement_timeout = _env_timeout()
        #: summary-maintenance mode: False is sync incremental, True is
        #: deferred (background worker + summary_status).
        if not isinstance(summary_async, bool):
            raise TypeError(
                f"summary_async must be a bool, got {summary_async!r}"
            )
        self.summary_async = summary_async
        self.manager.deferred = self.summary_async
        #: replicas set this: every mutating statement raises
        #: ReadOnlyReplicaError unless it arrives via the replication
        #: stream's replay path.
        self.read_only = False
        self._init_concurrency()

    def _init_concurrency(self) -> None:
        """Build the process-local concurrency runtime: none of it is
        picklable and none of it belongs in an image, so ``__init__`` and
        ``__setstate__`` both build it fresh."""
        #: serializes every WAL-logged mutation (the WAL is one serial
        #: stream) — taken by ``_wal_statement``, txn commit, and save().
        self._commit_mutex = threading.RLock()
        #: per-thread slot for the running statement's ExecutionContext;
        #: concurrent sessions on worker threads each see their own.
        self._exec_local = threading.local()
        #: per-thread default Session backing :meth:`sql`.
        self._session_local = threading.local()
        self.lock_manager = StripedLockManager(metrics=self.metrics)
        self.txn_manager = TransactionManager(self)
        # Background maintenance plumbing: regenerations serialize against
        # writers on the commit mutex, deletions are checked against the
        # catalog, and deferred-mode writes wake the worker thread.
        self.manager.regen_lock = self._commit_mutex
        self.manager.tuple_exists = self._summary_tuple_exists
        self.manager.maint_wake = self._maint_wake
        self._maint_worker = None

    # -- background summary maintenance ----------------------------------------------

    def _summary_tuple_exists(self, table: str, oid: int) -> bool:
        """Regeneration guard: never resurrect a deleted data tuple's
        summary row.  Answers True when unverifiable (unknown table) —
        false negatives would drop live summaries, false positives only
        regenerate a row the next tuple delete removes."""
        try:
            if not self.catalog.has_table(table):
                return True
            tbl = self.catalog.table(table)
        except ReproError:
            return True
        try:
            tbl.read(oid)
            return True
        except ReproError:
            return False

    def _maint_wake(self) -> None:
        """Write-path hook: in deferred mode, make sure the worker thread
        exists and nudge it."""
        if not self.summary_async:
            return
        worker = self._maint_worker
        if worker is None or not worker.running:
            worker = self._ensure_maint_worker()
        worker.wake()

    def _ensure_maint_worker(self):
        from repro.summaries.background import MaintenanceWorker

        worker = self._maint_worker
        if worker is None:
            worker = MaintenanceWorker(self)
            self._maint_worker = worker
        if not worker.running:
            worker.start()
        return worker

    def stop_maintenance(self, drain: bool = True) -> None:
        """Stop the background worker (if any); with ``drain`` (default)
        finish all pending regeneration inline first-and-after, so the
        engine shuts down with zero staleness."""
        worker = self._maint_worker
        if worker is not None:
            worker.stop()
        if drain:
            self.manager.drain_pending()

    def drain_summaries(self) -> int:
        """Regenerate every stale summary now; returns how many tuples
        were refreshed.  The 'converge async to sync equality' primitive —
        after this, reads are exactly what synchronous maintenance would
        have produced."""
        return self.manager.drain_pending()

    # -- sessions --------------------------------------------------------------------

    def session(self) -> Session:
        """A new session: its own lock owner and transaction scope (the
        unit one server connection, worker thread, or test actor holds)."""
        return Session(self)

    def _default_session(self) -> Session:
        """The calling thread's implicit session, backing :meth:`sql`."""
        session = getattr(self._session_local, "session", None)
        if session is None:
            session = Session(self, name="default")
            self._session_local.session = session
        return session

    @property
    def _exec_ctx(self) -> "ExecutionContext | None":
        """ExecutionContext of the statement running on *this thread*;
        what :meth:`cancel_running` cancels."""
        return getattr(self._exec_local, "ctx", None)

    @_exec_ctx.setter
    def _exec_ctx(self, ctx: "ExecutionContext | None") -> None:
        self._exec_local.ctx = ctx

    # -- write-ahead logging ---------------------------------------------------------

    def attach_wal(self, device=None, plan=None) -> WALWriter:
        """Enable write-ahead logging.

        ``device`` defaults to a fresh in-memory log based at the current
        checkpoint LSN; pass a :class:`~repro.faults.plan.FaultPlan` to
        schedule crash points inside the append/fsync path. The buffer
        pool starts enforcing log-before-data immediately.
        """
        if device is None:
            device = MemoryWALDevice(
                base_lsn=self.checkpoint_lsn, plan=plan, metrics=self.metrics
            )
        self.wal = WALWriter(device, metrics=self.metrics)
        self.pool.wal = self.wal
        return self.wal

    def detach_wal(self) -> None:
        """Stop logging; un-synced bytes stay pending on the device."""
        self.wal = None
        self.pool.wal = None

    @contextmanager
    def _wal_statement(self):
        """Scope of one top-level mutating statement.

        Yields True when this frame should emit a WAL record (logging is
        on, not replaying, and no outer statement is already logging). On
        successful completion the log is synced, so a statement is only
        ever acknowledged after its record is durable; on failure the sync
        is skipped — the un-synced record either vanishes with the crash
        or is replayed, fails the same way, and is skipped by recovery.

        Holds the commit mutex for the whole scope: the WAL is one serial
        stream, so concurrent writers (autocommit statements on worker
        threads, transaction commits) must append+apply+sync one at a
        time.  The mutex is reentrant — nested statement scopes and the
        commit protocol (which takes it explicitly) recurse safely.
        """
        with self._commit_mutex:
            if self.read_only and not self._wal_replaying:
                raise ReadOnlyReplicaError(
                    "replica is read-only: route writes to the primary, "
                    "or promote this replica first"
                )
            active = (
                self.wal is not None
                and not self._wal_replaying
                and self._wal_depth == 0
            )
            self._wal_depth += 1
            try:
                yield active
                if active:
                    self.wal.sync()
            finally:
                self._wal_depth -= 1

    def _wal_append(self, rtype: int, payload: dict, txn_id: int = 0) -> int:
        self._stmt_counter += 1
        return self.wal.append(
            rtype, payload, stmt_id=self._stmt_counter, txn_id=txn_id
        )

    @classmethod
    def recover(cls, path, device, verify: bool = False):
        """Crash recovery: load the checkpoint image at ``path`` (None for
        a database that never checkpointed) and replay ``device``'s durable
        WAL tail onto it.

        Torn tails are truncated from the device, never replayed. Returns
        ``(db, report)``; the recovered database has the device re-attached
        so it continues logging from the recovered position.
        ``verify=True`` additionally runs :meth:`check_integrity` and
        raises on any violation.
        """
        from repro.wal.recovery import replay

        db = cls.load(path) if path is not None else cls()
        report = replay(db, device)
        db.attach_wal(device)
        if verify:
            db.check_integrity(raise_on_error=True)
        return db, report

    def repair(self):
        """Self-heal: quarantine CRC-failing heap pages into a salvage
        report, rebuild every *derived* structure (summary B-Trees and
        backward pointers, keyword indexes, baseline/normalized replicas,
        secondary indexes, statistics) from the authoritative heaps, and
        prove convergence with a second integrity check.

        Returns a :class:`~repro.core.repair.RepairReport`.
        """
        from repro.core.repair import RepairManager

        # Repair rebuilds derived structures from the heaps; fold any
        # pending regeneration in first so the rebuilt structures reflect
        # every acknowledged annotation.
        self.manager.drain_pending()
        return RepairManager(self).run()

    # -- pickling --------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The WAL belongs to the running process, not the image: a loaded
        # database starts detached (recover()/attach_wal re-attach).
        state = self.__dict__.copy()
        state["wal"] = None
        state["_wal_depth"] = 0
        state["_wal_replaying"] = False
        # The concurrency runtime (locks, sessions, transactions, running
        # statements) belongs to the running process, not the image.
        for key in ("_commit_mutex", "_exec_local", "_session_local",
                    "lock_manager", "txn_manager", "_maint_worker"):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Images written before the WAL era lack the new attributes.
        state.setdefault("wal", None)
        state.setdefault("checkpoint_lsn", 0)
        state.setdefault("_applied_lsn", 0)
        state.setdefault("_wal_depth", 0)
        state.setdefault("_wal_replaying", False)
        state.setdefault("_stmt_counter", 0)
        # … and images before the resilience era lack these.
        state.setdefault("statement_timeout", None)
        # Images from before PR 24 carry a mode string ("coherent" drained
        # at every statement, which is what sync observes) or no mode.
        mode = state.get("summary_async", "off")
        legacy = not isinstance(mode, bool)
        if legacy:
            state["summary_async"] = mode == "deferred"
        state.setdefault("read_only", False)
        # Pre-concurrency images pickled a _exec_ctx slot; the attribute
        # is a property over thread-local state now. Images from the
        # two-executor era carry the mode switch of the removed tuple path.
        state.pop("_exec_ctx", None)
        state.pop("batch_exec", None)
        self.__dict__.update(state)
        self._init_concurrency()
        self.manager.deferred = self.summary_async
        self.statistics.resubscribe()
        if "health" not in state:
            self.health = AccessPathHealth(metrics=self.metrics)
        if "guard" not in state:
            self.guard = DiskGuard(
                policy=_env_retry_policy(),
                breaker=CircuitBreaker(metrics=self.metrics),
                metrics=self.metrics,
            )
            self.pool.guard = self.guard
        if legacy and not self.manager.cache.enabled:
            # Those images recorded capacity 0 for every database whose
            # creator set no size: it said nothing about this one.
            self.manager.cache.resize(DEFAULT_CACHE_BYTES)
        if not self.summary_async:
            # Sync maintenance carries no staleness across a load.
            self.manager.drain_pending()

    # -- planner --------------------------------------------------------------------

    @property
    def planner(self) -> Planner:
        return Planner(
            self.catalog,
            self.manager,
            self.statistics,
            self.summary_indexes,
            self.baseline_indexes,
            self.options,
            self.normalized_replicas,
            self.keyword_indexes,
            health=self.health,
        )

    # -- DDL ------------------------------------------------------------------------

    @_logged_ddl
    def create_table(self, name: str, columns: list[Column] | Schema):
        """Create a user relation."""
        schema = columns if isinstance(columns, Schema) else Schema(list(columns))
        table = self.catalog.create_table(name, schema)
        self.statistics.attach(name)
        return table

    @_logged_ddl
    def create_index(self, table: str, column: str) -> None:
        """Standard B-Tree on a data column."""
        self.catalog.table(table).create_index(column)

    # -- summary instances -------------------------------------------------------------

    @_logged_ddl
    def create_classifier_instance(
        self, name: str, labels: list[str],
        seed_examples: list[tuple[str, str]] | None = None,
    ):
        return self.manager.create_classifier_instance(name, labels, seed_examples)

    @_logged_ddl
    def create_hierarchical_classifier_instance(
        self, name: str, tree_spec: dict,
        seed_examples: list[tuple[str, str]] | None = None,
    ):
        """Multi-level classifier (§8 future work): nested-dict hierarchy,
        leaves are classified classes, inner nodes roll up in queries —
        e.g. ``getLabelValue('Health')`` sums its subtree's leaf counts."""
        return self.manager.create_hierarchical_classifier_instance(
            name, tree_spec, seed_examples
        )

    @_logged_ddl
    def create_snippet_instance(self, name: str, min_chars: int = 1000,
                                max_chars: int = 400):
        return self.manager.create_snippet_instance(name, min_chars, max_chars)

    @_logged_ddl
    def create_cluster_instance(self, name: str, **kwargs):
        return self.manager.create_cluster_instance(name, **kwargs)

    @_logged_ddl
    def link_summary_instance(
        self, table: str, instance: str, indexable: bool = False
    ) -> None:
        """``ALTER TABLE <table> ADD [INDEXABLE] <instance>`` (§4)."""
        if not self.catalog.has_table(table):
            raise CatalogError(f"no table named {table!r}")
        self.manager.link(table, instance)
        if indexable:
            self.create_summary_index(table, instance)

    @_logged_ddl
    def unlink_summary_instance(self, table: str, instance: str) -> None:
        """``ALTER TABLE <table> DROP <instance>``."""
        self.manager.unlink(table, instance)
        self.summary_indexes.pop((table.lower(), instance), None)
        self.baseline_indexes.pop((table.lower(), instance), None)
        # Detach everything create_summary_index and friends registered
        # on this channel: a detached-but-subscribed index keeps mutating
        # as a zombie.
        self.manager.clear_observers(table, instance)

    @_logged_ddl
    def create_summary_index(
        self, table: str, instance: str, backward_pointers: bool = True
    ) -> SummaryBTreeIndex:
        """Build a Summary-BTree over an already-linked classifier instance."""
        key = (table.lower(), instance)
        if key in self.summary_indexes:
            raise SummaryError(f"summary index on {key} already exists")
        index = SummaryBTreeIndex(
            self.catalog.table(table),
            self.manager.storage_for(table),
            instance,
            backward_pointers=backward_pointers,
        )
        index.bulk_build()
        self.manager.add_observer(table, instance, index)
        self.summary_indexes[key] = index
        return index

    @_logged_ddl
    def create_baseline_index(
        self, table: str, instance: str
    ) -> BaselineClassifierIndex:
        """Build the Figure 4(c) baseline index (normalized replica)."""
        key = (table.lower(), instance)
        if key in self.baseline_indexes:
            raise SummaryError(f"baseline index on {key} already exists")
        labels = getattr(self.manager.instance(instance), "labels", None)
        index = BaselineClassifierIndex(
            self.catalog.table(table), instance, self.pool,
            label_order=list(labels) if labels else None,
        )
        index.bulk_build(self.manager.storage_for(table))
        self.manager.add_observer(table, instance, index)
        self.baseline_indexes[key] = index
        return index

    @_logged_ddl
    def create_keyword_index(self, table: str, instance: str
                             ) -> TrigramKeywordIndex:
        """Build a trigram keyword index over a snippet instance's text.

        Serves ``containsSingle``/``containsUnion`` predicates in
        snippet-only search mode (``options.search_raw = False``) — the
        §3.1 snippets-vs-raw trade-off's fast side."""
        key = (table.lower(), instance)
        if key in self.keyword_indexes:
            raise SummaryError(f"keyword index on {key} already exists")
        index = TrigramKeywordIndex(table, instance, self.pool)
        index.bulk_build(self.manager.storage_for(table))
        self.manager.add_observer(table, "*", index)
        self.keyword_indexes[key] = index
        return index

    @_logged_ddl
    def create_normalized_replicas(self, table: str) -> list:
        """Normalize the non-classifier summary objects of ``table`` —
        the rest of the Baseline scheme's replica, needed so normalized
        propagation (Figure 12) can form *complete* summary sets from
        primitives."""
        from repro.summaries.instances import SnippetInstance

        built = []
        for instance in self.manager.instances_for(table):
            key = (table.lower(), instance.name)
            if key in self.normalized_replicas:
                continue
            if isinstance(instance, SnippetInstance):
                replica = NormalizedSnippetReplica(
                    table, instance.name, self.pool
                )
                replica.bulk_build(self.manager.storage_for(table))
                self.manager.add_observer(table, "*", replica)
                self.normalized_replicas[key] = replica
                built.append(replica)
        return built

    @_logged_ddl
    def drop_summary_index(self, table: str, instance: str) -> None:
        index = self.summary_indexes.pop((table.lower(), instance), None)
        if index is not None:
            self.manager.remove_observer(table, instance, index)

    def register_udf(self, name: str, fn) -> None:
        """Register a black-box summary-set UDF usable in queries (§3.2):
        ``db.register_udf("heavy", lambda s: s.get_size() > 2)`` then
        ``... Where heavy(r.$)``."""
        self.manager.register_udf(name, fn)

    # -- DML --------------------------------------------------------------------------------

    def insert(self, table: str, row: dict | list) -> int:
        tbl = self.catalog.table(table)
        with self._wal_statement() as log:
            if log:
                # Canonicalize before logging: the record carries the
                # positional values and the OID the insert will assign, so
                # replay reproduces the tuple under its original identity.
                values = tbl.canonical_row(row)
                self._wal_append(
                    WALRecordType.INSERT,
                    {"table": tbl.name, "oid": tbl.next_oid, "values": values},
                )
                return tbl.insert(values)
            return tbl.insert(row)

    def delete_tuple(self, table: str, oid: int) -> None:
        with self._wal_statement() as log:
            if log:
                self._wal_append(
                    WALRecordType.DELETE, {"table": table, "oid": oid}
                )
            self.manager.on_tuple_delete(table, oid)
            self.catalog.table(table).delete(oid)

    # -- annotations ---------------------------------------------------------------------------

    def add_annotation(
        self,
        text: str,
        targets: list[AnnotationTarget] | None = None,
        *,
        table: str | None = None,
        oid: int | None = None,
        columns: tuple[str, ...] = (),
    ):
        """Attach a raw annotation.

        Either pass explicit ``targets`` (cells/rows across tables) or the
        ``table=/oid=/columns=`` shorthand for a single attachment.
        """
        if targets is None:
            if table is None or oid is None:
                raise SummaryError("add_annotation needs targets or table+oid")
            targets = [AnnotationTarget(table, oid, tuple(columns))]
        with self._wal_statement() as log:
            for target in targets:
                self._require_tuple(target.table, target.oid)
            if log:
                self._wal_append(
                    WALRecordType.ANN_ADD,
                    {"text": text, "targets": list(targets),
                     "ann_id": self.manager.annotations.next_id},
                )
            return self.manager.add_annotation(text, targets)

    def _require_tuple(self, table: str, oid: int) -> None:
        """Raise :class:`~repro.errors.RecordNotFoundError` unless the
        tuple exists, before an annotation on it is logged or stored.
        O(1) for an OID never assigned and for a tuple that already
        carries annotations; one OID-index probe for the first
        annotation of a tuple."""
        tbl = self.catalog.table(table)
        if oid >= tbl.next_oid:
            raise RecordNotFoundError(f"{tbl.name}: no tuple with OID {oid}")
        if not self.manager.is_annotated(tbl.name, oid):
            tbl.disk_tuple_loc(oid)

    def add_annotations_bulk(
        self, items: list[tuple[str, list[AnnotationTarget]]]
    ) -> list:
        """Bulk-attach annotations through one framed WAL record.

        The durable path for dataset loads: unlike calling
        ``manager.add_annotations_bulk`` directly, a crash after this
        returns replays the whole batch (the record carries the first
        assigned annotation id, so replay reproduces identical ids).
        """
        with self._wal_statement() as log:
            if log:
                self._wal_append(
                    WALRecordType.ANN_BULK,
                    {"items": [(text, list(targets)) for text, targets in items],
                     "first_id": self.manager.annotations.next_id},
                )
            return self.manager.add_annotations_bulk(items)

    def delete_annotation(self, ann_id: int) -> None:
        with self._wal_statement() as log:
            if log:
                self._wal_append(WALRecordType.ANN_DEL, {"ann_id": ann_id})
            self.manager.delete_annotation(ann_id)

    def zoom_in(self, table: str, oid: int, instance: str,
                selector: str | int | None = None) -> list[str]:
        """Zoom-in: raw annotation texts behind a summary object.

        In deferred mode the returned list is a :class:`ZoomResult` whose
        ``summary_status`` reports whether the tuple's summary objects are
        behind its raw annotations (the texts themselves always come from
        the last-generated objects — graceful degradation, not blocking).
        """
        texts = self.manager.zoom_in(table, oid, instance, selector)
        if self.summary_async:
            return ZoomResult(
                texts, summary_status=self.manager.summary_status(table, oid)
            )
        return texts

    # -- integrity -----------------------------------------------------------------------------

    def check_integrity(self, raise_on_error: bool = False) -> IntegrityReport:
        """Audit every structure in the database (see ``repro.core.integrity``):
        on-disk page checksums, heap slot accounting, B-Tree invariants, and
        cross-structure consistency (OID indexes, secondary indexes,
        summary storage, Summary-BTree backward pointers, baseline replicas,
        annotation references).

        With ``raise_on_error`` a non-empty report raises
        :class:`~repro.errors.IntegrityError` instead of being returned.
        """
        # Staleness is a deliberate, bounded inconsistency; don't let the
        # auditor report it as corruption.
        self.manager.drain_pending()
        report = IntegrityChecker(self).run()
        # Feed degraded-mode planning: every derived access path a
        # violation names is quarantined until a converged repair
        # (RepairManager.run -> health.restore_all) rebuilds it.
        for kind, table, instance in report.unhealthy_paths():
            self.health.quarantine(
                kind, table, instance, reason="integrity violation"
            )
        if raise_on_error and not report.ok:
            raise IntegrityError(str(report))
        return report

    # -- persistence ---------------------------------------------------------------------------

    _IMAGE_MAGIC = b"INSIGHTNOTES-IMAGE"
    _IMAGE_VERSION = 3
    #: v2 header after the magic: version:u16 | payload_len:u64 | crc32:u32.
    _IMAGE_HEADER_V2 = struct.Struct(">HQI")
    #: v3 appends the checkpoint LSN: … | checkpoint_lsn:u64.
    _IMAGE_HEADER = struct.Struct(">HQIQ")

    def save(self, path: str | Path) -> None:
        """Checkpoint the whole database — pages, catalog, summary
        instances, indexes, statistics — as a single-file image.

        The image carries the payload length and a CRC32 so a truncated or
        corrupted file is detected at :meth:`load` time, and it is written
        to a temporary sibling then atomically renamed into place: a crash
        mid-save leaves the previous image intact, never a torn one — and
        a failed write unlinks the temp sibling instead of leaking it.

        With a WAL attached this is the checkpoint protocol: flush data
        pages (WAL first — log-before-data), sync the log, stamp the
        checkpoint LSN into the v3 header, and truncate the log only once
        the rename has landed. A crash between rename and truncation is
        safe: replay skips records below the checkpoint LSN.

        Registered UDFs are *not* persisted (arbitrary callables don't
        serialize portably); re-register them after :meth:`load`.
        """
        # Checkpoints are atomic with respect to writers: the commit mutex
        # keeps any concurrent statement's apply+log out of the image and
        # out of the truncated log region.
        with self._commit_mutex:
            self._save_locked(path)

    def _save_locked(self, path: str | Path) -> None:
        # Checkpoint images are always fully maintained: fold pending
        # regeneration in before flushing pages, so a load never starts
        # from stale summary rows (the WAL tail re-marks anything the
        # image predates).
        self.manager.drain_pending()
        self.pool.flush_all()
        if self.wal is not None:
            self.wal.sync()
            self.checkpoint_lsn = self.wal.next_lsn
            self._applied_lsn = max(self._applied_lsn, self.checkpoint_lsn)
        udfs = self.manager.udfs
        self.manager.udfs = {}
        try:
            payload = pickle.dumps(self)
        finally:
            self.manager.udfs = udfs
        header = self._IMAGE_MAGIC + self._IMAGE_HEADER.pack(
            self._IMAGE_VERSION, len(payload),
            zlib.crc32(payload) & 0xFFFFFFFF, self.checkpoint_lsn,
        )
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_bytes(header + payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if self.wal is not None:
            self.wal.truncate(self.checkpoint_lsn)

    def snapshot_bytes(self) -> bytes:
        """Serialize the current state as image bytes — the replication
        bootstrap primitive.

        Same format (and drain/flush/sync discipline) as :meth:`save`,
        with two deliberate differences: nothing touches the filesystem,
        and the WAL is **not** truncated — the snapshot LSN is stamped
        into the header but the primary keeps its log, so an attached
        replica's stream position stays valid across a bootstrap.
        """
        with self._commit_mutex:
            self.manager.drain_pending()
            self.pool.flush_all()
            if self.wal is not None:
                self.wal.sync()
                snapshot_lsn = self.wal.next_lsn
            else:
                snapshot_lsn = max(self.checkpoint_lsn, self._applied_lsn)
            udfs = self.manager.udfs
            self.manager.udfs = {}
            try:
                payload = pickle.dumps(self)
            finally:
                self.manager.udfs = udfs
            header = self._IMAGE_MAGIC + self._IMAGE_HEADER.pack(
                self._IMAGE_VERSION, len(payload),
                zlib.crc32(payload) & 0xFFFFFFFF, snapshot_lsn,
            )
            return header + payload

    @classmethod
    def load(cls, path: str | Path, verify: bool = False) -> "Database":
        """Restore a database image written by :meth:`save`.

        Any damage — wrong magic, unsupported version, truncation, payload
        CRC mismatch, undecodable payload — raises a typed
        :class:`~repro.errors.CorruptImageError`; a load never returns
        silently-wrong data. ``verify=True`` additionally runs
        :meth:`check_integrity` on the restored database and raises
        :class:`~repro.errors.IntegrityError` on any violation.
        """
        return cls.load_bytes(
            Path(path).read_bytes(), source=str(path), verify=verify
        )

    @classmethod
    def load_bytes(cls, data: bytes, source: str = "<bytes>",
                   verify: bool = False) -> "Database":
        """Restore a database from in-memory image bytes (:meth:`load`'s
        engine; also deserializes :meth:`snapshot_bytes` payloads on the
        replica side). ``source`` names the origin in error messages."""
        if not data.startswith(cls._IMAGE_MAGIC):
            raise CorruptImageError(f"{source} is not an InsightNotes image")
        offset = len(cls._IMAGE_MAGIC)
        if len(data) < offset + 2:
            raise CorruptImageError(
                f"{source}: image header truncated "
                f"({len(data) - offset} of {cls._IMAGE_HEADER.size} bytes)"
            )
        (version,) = struct.unpack_from(">H", data, offset)
        if version == 2:
            header_struct = cls._IMAGE_HEADER_V2  # pre-WAL images
        elif version == cls._IMAGE_VERSION:
            header_struct = cls._IMAGE_HEADER
        else:
            raise CorruptImageError(
                f"image version {version} unsupported "
                f"(engine writes v{cls._IMAGE_VERSION})"
            )
        if len(data) < offset + header_struct.size:
            raise CorruptImageError(
                f"{source}: image header truncated "
                f"({len(data) - offset} of {header_struct.size} bytes)"
            )
        fields = header_struct.unpack_from(data, offset)
        payload_len, crc = fields[1], fields[2]
        checkpoint_lsn = fields[3] if version >= 3 else 0
        payload = data[offset + header_struct.size:]
        if len(payload) != payload_len:
            raise CorruptImageError(
                f"{source}: payload truncated "
                f"({len(payload)} of {payload_len} bytes)"
            )
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CorruptImageError(f"{source}: payload CRC32 mismatch")
        try:
            db = _ImageUnpickler(io.BytesIO(payload)).load()
        except Exception as exc:
            raise CorruptImageError(
                f"{source}: payload does not unpickle: {exc}"
            ) from exc
        if not isinstance(db, cls):
            raise CorruptImageError(f"{source} does not contain a Database")
        # The header's checkpoint LSN is authoritative (v2 images carry 0).
        db.checkpoint_lsn = checkpoint_lsn
        db._applied_lsn = max(db._applied_lsn, checkpoint_lsn)
        # Images deserialize cold by construction; the bump makes the
        # fresh-epoch guarantee hold even if that ever changes.
        db.manager.cache.bump_all("load")
        if verify:
            db.check_integrity(raise_on_error=True)
        return db

    # -- statistics -------------------------------------------------------------------------------

    def analyze(self, table: str) -> None:
        """Collect optimizer statistics (Figure 6) for one table."""
        self.statistics.analyze(table)

    def io_snapshot(self) -> IOStats:
        return self.disk.stats.snapshot()

    def io_since(self, before: IOStats) -> IOStats:
        return self.disk.stats.delta(before)

    # -- observability ----------------------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        """One flat dict of every engine counter: the metrics registry
        (maintenance events, timers), buffer-pool hits/misses, disk I/O,
        and per-index probe counts.

        Diff two snapshots with :meth:`MetricsRegistry.delta` to attribute
        counters to a region of work.
        """
        snap = self.metrics.snapshot()
        snap["pool.hits"] = self.pool.hits
        snap["pool.misses"] = self.pool.misses
        snap["pool.pages"] = self.pool.hits + self.pool.misses
        snap["disk.reads"] = self.disk.stats.reads
        snap["disk.writes"] = self.disk.stats.writes
        snap["disk.allocations"] = self.disk.stats.allocations
        for (table, instance), index in self.summary_indexes.items():
            snap[f"index.summary.{table}.{instance}.probes"] = getattr(
                index, "probes", 0
            )
            snap[f"index.summary.{table}.{instance}.rebuilds"] = index.rebuilds
        for (table, instance), index in self.baseline_indexes.items():
            snap[f"index.baseline.{table}.{instance}.probes"] = getattr(
                index, "probes", 0
            )
        for (table, instance), index in self.keyword_indexes.items():
            snap[f"index.keyword.{table}.{instance}.probes"] = getattr(
                index, "probes", 0
            )
        # Event counters (cache.hits/misses/…) already live in the shared
        # registry; add the occupancy gauges.
        cache = self.manager.cache
        snap["cache.capacity_bytes"] = cache.capacity_bytes
        snap["cache.used_bytes"] = cache.used_bytes
        snap["cache.entries"] = len(cache)
        if self.summary_async:
            # Live staleness gauges (the set_gauge values only move on
            # mark/drain; these report the instantaneous truth).
            snap["maint.backlog"] = self.manager.pending_count()
            snap["maint.lag_seconds"] = self.manager.pending_lag_seconds()
        guard = getattr(self, "guard", None)
        if guard is not None and guard.breaker is not None:
            # Gauge (0=closed, 1=half-open, 2=open), not a counter.
            snap["resilience.breaker_state"] = guard.breaker.state_code
        health = getattr(self, "health", None)
        if health is not None:
            snap["resilience.unhealthy_paths"] = len(health)
        txn_manager = getattr(self, "txn_manager", None)
        if txn_manager is not None:
            # Gauges; the txn.*/lock.* event counters live in the registry.
            snap["txn.open"] = len(txn_manager.active)
        lock_manager = getattr(self, "lock_manager", None)
        if lock_manager is not None:
            snap["lock.tables"] = len(lock_manager)
        return snap

    def reset_metrics(self) -> None:
        """Zero every counter :meth:`metrics_snapshot` reports: the
        registry, the buffer-pool hit/miss counters, the disk
        :class:`IOStats`, and the per-index probe counts.  Snapshots taken
        before a reset are stale — re-snapshot after."""
        self.metrics.reset()
        self.pool.hits = 0
        self.pool.misses = 0
        self.disk.stats.reset()
        for index in (
            list(self.summary_indexes.values())
            + list(self.baseline_indexes.values())
            + list(self.keyword_indexes.values())
        ):
            if hasattr(index, "probes"):
                index.probes = 0

    # -- queries ------------------------------------------------------------------------------------

    def execute(self, query: str, timeout: float | None = None,
                interruptible: bool = False):
        """Execute one SQL statement under a resilience
        :class:`~repro.resilience.context.ExecutionContext`.

        Same surface as :meth:`sql`, plus a deadline and cooperative
        cancellation: ``timeout`` (seconds; defaults to
        ``self.statement_timeout``) raises
        :class:`~repro.errors.QueryTimeoutError` at the next operator
        batch boundary once the deadline passes, and
        :meth:`cancel_running` (or, with ``interruptible=True``, a SIGINT)
        raises :class:`~repro.errors.QueryCancelledError` — the statement
        dies, the session survives. Both errors carry the partial progress
        made (``exc.partial``).
        """
        import signal

        effective = timeout if timeout is not None else self.statement_timeout
        ctx = ExecutionContext(timeout=effective, metrics=self.metrics)
        self._exec_ctx = ctx
        previous_handler = None
        installed = False
        if interruptible:
            try:
                previous_handler = signal.signal(
                    signal.SIGINT, lambda signum, frame: ctx.cancel()
                )
                installed = True
            except ValueError:
                pass  # not the main thread: Ctrl-C handling unavailable
        try:
            return self.sql(query)
        finally:
            if installed:
                signal.signal(signal.SIGINT, previous_handler)
            self._exec_ctx = None

    def cancel_running(self) -> bool:
        """Request cancellation of the statement currently inside
        :meth:`execute`; returns False when nothing is running. The
        statement observes the flag at its next batch boundary."""
        ctx = self._exec_ctx
        if ctx is None:
            return False
        ctx.cancel()
        return True

    def _attach_runtime(self, physical) -> None:
        """Thread the active statement's ExecutionContext (deadline +
        cancel flag) through a lowered plan's operators."""
        if self._exec_ctx is not None:
            self._exec_ctx.attach(physical)

    def sql(self, query: str):
        """Execute one SQL statement.

        SELECT returns a :class:`ResultSet`; ZOOM IN returns raw texts; DDL
        and INSERT return None; DELETE/UPDATE return the affected-row
        count; ANNOTATE returns the new annotation id.

        Statements route through the calling thread's default
        :class:`~repro.txn.session.Session`, which is what makes
        ``BEGIN``/``COMMIT``/``ABORT`` work from here and the REPL, and
        which takes table locks around every statement — calls from
        several threads serialise like server connections do.
        """
        return self._default_session().execute_stmt(parse_sql(query))

    def _dispatch_stmt(self, stmt):
        """Session-free statement dispatch: the engine's raw execution
        surface, called by sessions after lock/transaction handling."""
        if isinstance(stmt, SelectStmt):
            return self._execute_select(stmt)
        if isinstance(stmt, ExplainStmt):
            return self._execute_explain(stmt)
        if isinstance(stmt, AlterTableSummary):
            if stmt.action == "add":
                self.link_summary_instance(stmt.table, stmt.instance,
                                           stmt.indexable)
            else:
                self.unlink_summary_instance(stmt.table, stmt.instance)
            return None
        if isinstance(stmt, ZoomIn):
            return self.zoom_in(stmt.table, stmt.oid, stmt.instance, stmt.selector)
        if isinstance(stmt, CreateTableStmt):
            self.create_table(
                stmt.name,
                [Column(c, _TYPE_KEYWORDS[t]) for c, t in stmt.columns],
            )
            return None
        if isinstance(stmt, InsertStmt):
            # Route through self.insert so each row emits a WAL record.
            for row in stmt.rows:
                if stmt.columns is not None:
                    self.insert(stmt.table, dict(zip(stmt.columns, row)))
                else:
                    self.insert(stmt.table, row)
            return None
        if isinstance(stmt, DeleteStmt):
            return self._execute_delete(stmt)
        if isinstance(stmt, UpdateStmt):
            return self._execute_update(stmt)
        raise QueryError(f"unsupported statement {stmt!r}")

    def _matching_oids(self, table: str, alias: str | None,
                       where) -> list[int]:
        """OIDs satisfying a DML statement's WHERE — planned like a
        SELECT, so data AND summary predicates (first-class summaries
        extend to DML) both work and may use indexes."""
        alias = alias or table
        select = SelectStmt(
            items=[Star(None)],
            tables=[TableRef(table, alias)],
            where=where,
        )
        physical, _logical, _cost = self.planner.plan(select)
        self._attach_runtime(physical)
        return [
            t.provenance[alias][1] for t in self._plan_rows(physical)
        ]

    def _execute_delete(self, stmt: DeleteStmt) -> int:
        """Returns the number of deleted tuples."""
        oids = self._matching_oids(stmt.table, stmt.alias, stmt.where)
        for oid in oids:
            self.delete_tuple(stmt.table, oid)
        return len(oids)

    def _update_plan(self, stmt: UpdateStmt) -> list[tuple[int, dict]]:
        """Evaluate an UPDATE's WHERE and assignment expressions against
        current state: ``(oid, assigned-values)`` per matching row.
        Shared by immediate execution and transactional buffering (which
        logs post-evaluation values, never expressions)."""
        from repro.query.eval import EvalContext, evaluate

        alias = stmt.alias or stmt.table
        select = SelectStmt(
            items=[Star(None)],
            tables=[TableRef(stmt.table, alias)],
            where=stmt.where,
        )
        physical, _logical, _cost = self.planner.plan(select)
        self._attach_runtime(physical)
        ctx = EvalContext(manager=self.manager, udfs=self.manager.udfs)
        updates: list[tuple[int, dict]] = []
        for row in self._plan_rows(physical):
            oid = row.provenance[alias][1]
            assigned = {
                column: evaluate(expr, row, ctx)
                for column, expr in stmt.assignments
            }
            updates.append((oid, assigned))
        return updates

    def _execute_update(self, stmt: UpdateStmt) -> int:
        """Returns the number of updated tuples.  Assignment expressions
        evaluate per row (columns and summary expressions allowed)."""
        updates = self._update_plan(stmt)
        table = self.catalog.table(stmt.table)
        for oid, assigned in updates:
            with self._wal_statement() as log:
                if log:
                    # Post-evaluation values: replay must not re-evaluate
                    # the assignment expressions against replayed state.
                    self._wal_append(
                        WALRecordType.UPDATE,
                        {"table": stmt.table, "oid": oid, "values": assigned},
                    )
                table.update(oid, assigned)
        return len(updates)

    def explain(self, query: str, analyze: bool = False) -> QueryReport:
        """EXPLAIN a SELECT: plan it and report logical + physical plans.

        ``analyze=True`` (or an ``EXPLAIN ANALYZE …`` query string) also
        executes the plan under a :class:`PlanProfiler` and annotates every
        operator with its actual rows, ``next()`` calls, wall time, page
        accesses, and disk I/O.
        """
        stmt = parse_sql(query)
        if isinstance(stmt, ExplainStmt):
            stmt = ExplainStmt(stmt.query, analyze=stmt.analyze or analyze)
        elif isinstance(stmt, SelectStmt):
            stmt = ExplainStmt(stmt, analyze=analyze)
        else:
            raise QueryError("EXPLAIN supports SELECT statements only")
        return self._execute_explain(stmt)

    def _execute_explain(self, stmt: ExplainStmt) -> QueryReport:
        planner = self.planner
        physical, logical, cost = planner.plan(stmt)
        degraded = sorted(planner.excluded)
        report = QueryReport(logical.pretty(), physical.explain(), cost,
                             degraded=degraded)
        if not stmt.analyze:
            return report
        result = self._run_physical(stmt.query, physical, cost, profile=True,
                                    degraded=degraded)
        report.analyzed = result.stats["plan_analyzed"]
        report.execution = {
            key: value
            for key, value in result.stats.items()
            if key not in ("plan", "plan_analyzed", "estimated_cost")
        }
        report.execution["rows"] = len(result)
        report.result = result
        return report

    def _execute_select(self, stmt: SelectStmt,
                        _retrying: bool = False) -> ResultSet:
        planner = self.planner
        physical, logical, cost = planner.plan(stmt)
        try:
            return self._run_physical(
                stmt, physical, cost, degraded=sorted(planner.excluded)
            )
        except (CorruptPageError, IndexError_) as exc:
            # Mid-query corruption inside a derived access path: quarantine
            # every index path the dying plan used and retry the statement
            # once — the re-plan falls back to heap scans, which read only
            # the authoritative data (the repair contract). A plan with no
            # index paths, or a second failure, propagates: the corruption
            # is not in a structure planning can route around.
            quarantined = self._quarantine_plan_paths(physical, str(exc))
            if _retrying or not quarantined:
                raise
            self.metrics.inc("resilience.statement_retries")
            return self._execute_select(stmt, _retrying=True)

    def _quarantine_plan_paths(self, physical, reason: str) -> list[tuple]:
        """Quarantine every derived access path a physical plan touches;
        returns the freshly quarantined ``(kind, table, instance)`` keys."""
        from repro.query.physical import (
            BaselineIndexScan,
            KeywordIndexScan,
            SummaryIndexNestedLoopJoin,
            SummaryIndexScan,
        )

        quarantined: list[tuple] = []
        stack = [physical]
        while stack:
            op = stack.pop()
            stack.extend(op.children)
            if isinstance(op, SummaryIndexScan):
                key = ("summary", op.table, op.instance)
            elif isinstance(op, BaselineIndexScan):
                key = ("baseline", op.table, op.instance)
            elif isinstance(op, KeywordIndexScan):
                key = ("keyword", op.table, op.instance)
            elif isinstance(op, SummaryIndexNestedLoopJoin):
                key = ("summary", op.inner_table, op.instance)
            else:
                continue
            if self.health.quarantine(*key, reason=reason):
                quarantined.append(key)
        return quarantined

    def _plan_rows(self, physical) -> list:
        """Drain a lowered plan into its output tuples.

        The root operator materializes each batch's row views *inside*
        its own instrumented iterator (see ``materialize_output``), so
        lazily-built summary sets charge their page reads to the plan —
        keeping EXPLAIN ANALYZE's per-operator attribution exact — and
        stay covered by deadline checkpoints.
        """
        physical.materialize_output = True
        return [
            row for batch in physical.batches() for row in batch.to_rows()
        ]

    def _run_physical(
        self,
        stmt: SelectStmt,
        physical,
        cost: float,
        profile: bool = False,
        degraded: list | tuple = (),
    ) -> ResultSet:
        """Execute a lowered plan, capturing run totals (and, when
        ``profile`` is set, the per-operator EXPLAIN ANALYZE counters)."""
        self._attach_runtime(physical)
        if degraded:
            self.metrics.inc("resilience.degraded_plans")
        profiler = None
        metrics_before: dict[str, float] | None = None
        if profile:
            profiler = PlanProfiler(
                self.pool, self.disk, self.manager.cache
            ).attach(physical)
            metrics_before = self.metrics_snapshot()
        io_before = self.disk.stats.snapshot()
        pages_before = self.pool.hits + self.pool.misses
        started = time.perf_counter()
        tuples = self._plan_rows(physical)
        elapsed = time.perf_counter() - started
        io = self.disk.stats.delta(io_before)
        columns = (
            tuples[0].columns if tuples else self._expected_columns(stmt)
        )
        stats = {
            "elapsed_s": elapsed,
            "io_reads": io.reads,
            "io_writes": io.writes,
            "pages": self.pool.hits + self.pool.misses - pages_before,
            "estimated_cost": cost,
            "plan": physical.explain(),
            "degraded_paths": list(degraded),
        }
        if profiler is not None:
            stats["plan_analyzed"] = profiler.render()
            stats["operators"] = profiler.summarize()
            stats["metrics"] = MetricsRegistry.delta(
                self.metrics_snapshot(), metrics_before or {}
            )
        summary_status = None
        if self.summary_async and self.manager.has_pending():
            # Per-row freshness: a row is stale when any tuple it was
            # built from has queued maintenance work (its summary objects
            # answer from the last generation).
            pending = self.manager.pending
            summary_status = [
                "stale" if any(
                    key in pending for key in t.provenance.values()
                ) else "fresh"
                for t in tuples
            ]
        return ResultSet(
            columns, tuples, stats=stats, summary_status=summary_status
        )

    @staticmethod
    def _expected_columns(stmt: SelectStmt) -> list[str]:
        out = []
        for item in stmt.items:
            if isinstance(item, Star):
                out.append(f"{item.alias}.*" if item.alias else "*")
            elif isinstance(item, SelectItem):
                out.append(item.alias or str(item.expr))
        return out
