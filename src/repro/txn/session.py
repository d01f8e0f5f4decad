"""Sessions: the per-caller execution surface of the concurrent engine.

A :class:`Session` owns what one caller is allowed to hold at a time —
its table locks (the session object itself is the lock owner) and at most
one open transaction — and dispatches parsed statements against the
shared :class:`~repro.core.database.Database`.  Every path into the
engine funnels through one: ``Database.sql`` routes through a per-thread
default session, and each server connection gets its own.

Concurrency protocol (strict two-phase locking at table granularity):

* SELECT / EXPLAIN / ZOOM take **shared** locks on the tables they read
  (ZOOM also on the annotation resource); concurrent readers proceed.
* INSERT / UPDATE / DELETE / ANNOTATE take **exclusive** locks on their
  table (DELETE and ANNOTATE also on the annotation resource — tuple
  deletes cascade into the shared annotation store).  Multi-resource
  acquisitions go in sorted order to keep lock graphs shallow.
* Every DML statement is planned into redo ops, whole, before any is
  buffered or applied — a statement that fails leaves nothing.  Inside a
  ``BEGIN`` … ``COMMIT``/``ABORT`` transaction the ops are *buffered*
  (:class:`~repro.txn.manager.Transaction`) and locks are held to the
  transaction boundary; reads inside the transaction see committed state
  only (no read-your-writes; the concurrency battery's oracle models
  exactly these semantics).  In autocommit the ops go straight through
  the commit loop (:meth:`~repro.txn.manager.TransactionManager.run_group`)
  as a group without framing, and locks release at statement end.
* A lock wait that times out (:class:`~repro.errors.LockTimeoutError`)
  names this session the deadlock victim: its open transaction is
  auto-aborted and all its locks released, so the other side proceeds.
* DDL inside a transaction is rejected — DDL self-logs at statement
  scope and cannot be buffered.
"""

from __future__ import annotations

from itertools import count

from repro.annotations.annotation import AnnotationTarget
from repro.errors import (
    LockTimeoutError,
    ReadOnlyReplicaError,
    RecordNotFoundError,
    TransactionError,
)
from repro.query.ast import (
    AbortStmt,
    AlterTableSummary,
    AnnotateStmt,
    BeginStmt,
    CommitStmt,
    CreateTableStmt,
    DeleteStmt,
    ExplainStmt,
    InsertStmt,
    SelectStmt,
    UpdateStmt,
    ZoomIn,
)
from repro.query.parser import parse_sql
from repro.resilience import ExecutionContext
from repro.txn.locks import ANNOTATION_RESOURCE
from repro.txn.manager import Transaction
from repro.wal.record import WALRecordType

_session_ids = count(1)


class Session:
    """One caller's handle on the database: locks + transaction state."""

    def __init__(self, db, name: str | None = None):
        self.db = db
        self.name = name or f"session-{next(_session_ids)}"
        self.txn = None
        #: ExecutionContext of the statement currently inside
        #: :meth:`execute`; what :meth:`cancel` cancels.
        self._ctx: ExecutionContext | None = None
        self.closed = False

    def __repr__(self) -> str:  # lock diagnostics name the owner
        return f"<Session {self.name}>"

    @property
    def in_txn(self) -> bool:
        return self.txn is not None

    # -- entry points --------------------------------------------------------

    def execute(self, query: str, timeout: float | None = None,
                hangup=None):
        """Parse and run one statement under a fresh
        :class:`ExecutionContext` (deadline + cooperative cancellation),
        like :meth:`Database.execute` but per-session: the context is
        installed in the engine's *thread-local* slot, so concurrent
        sessions on their own threads each see their own deadline.
        ``hangup`` is the context's client-hangup probe (the server
        passes one per connection)."""
        db = self.db
        effective = timeout if timeout is not None else db.statement_timeout
        ctx = ExecutionContext(timeout=effective, metrics=db.metrics,
                               hangup=hangup)
        previous = db._exec_ctx
        db._exec_ctx = ctx
        self._ctx = ctx
        try:
            return self.execute_stmt(parse_sql(query))
        finally:
            self._ctx = None
            db._exec_ctx = previous

    def cancel(self) -> bool:
        """Cancel the statement currently inside :meth:`execute` (e.g. the
        server noticing the client hung up); returns False when idle.  The
        statement observes the flag at its next batch boundary or lock-wait
        slice."""
        ctx = self._ctx
        if ctx is None:
            return False
        ctx.cancel()
        return True

    def execute_stmt(self, stmt):
        """Run one parsed statement with session semantics (locks, txn
        buffering).  ``Database.sql`` lands here via the default session."""
        if self.closed:
            raise TransactionError("session is closed")
        try:
            return self._run_stmt(stmt)
        except LockTimeoutError:
            # Deadlock victim: roll back so our locks stop blocking the
            # winner. The caller sees the timeout error; the transaction
            # is gone (standard victim semantics).
            if self.txn is not None:
                txn, self.txn = self.txn, None
                self.db.txn_manager.abort(txn)
            raise
        finally:
            if self.txn is None:
                self.db.lock_manager.release_all(self)

    def close(self) -> None:
        """Abort any open transaction and release every lock."""
        if self.closed:
            return
        self.closed = True
        if self.txn is not None:
            txn, self.txn = self.txn, None
            self.db.txn_manager.abort(txn)
        self.db.lock_manager.release_all(self)

    # -- locking -------------------------------------------------------------

    def _lock(self, resources, exclusive: bool) -> None:
        lm = self.db.lock_manager
        ctx = self.db._exec_ctx
        acquire = lm.acquire_exclusive if exclusive else lm.acquire_shared
        for resource in sorted({r.lower() for r in resources}):
            acquire(self, resource, ctx=ctx)

    # -- dispatch ------------------------------------------------------------

    #: statement classes a read-only replica rejects up front. BEGIN is
    #: included so a would-be writer fails fast instead of buffering DML
    #: that could only ever die at COMMIT.
    _MUTATING_STMTS = (
        BeginStmt, CreateTableStmt, AlterTableSummary, InsertStmt,
        UpdateStmt, DeleteStmt, AnnotateStmt,
    )
    _DML_STMTS = (InsertStmt, UpdateStmt, DeleteStmt, AnnotateStmt)

    def _run_stmt(self, stmt):
        db = self.db
        if db.read_only and isinstance(stmt, self._MUTATING_STMTS):
            raise ReadOnlyReplicaError(
                "replica is read-only: route writes to the primary, "
                "or promote this replica first"
            )
        if isinstance(stmt, BeginStmt):
            return self._begin()
        if isinstance(stmt, CommitStmt):
            return self._commit()
        if isinstance(stmt, AbortStmt):
            return self._abort()
        if isinstance(stmt, (SelectStmt, ExplainStmt)):
            target = stmt.query if isinstance(stmt, ExplainStmt) else stmt
            self._lock((t.name for t in target.tables), exclusive=False)
            return db._dispatch_stmt(stmt)
        if isinstance(stmt, ZoomIn):
            self._lock([stmt.table, ANNOTATION_RESOURCE], exclusive=False)
            return db._dispatch_stmt(stmt)
        if isinstance(stmt, (CreateTableStmt, AlterTableSummary)):
            if self.txn is not None:
                raise TransactionError(
                    "DDL is not allowed inside a transaction; "
                    "COMMIT or ABORT first"
                )
            return db._dispatch_stmt(stmt)
        if isinstance(stmt, self._DML_STMTS):
            resources = [stmt.table]
            if isinstance(stmt, (DeleteStmt, AnnotateStmt)):
                # Tuple deletes cascade into the shared annotation store.
                resources.append(ANNOTATION_RESOURCE)
            self._lock(resources, exclusive=True)
            return self._write(stmt)
        return db._dispatch_stmt(stmt)

    # -- transaction control -------------------------------------------------

    def _begin(self):
        if self.txn is not None:
            raise TransactionError(
                f"transaction {self.txn.txn_id} already in progress"
            )
        self.txn = self.db.txn_manager.begin()
        return None

    def _commit(self):
        if self.txn is None:
            raise TransactionError("COMMIT outside a transaction")
        txn, self.txn = self.txn, None
        # txn is already detached: whether commit succeeds or raises, the
        # finally in execute_stmt releases this session's locks.
        self.db.txn_manager.commit(txn)
        return None

    def _abort(self):
        if self.txn is None:
            raise TransactionError("ABORT outside a transaction")
        txn, self.txn = self.txn, None
        self.db.txn_manager.abort(txn)
        return None

    # -- DML: plan, then buffer or run ---------------------------------------

    def _write(self, stmt):
        """Plan ``stmt`` into redo ops, then buffer them in the open
        transaction or, in autocommit, run them through the commit loop."""
        txn = self.txn
        if txn is not None:
            ops, result = self._plan(stmt, txn)
            txn.add_ops(ops)
            return result
        db = self.db
        # Plan and apply under one hold of the commit mutex: the plan
        # peeks the OID and annotation-id counters, which Python-API
        # writers (who hold no table locks) advance too.
        with db._commit_mutex:
            ops, result = self._plan(stmt, Transaction(0))
            db.txn_manager.run_group(ops)
        return result

    def _plan(self, stmt, txn):
        """``(ops, result)`` for one DML statement: its redo ops
        ``(rtype, payload)`` and the statement's return value.  Plans
        against committed state plus ``txn``'s buffered inserts, deletes
        and annotation ids, and changes neither."""
        db = self.db
        if isinstance(stmt, InsertStmt):
            tbl = db.catalog.table(stmt.table)
            first = tbl.next_oid + txn.insert_counts.get(tbl.name.lower(), 0)
            ops = []
            for offset, row in enumerate(stmt.rows):
                if stmt.columns is not None:
                    row = dict(zip(stmt.columns, row))
                ops.append((WALRecordType.INSERT, {
                    "table": tbl.name, "oid": first + offset,
                    "values": tbl.canonical_row(row),
                }))
            return ops, None
        if isinstance(stmt, AnnotateStmt):
            return self._plan_annotate(stmt, txn)
        key = stmt.table.lower()
        if isinstance(stmt, UpdateStmt):
            # Post-evaluation values: replay must not re-evaluate the
            # assignment expressions against replayed state.
            ops = [
                (WALRecordType.UPDATE,
                 {"table": stmt.table, "oid": oid, "values": assigned})
                for oid, assigned in db._update_plan(stmt)
                if (key, oid) not in txn.deleted
            ]
        else:
            ops = [
                (WALRecordType.DELETE, {"table": stmt.table, "oid": oid})
                for oid in db._matching_oids(
                    stmt.table, stmt.alias, stmt.where
                )
                if (key, oid) not in txn.deleted
            ]
        return ops, len(ops)

    def _plan_annotate(self, stmt: AnnotateStmt, txn):
        db = self.db
        tbl = db.catalog.table(stmt.table)
        key = (tbl.name.lower(), stmt.oid)
        if key in txn.deleted:
            raise RecordNotFoundError(
                f"{tbl.name}: OID {stmt.oid} was deleted in this transaction"
            )
        reserved = tbl.next_oid + txn.insert_counts.get(key[0], 0)
        if not tbl.next_oid <= stmt.oid < reserved:
            # Not a row this transaction inserted: it must be committed.
            db._require_tuple(stmt.table, stmt.oid)
        target = AnnotationTarget(stmt.table, stmt.oid, tuple(stmt.columns))
        db._require_columns(target)
        ann_id = db.manager.annotations.next_id + txn.ann_adds
        payload = {"text": stmt.text, "targets": [target], "ann_id": ann_id}
        return [(WALRecordType.ANN_ADD, payload)], ann_id
