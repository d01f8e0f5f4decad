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
* Autocommit statements release their locks at statement end.  Inside a
  ``BEGIN`` … ``COMMIT``/``ABORT`` transaction, locks are held to the
  transaction boundary and DML is *buffered* as redo ops
  (:class:`~repro.txn.manager.Transaction`) — reads inside the
  transaction see committed state only (no read-your-writes; the
  concurrency battery's oracle models exactly these semantics).
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

    def execute(self, query: str, timeout: float | None = None):
        """Parse and run one statement under a fresh
        :class:`ExecutionContext` (deadline + cooperative cancellation),
        like :meth:`Database.execute` but per-session: the context is
        installed in the engine's *thread-local* slot, so concurrent
        sessions on worker threads each see their own deadline."""
        db = self.db
        effective = timeout if timeout is not None else db.statement_timeout
        ctx = ExecutionContext(timeout=effective, metrics=db.metrics)
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

    def _run_stmt(self, stmt):
        db = self.db
        if getattr(db, "read_only", False) and isinstance(
            stmt, self._MUTATING_STMTS
        ):
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
        if isinstance(stmt, InsertStmt):
            self._lock([stmt.table], exclusive=True)
            if self.txn is not None:
                return self._buffer_insert(stmt)
            return db._dispatch_stmt(stmt)
        if isinstance(stmt, UpdateStmt):
            self._lock([stmt.table], exclusive=True)
            if self.txn is not None:
                return self._buffer_update(stmt)
            return db._dispatch_stmt(stmt)
        if isinstance(stmt, DeleteStmt):
            # Tuple deletes cascade into the shared annotation store.
            self._lock([stmt.table, ANNOTATION_RESOURCE], exclusive=True)
            if self.txn is not None:
                return self._buffer_delete(stmt)
            return db._dispatch_stmt(stmt)
        if isinstance(stmt, AnnotateStmt):
            self._lock([stmt.table, ANNOTATION_RESOURCE], exclusive=True)
            if self.txn is not None:
                return self._buffer_annotate(stmt)
            annotation = db.add_annotation(
                stmt.text, table=stmt.table, oid=stmt.oid,
                columns=stmt.columns,
            )
            return annotation.ann_id
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

    # -- buffered DML (inside a transaction) ---------------------------------

    def _buffer_insert(self, stmt: InsertStmt):
        db, txn = self.db, self.txn
        tbl = db.catalog.table(stmt.table)
        for row in stmt.rows:
            row_in = (
                dict(zip(stmt.columns, row))
                if stmt.columns is not None else row
            )
            # Canonicalize now so a malformed row fails this statement,
            # not the eventual COMMIT.
            values = tbl.canonical_row(row_in)
            oid = txn.reserve_oid(tbl)
            txn.add_op(
                WALRecordType.INSERT,
                {"table": tbl.name, "oid": oid, "values": values},
            )
        return None

    def _buffer_update(self, stmt: UpdateStmt):
        db, txn = self.db, self.txn
        key = stmt.table.lower()
        updates = [
            (oid, assigned)
            for oid, assigned in db._update_plan(stmt)
            if (key, oid) not in txn.deleted
        ]
        for oid, assigned in updates:
            txn.add_op(
                WALRecordType.UPDATE,
                {"table": stmt.table, "oid": oid, "values": assigned},
            )
        return len(updates)

    def _buffer_delete(self, stmt: DeleteStmt):
        db, txn = self.db, self.txn
        key = stmt.table.lower()
        oids = [
            oid
            for oid in db._matching_oids(stmt.table, stmt.alias, stmt.where)
            if (key, oid) not in txn.deleted
        ]
        for oid in oids:
            txn.add_op(WALRecordType.DELETE, {"table": stmt.table, "oid": oid})
            txn.deleted.add((key, oid))
        return len(oids)

    def _buffer_annotate(self, stmt: AnnotateStmt):
        db, txn = self.db, self.txn
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
        targets = [AnnotationTarget(stmt.table, stmt.oid, tuple(stmt.columns))]
        # Pre-assign the annotation id: sound under the held exclusive
        # annotation-resource lock (same argument as OID reservation).
        ann_id = db.manager.annotations.next_id + txn.ann_adds
        txn.ann_adds += 1
        txn.add_op(
            WALRecordType.ANN_ADD,
            {"text": stmt.text, "targets": targets, "ann_id": ann_id},
        )
        return ann_id
