"""Sessions: the per-caller execution surface of the concurrent engine.

A :class:`Session` owns what one caller is allowed to hold at a time —
its table locks (the session object itself is the lock owner) and at most
one open transaction — and dispatches parsed statements against the
shared :class:`~repro.core.database.Database`.  Every path into the
engine funnels through one: ``Database.sql`` and the Python API's writers
(``Database.insert``, ``delete_tuple``, ``add_annotation``,
``add_annotations_bulk``, ``delete_annotation``) route through a
per-thread default session, and each server connection gets its own.

Concurrency protocol (strict two-phase locking at table granularity):

* SELECT / EXPLAIN / ZOOM take **shared** locks on the tables they read
  (ZOOM also on the annotation resource); concurrent readers proceed.
* Every write — INSERT / UPDATE / DELETE / ANNOTATE and the Python API's
  — enters through :meth:`Session._write`, which takes **exclusive**
  locks on its tables (annotates, tuple deletes and annotation deletes
  also on the annotation resource — tuple deletes cascade into the shared
  annotation store).  Multi-resource acquisitions go in sorted order to
  keep lock graphs shallow.
* Every write is planned into redo ops, whole, before any is buffered or
  applied — a statement that fails leaves nothing.  Inside a
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
  scope and cannot be buffered — and so is a Python-API write, which
  returns what it wrote (an OID, an ``Annotation``).
"""

from __future__ import annotations

from itertools import count

from repro.annotations.annotation import AnnotationTarget
from repro.errors import (
    LockTimeoutError,
    ReadOnlyReplicaError,
    RecordNotFoundError,
    SchemaError,
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
    Star,
    TableRef,
    UpdateStmt,
    ZoomIn,
)
from repro.query.eval import EvalContext, evaluate
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
        self.db._check_alive()
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
            return self._write_sql(stmt)
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

    # -- DML: the one planner and write entry --------------------------------

    def _write(self, tables, plan, annotations: bool = False):
        """The one write entry, for SQL DML and the Python API alike: lock
        ``tables`` exclusively (and, with ``annotations``, the annotation
        resource), then ``plan(txn)`` -> ``(ops, result)``, and buffer the
        ops or, in autocommit, run them.  Returns ``(result, created)``.
        The locks guard every counter a plan peeks (``next_oid``, the
        annotation-id counter), so planning needs no commit mutex."""
        self._lock([*tables, ANNOTATION_RESOURCE] if annotations else tables,
                   exclusive=True)
        txn = self.txn
        ops, result = plan(txn if txn is not None else Transaction(0))
        if txn is not None:
            txn.add_ops(ops)
            return result, []
        return result, self.db.txn_manager.run_group(ops)

    def _write_sql(self, stmt):
        """SQL DML: INSERT returns None, UPDATE and DELETE the affected-row
        count, ANNOTATE the new annotation id."""
        if isinstance(stmt, InsertStmt):
            rows = [row if stmt.columns is None
                    else dict(zip(stmt.columns, row)) for row in stmt.rows]
            self._write([stmt.table],
                        lambda txn: self._plan_insert(stmt.table, rows, txn))
            return None
        if isinstance(stmt, AnnotateStmt):
            items = [(stmt.text, [AnnotationTarget(
                stmt.table, stmt.oid, tuple(stmt.columns))])]
            return self._write(
                [stmt.table], lambda txn: self._plan_annotations(items, txn),
                annotations=True,
            )[0]
        return self._write([stmt.table],
                           lambda txn: self._plan_update(stmt, txn),
                           annotations=isinstance(stmt, DeleteStmt))[0]

    def _plan_insert(self, table: str, rows, txn):
        """INSERT ops for ``rows`` (mappings or positional) and their OIDs,
        counted on from ``next_oid`` past ``txn``'s buffered inserts."""
        tbl = self.db.catalog.table(table)
        first = tbl.next_oid + txn.insert_counts.get(tbl.name.lower(), 0)
        oids = list(range(first, first + len(rows)))
        return [
            (WALRecordType.INSERT, {"table": tbl.name, "oid": oid,
                                    "values": tbl.canonical_row(row)})
            for oid, row in zip(oids, rows)
        ], oids

    def _plan_update(self, stmt, txn):
        """UPDATE and DELETE (an UPDATE with no assignments): one op per
        row the WHERE, planned like a SELECT, matches and ``txn`` did not
        delete, and their count.  UPDATE ops carry evaluated values, so
        replay never re-evaluates, and a bad value fails the plan."""
        db = self.db
        alias = stmt.alias or stmt.table
        physical, _logical, _cost = db.planner.plan(SelectStmt(
            items=(Star(None),), tables=(TableRef(stmt.table, alias),),
            where=stmt.where,
        ))
        db._attach_runtime(physical)
        ctx = EvalContext(manager=db.manager, udfs=db.manager.udfs)
        schema = db.catalog.table(stmt.table).schema
        key = stmt.table.lower()
        update = isinstance(stmt, UpdateStmt)
        rtype = WALRecordType.UPDATE if update else WALRecordType.DELETE
        ops = []
        for row in db._plan_rows(physical):
            oid = row.provenance[alias][1]
            payload = {"table": stmt.table, "oid": oid}
            if update:
                payload["values"] = {column: evaluate(expr, row, ctx)
                                     for column, expr in stmt.assignments}
                schema.validate_values(payload["values"])
            if (key, oid) not in txn.deleted:
                ops.append((rtype, payload))
        return ops, len(ops)

    def _plan_annotations(self, items, txn, bulk: bool = False):
        """Ops for ``items``, ``(text, targets)``: an ``ANN_ADD`` each, or
        one ``ANN_BULK``, ids counted on past ``txn``'s adds (the first is
        the result).  A target naming no column, or no tuple committed or
        inserted by ``txn``, fails the plan whole."""
        db = self.db
        all_targets = [t for _text, targets in items for t in targets]
        for target in all_targets:
            schema = db.catalog.table(target.table).schema
            for column in target.columns:
                if column not in schema:
                    raise SchemaError(
                        f"{target.table}: no column named {column!r}"
                    )
        for table, oid in dict.fromkeys((t.table, t.oid) for t in all_targets):
            tbl = db.catalog.table(table)
            key = (tbl.name.lower(), oid)
            if key in txn.deleted:
                raise RecordNotFoundError(
                    f"{tbl.name}: OID {oid} was deleted in this transaction"
                )
            # Inserted by txn, or carrying annotations: no probe needed.
            reserved = tbl.next_oid + txn.insert_counts.get(key[0], 0)
            if not (tbl.next_oid <= oid < reserved or db.manager.is_annotated(
                    tbl.name, oid) or tbl.has_tuple(oid)):
                raise RecordNotFoundError(
                    f"{tbl.name}: no tuple with OID {oid}"
                )
        first = db.manager.annotations.next_id + txn.ann_adds
        if bulk:
            return [(WALRecordType.ANN_BULK, {
                "items": [(text, list(targets)) for text, targets in items],
                "first_id": first,
            })], first
        return [
            (WALRecordType.ANN_ADD, {"text": text, "targets": list(targets),
                                     "ann_id": first + offset})
            for offset, (text, targets) in enumerate(items)
        ], first

    # -- the Python API's writes: autocommit statements ----------------------

    def _api_write(self, tables, plan, annotations: bool = False):
        if self.txn is not None:
            # What the caller gets back (an OID, an Annotation) exists
            # only once the write is applied.
            raise TransactionError(
                "Python-API writes are not allowed inside a transaction; "
                "COMMIT or ABORT first"
            )
        try:
            return self._write(tables, plan, annotations)
        finally:
            self.db.lock_manager.release_all(self)

    def insert(self, table: str, row) -> int:
        """Insert one row; returns its OID."""
        (oid,), _ = self._api_write(
            [table], lambda txn: self._plan_insert(table, [row], txn)
        )
        return oid

    def delete_tuple(self, table: str, oid: int) -> None:
        def plan(txn):
            tbl = self.db.catalog.table(table)
            if not tbl.has_tuple(oid):
                raise RecordNotFoundError(
                    f"{tbl.name}: no tuple with OID {oid}"
                )
            return [(WALRecordType.DELETE, {"table": table, "oid": oid})], None

        self._api_write([table], plan, annotations=True)

    def annotate(self, items, bulk: bool = False) -> list:
        """Attach annotations ``(text, targets)``; returns them."""
        tables = {target.table for _text, targets in items
                  for target in targets}
        return self._api_write(
            tables, lambda txn: self._plan_annotations(items, txn, bulk),
            annotations=True,
        )[1]

    def delete_annotation(self, ann_id: int) -> None:
        def plan(txn):
            # The annotation resource, held, sorts before every table.
            annotation = self.db.manager.annotations.get(ann_id)
            self._lock([target.table for target in annotation.targets],
                       exclusive=True)
            return [(WALRecordType.ANN_DEL, {"ann_id": ann_id})], None

        self._api_write([], plan, annotations=True)
