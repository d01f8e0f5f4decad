"""Transactions over the redo-only WAL: one write loop for every statement.

Every mutating statement, SQL DML and the Python API's writers alike, is
planned into redo ops, ``(record_type, payload)`` — the exact payloads the
WAL carries — by one planner, ``repro.txn.session``, before any applies.
Inside ``BEGIN`` … ``COMMIT``/``ABORT`` the ops are buffered on a
:class:`Transaction` and touch nothing until commit, so abort is trivial:
**an aborted transaction's pages cannot hit disk because an aborted
transaction never has pages.**

:meth:`TransactionManager.run_group` is the one loop that applies ops:
``COMMIT`` runs it on the buffered group, every autocommit statement on
its own ops, inside one WAL statement scope that holds the engine's commit
mutex::

    TXN_BEGIN(txn)             appended (transactions only)
    for each op:  op record    appended, then applied alone via
                               repro.wal.recovery.apply_records
    TXN_COMMIT(txn)            appended (transactions only)
    sync                       once: the durability point

Autocommit is a group without framing (``txn_id`` 0).  Applying through
the interpreter recovery and the replica applier use makes a statement's
live and replayed effects the same code.  A crash before the sync leaves
a group without a durable ``TXN_COMMIT``, which recovery discards whole.
A group that raises, framed or not, logged or not, may be in the live
state in part, so it stops the database (:attr:`Database.failure`), and
the statement scope cuts its records from the log: the log holds only
groups that applied cleanly.

Identifier pre-assignment: a plan claims OIDs (and annotation ids) by
offsetting from the current counter.  Every write takes the table's
exclusive lock (resp. the annotation resource's) before it plans and
holds it through apply (a transaction until commit), so no other writer
can claim the same ids.
"""

from __future__ import annotations

import threading

from repro.errors import TransactionError
from repro.wal.record import WALRecord, WALRecordType
from repro.wal.recovery import apply_records


class Transaction:
    """One open transaction's buffered state.  ``Transaction(0)`` is the
    empty planning context of an autocommit statement."""

    __slots__ = (
        "txn_id", "ops", "insert_counts", "ann_adds", "deleted", "status",
    )

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        #: buffered redo ops, in statement order: ``(rtype, payload)``.
        self.ops: list[tuple[int, dict]] = []
        #: table -> count of buffered inserts (OID pre-assignment offset).
        self.insert_counts: dict[str, int] = {}
        #: buffered annotation adds (annotation-id pre-assignment offset).
        self.ann_adds = 0
        #: (table, oid) pairs this transaction has buffered a delete for —
        #: later statements must not buffer ops against them (the commit
        #: apply would fail on the missing row).
        self.deleted: set[tuple[str, int]] = set()
        self.status = "active"  # active | committed | aborted

    def add_ops(self, ops: list[tuple[int, dict]]) -> None:
        """Buffer one statement's planned ops and advance the offsets the
        next statement's plan reserves from."""
        if self.status != "active":
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status}"
            )
        for rtype, payload in ops:
            if rtype == WALRecordType.INSERT:
                name = payload["table"].lower()
                self.insert_counts[name] = self.insert_counts.get(name, 0) + 1
            elif rtype == WALRecordType.DELETE:
                self.deleted.add((payload["table"].lower(), payload["oid"]))
            elif rtype == WALRecordType.ANN_ADD:
                self.ann_adds += 1
        self.ops += ops


class TransactionManager:
    """Allocates transaction ids, runs the commit/abort protocol and the
    commit loop every mutating statement goes through."""

    def __init__(self, db):
        self.db = db
        self._id_lock = threading.Lock()
        self._next_txn_id = 0
        #: txn_id -> Transaction, while active.
        self.active: dict[int, Transaction] = {}

    def begin(self) -> Transaction:
        with self._id_lock:
            self._next_txn_id += 1
            txn = Transaction(self._next_txn_id)
            self.active[txn.txn_id] = txn
        self.db.metrics.inc("txn.begins")
        return txn

    def _retire(self, txn: Transaction, status: str) -> None:
        txn.status = status
        with self._id_lock:
            self.active.pop(txn.txn_id, None)

    def abort(self, txn: Transaction) -> None:
        """Discard every buffered op.  Nothing was applied and nothing was
        logged, so there is nothing to undo — the whole point of buffered
        redo."""
        self._retire(txn, "aborted")
        self.db.metrics.inc("txn.aborts")

    def commit(self, txn: Transaction) -> None:
        """Log, apply and sync the buffered group through
        :meth:`run_group`, framed by the transaction's id."""
        db = self.db
        if not txn.ops:
            # Empty transactions commit without touching the log.
            self._retire(txn, "committed")
            db.metrics.inc("txn.commits")
            db.metrics.inc("txn.empty_commits")
            return
        try:
            self.run_group(txn.ops, txn.txn_id)
        except BaseException:
            # run_group stopped the database: an aborted commit.
            self._retire(txn, "aborted")
            db.metrics.inc("txn.commit_failures")
            raise
        self._retire(txn, "committed")
        db.metrics.inc("txn.commits")
        db.metrics.inc("txn.ops_committed", len(txn.ops))

    def run_group(self, ops: list[tuple[int, dict]], txn_id: int = 0) -> list:
        """The commit loop: append each op's record (when logging), then
        apply it alone through :func:`~repro.wal.recovery.apply_records`.

        Runs inside one WAL statement scope, so it holds the commit mutex
        (the WAL is one serial stream and a group lands contiguously) and
        syncs once at the end.  ``txn_id`` 0 is an autocommit statement:
        no ``TXN_BEGIN``/``TXN_COMMIT`` framing.  A failed append or apply
        stops the database (:attr:`Database.failure`) and the scope cuts
        the group's records from the log.  An empty group touches
        nothing, the log included.  Returns the annotations the ops
        created.
        """
        if not ops:
            return []
        db = self.db
        created = []
        with db._wal_statement() as log:
            framed = log and txn_id != 0
            try:
                if framed:
                    db._wal_append(WALRecordType.TXN_BEGIN,
                                   {"ops": len(ops)}, txn_id=txn_id)
                for rtype, payload in ops:
                    if log:
                        # Record first, then apply: every page the op
                        # dirties carries an LSN at or below this record's
                        # frame, so a forced mid-group flush still writes
                        # the log ahead of the data.
                        db._wal_append(rtype, payload, txn_id=txn_id)
                    created += apply_records(
                        db, [WALRecord(0, rtype, 0, payload, txn_id)]
                    )
                if framed:
                    db._wal_append(WALRecordType.TXN_COMMIT,
                                   {"ops": len(ops)}, txn_id=txn_id)
            except BaseException as exc:
                # Applied in part, cut from the log: stop, as a failed sync.
                db.failure = exc
                raise
            # _wal_statement's exit syncs: the commit point.
        return created
