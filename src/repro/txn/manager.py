"""Transactions over the redo-only WAL: one write loop for every statement.

Every mutating statement, SQL DML and the Python API's writers alike, is
planned into redo ops, ``(record_type, payload)`` — the exact payloads the
WAL carries — by one planner, ``repro.txn.session``, before any of them
applies.  Inside ``BEGIN`` … ``COMMIT``/``ABORT``
the ops are buffered on a :class:`Transaction`: nothing touches the
heap, the indexes, the summary structures, or the buffer pool until
commit, which is what makes abort trivial and makes the headline
durability claim structural: **an aborted transaction's pages cannot hit
disk because an aborted transaction never has pages.**

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
the interpreter crash recovery and the replica applier use makes every
statement's live effect and its replayed effect the same code.  A crash
before the sync leaves a group without a durable ``TXN_COMMIT`` frame,
which recovery discards wholesale: exactly the committed prefix survives.

Identifier pre-assignment: a plan claims OIDs (and annotation ids) by
offsetting from the current counter.  Only a holder of the table's
exclusive lock (resp. the annotation resource's) applies ops that advance
it, and every write takes that lock before it plans: an autocommit
statement holds it from plan to apply, a transaction until commit, so no
other writer can claim the same ids.
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

    def __len__(self) -> int:
        return len(self.ops)


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
            # A failed apply (engine bug or injected fault) leaves the
            # live state mid-group with no durable commit frame, so
            # recovery from the WAL discards the group; with a WAL,
            # run_group has stopped the database until then.  Surface it
            # as an aborted commit.
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
        no ``TXN_BEGIN``/``TXN_COMMIT`` framing, and a failed op replays
        and fails the same way; a logged group that fails stops the
        database (:attr:`Database.failure`).  An empty group touches
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
            except Exception as exc:
                if framed:
                    # The ops applied so far stay visible, but recovery
                    # drops the whole group: stop the database, as a
                    # failed sync does.
                    db.failure = exc
                raise
            # _wal_statement's exit syncs: the commit point.
        return created
