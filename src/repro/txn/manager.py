"""Transactions over the redo-only WAL: buffered-redo commit.

An explicit transaction (``BEGIN`` … ``COMMIT``/``ABORT``) buffers its
writes as *redo records* instead of applying them: each DML statement
plans and evaluates against the committed state it can see (strict
two-phase table locks keep that state stable underneath it), then pushes
``(record_type, payload)`` onto the transaction — the exact payloads the
WAL would carry.  Nothing touches the heap, the indexes, the summary
structures, or the buffer pool until commit, which is what makes abort
trivial and makes the headline durability claim structural: **an aborted
transaction's pages cannot hit disk because an aborted transaction never
has pages.**

Commit serializes on the engine's commit mutex and then, inside one WAL
statement scope::

    TXN_BEGIN(txn)                       appended
    for each buffered op:  op record     appended, then applied via
                                         repro.wal.recovery.apply_record
    TXN_COMMIT(txn)                      appended
    sync                                 the durability point

Applying through :func:`~repro.wal.recovery.apply_record` — the same
interpreter crash recovery uses — means a committed transaction's live
effect and its replay-after-crash effect are the same code path.  A crash
anywhere before the final sync leaves a commit group without a durable
``TXN_COMMIT`` frame, which recovery discards wholesale; after the sync
the whole group is durable.  Exactly the committed prefix survives.

Identifier pre-assignment: a transaction's buffered inserts claim OIDs
(and annotation adds claim annotation ids) *at statement time* by
offsetting from the current counter — sound because the transaction
already holds the exclusive table lock (resp. the annotation-resource
lock) and holds it until commit, so no other writer can move the counter
underneath the reservation.
"""

from __future__ import annotations

import threading

from repro.errors import TransactionError
from repro.wal.record import WALRecord, WALRecordType
from repro.wal.recovery import apply_record


class Transaction:
    """One open transaction's buffered state."""

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

    def add_op(self, rtype: int, payload: dict) -> None:
        if self.status != "active":
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status}"
            )
        self.ops.append((rtype, payload))

    def reserve_oid(self, table,  # repro.catalog.table.Table
                    ) -> int:
        """Pre-assign the OID the buffered insert will receive at commit."""
        name = table.name.lower()
        oid = table.next_oid + self.insert_counts.get(name, 0)
        self.insert_counts[name] = self.insert_counts.get(name, 0) + 1
        return oid

    def __len__(self) -> int:
        return len(self.ops)


class TransactionManager:
    """Allocates transaction ids and runs the commit/abort protocol."""

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
        """Apply + log the buffered group, then make it durable.

        Holds the engine's commit mutex: the WAL is one serial stream and
        the group must land contiguously; concurrent committers (and
        autocommit writers, who take the same mutex) queue here after
        their table-lock conflicts have already been resolved.
        """
        db = self.db
        if not txn.ops:
            # Empty transactions commit without touching the log.
            self._retire(txn, "committed")
            db.metrics.inc("txn.commits")
            db.metrics.inc("txn.empty_commits")
            return
        with db._commit_mutex:
            try:
                with db._wal_statement() as log:
                    if log:
                        db._wal_append(
                            WALRecordType.TXN_BEGIN,
                            {"ops": len(txn.ops)}, txn_id=txn.txn_id,
                        )
                    for rtype, payload in txn.ops:
                        if log:
                            # Record first, then apply: every page the op
                            # dirties carries an LSN at or below this
                            # record's frame, so a forced mid-commit flush
                            # still writes the log ahead of the data.
                            db._wal_append(rtype, payload, txn_id=txn.txn_id)
                        apply_record(
                            db, WALRecord(0, rtype, 0, payload, txn.txn_id)
                        )
                    if log:
                        db._wal_append(
                            WALRecordType.TXN_COMMIT,
                            {"ops": len(txn.ops)}, txn_id=txn.txn_id,
                        )
                    # _wal_statement's exit syncs: the commit point.
            except BaseException:
                # A failed apply (engine bug or injected fault) leaves the
                # live state mid-group with no durable commit frame —
                # recovery from the WAL discards the group, which is the
                # only consistent story. Surface it as an aborted commit.
                self._retire(txn, "aborted")
                db.metrics.inc("txn.commit_failures")
                raise
        self._retire(txn, "committed")
        db.metrics.inc("txn.commits")
        db.metrics.inc("txn.ops_committed", len(txn.ops))
