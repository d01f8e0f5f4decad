"""The replica-side stream applier.

A :class:`WALApplier` consumes raw WAL bytes (fed by the replication
link, or directly by tests) and re-applies them to a local database
through :func:`repro.wal.recovery.apply_records` — the same redo
interpreter crash recovery uses, so a replica's state is by construction
what a recovered primary's would be.  The committed records of one feed
go through it together, so each run of annotation records writes a
touched summary row once.

Two watermarks drive everything:

* ``fetch_lsn`` — the next byte offset to request from the primary.  It
  advances over every *parsed* frame, including records merely buffered.
* ``ack_lsn`` — the **committed-prefix** watermark: every record below it
  has been applied, and no record at or above it has.  This is the value
  acked to the primary (pinning log retention) and the resume point after
  any link failure: re-fetching from ``ack_lsn`` can only re-deliver
  records that were never applied, so resume is idempotent by
  construction — never a double apply.

The gap between the two is an open explicit-transaction group.  Commit
groups are appended contiguously under the primary's commit mutex, so the
applier buffers a group from its ``TXN_BEGIN`` and applies it atomically
at its ``TXN_COMMIT`` — and if any *other* record interrupts the group
(contiguity broken), the group's commit frame can never arrive: it is the
streaming image of recovery's crash-mid-commit discard, and the buffered
records are dropped without applying.

Torn tails are normal: the stream is sliced by a byte budget, so a frame
may arrive split across polls.  Unparseable bytes simply stop the scan;
:meth:`feed` reports zero progress and the link decides whether that is
a short read (re-poll), a frame bigger than the window (grow it), or
divergence (re-bootstrap).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.wal.record import WALRecordType, scan_records
from repro.wal.recovery import RecoveryReport, apply_records


@dataclass
class ApplyResult:
    """Outcome of one :meth:`WALApplier.feed` call."""

    #: complete frames parsed (applied or buffered).
    parsed_records: int
    #: bytes consumed (``fetch_lsn`` advanced by this much).
    parsed_bytes: int
    #: records actually applied to the database this feed.
    applied: int
    #: trailing bytes that did not form a valid frame.
    torn_bytes: int


class WALApplier:
    """Applies a primary's WAL byte stream to a local database."""

    def __init__(self, db, start_lsn: int):
        self.db = db
        #: committed-prefix watermark (ack + resume point).
        self.ack_lsn = start_lsn
        #: next byte offset to request from the primary.
        self.fetch_lsn = start_lsn
        #: records of the currently open explicit-txn group.
        self._group: list = []
        self._group_txn = 0
        self._cond = threading.Condition()
        #: lifetime counters (also mirrored into db.metrics).
        self.records_applied = 0
        self.txns_applied = 0
        self.groups_abandoned = 0
        self.orphan_records = 0
        self.failed_records = 0
        #: monotonic timestamp of the last ack advance (lag clock).
        self.last_advance = time.monotonic()

    # -- feeding -------------------------------------------------------------

    def feed(self, data: bytes) -> ApplyResult:
        """Parse and apply one slice of the stream starting at
        ``fetch_lsn``; returns what happened."""
        start = self.fetch_lsn
        scan = scan_records(data, start)
        applied = self._process(scan.records, scan.end_lsn)
        self.fetch_lsn = scan.end_lsn
        return ApplyResult(
            parsed_records=len(scan.records),
            parsed_bytes=scan.end_lsn - start,
            applied=applied,
            torn_bytes=scan.torn_bytes,
        )

    def _process(self, records, end_lsn: int) -> int:
        """Route records through the commit-group buffer; apply what is
        committed. Returns the number of records applied.

        Frame boundaries come from the scan's *physical* positions (the
        next record's LSN, or ``end_lsn`` for the last): re-encoding a
        decoded payload is not byte-stable, so ``WALRecord.end_lsn``
        must never feed the ack watermark.
        """
        batches: list[tuple[list, int]] = []  # (records, ack_after)
        for i, rec in enumerate(records):
            rec_end = (records[i + 1].lsn if i + 1 < len(records)
                       else end_lsn)
            if rec.lsn < self.ack_lsn:
                continue  # defensive: overlap below the applied prefix
            if self._group:
                if rec.txn_id == self._group_txn:
                    self._group.append(rec)
                    if rec.type == WALRecordType.TXN_COMMIT:
                        batches.append((self._group, rec_end))
                        self._group = []
                        self._group_txn = 0
                    continue
                # Contiguity broken: the group's commit frame can never
                # arrive (groups append atomically under the primary's
                # commit mutex) — the primary crashed mid-commit. Drop
                # the buffered records, exactly like recovery does.
                self.groups_abandoned += 1
                self._group = []
                self._group_txn = 0
            if rec.txn_id == 0:
                batches.append(([rec], rec_end))
            elif rec.type == WALRecordType.TXN_BEGIN:
                self._group = [rec]
                self._group_txn = rec.txn_id
            else:
                # A txn record with no open group: its BEGIN sits below
                # our start point, so the group was already folded into
                # the bootstrap snapshot (or discarded). Never apply a
                # partial group.
                self.orphan_records += 1
        if not batches:
            return 0
        return self._apply_batches(batches)

    def _apply_batches(self, batches) -> int:
        db = self.db
        ack = batches[-1][1]
        report = RecoveryReport(checkpoint_lsn=self.ack_lsn,
                                start_lsn=self.ack_lsn, end_lsn=ack)
        with db._commit_mutex:
            db._wal_replaying = True
            try:
                # Records of originally-failed statements are counted and
                # skipped, as recovery does.
                apply_records(
                    db, [rec for records, _ in batches for rec in records],
                    report,
                )
            finally:
                db._wal_replaying = False
            db._applied_lsn = max(db._applied_lsn, ack)
        applied = report.replayed + report.failed
        self.failed_records += report.failed
        self.txns_applied += sum(
            records[0].txn_id != 0 for records, _ in batches
        )
        # Drain-on-apply: replayed annotation writes marked their tuples
        # stale; fold the regeneration in now so replica reads serve
        # fully maintained summaries at every ack point.
        db.manager.drain_pending()
        self.records_applied += applied
        with self._cond:
            self.ack_lsn = ack
            self.last_advance = time.monotonic()
            self._cond.notify_all()
        metrics = getattr(db, "metrics", None)
        if metrics is not None:
            metrics.inc("repl.records_applied", applied)
            metrics.set_gauge("repl.applied_lsn", ack)
        return applied

    # -- resume / re-bootstrap ----------------------------------------------

    def reset_to_ack(self) -> None:
        """Link failure: drop any buffered group and rewind the fetch
        point to the applied prefix. The re-fetched overlap contains only
        records that were never applied."""
        self._group = []
        self._group_txn = 0
        self.fetch_lsn = self.ack_lsn

    def reset(self, lsn: int) -> None:
        """Re-bootstrap: both watermarks jump to a fresh snapshot's LSN."""
        self._group = []
        self._group_txn = 0
        with self._cond:
            self.ack_lsn = lsn
            self.fetch_lsn = lsn
            self.last_advance = time.monotonic()
            self._cond.notify_all()

    # -- bounded-staleness waits ---------------------------------------------

    def wait_for_lsn(self, lsn: int, timeout: float = 0.0) -> int:
        """Block until the applied prefix reaches ``lsn`` (or the timeout
        passes); returns the applied LSN either way."""
        with self._cond:
            if timeout > 0:
                self._cond.wait_for(
                    lambda: self.ack_lsn >= lsn, timeout=timeout
                )
            return self.ack_lsn
