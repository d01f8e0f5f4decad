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
  advances over every *parsed* frame, including those of an open group.
* ``ack_lsn`` — the **committed-prefix** watermark: the end of the last
  committed record applied.  This is the value acked to the primary
  (pinning log retention) and the resume point after any link failure:
  re-fetching from ``ack_lsn`` can only re-deliver records that were
  never applied, so resume is idempotent by construction — never a
  double apply.

The records go through :func:`~repro.wal.recovery.commit_groups`, the
rule recovery uses: autocommit records apply as they come, a commit
group applies whole at its ``TXN_COMMIT``, and any other record, a new
``TXN_BEGIN`` included, abandons the open group — the streaming image of
recovery's crash-mid-commit discard.  The group still open at the end of
a feed is the only state carried to the next; txn ids may repeat after
a primary restart, and the rule never needs them to be unique.

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

from repro.wal.record import scan_records
from repro.wal.recovery import RecoveryReport, apply_committed, commit_groups


@dataclass
class ApplyResult:
    """Outcome of one :meth:`WALApplier.feed` call."""

    #: complete frames parsed (applied, held open or dropped).
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
        #: the commit group left open by the last feed.
        self._group = None
        self._cond = threading.Condition()
        #: lifetime counts over every feed, kept as recovery keeps them.
        self.report = RecoveryReport(checkpoint_lsn=start_lsn,
                                     start_lsn=start_lsn, end_lsn=start_lsn)
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
        """Apply the committed records of one feed; returns how many.

        The ack moves to the *physical* end of the last one (the next
        record's LSN, or ``end_lsn``): re-encoding a decoded payload is
        not byte-stable, so ``WALRecord.end_lsn`` must never feed it.
        """
        report = self.report
        # Defensive: an overlap below the applied prefix is skipped.
        live = [rec for rec in records if rec.lsn >= self.ack_lsn]
        report.scanned += len(records)
        report.skipped += len(records) - len(live)
        committed, self._group = commit_groups(live, self._group, report)
        if not committed:
            return 0
        last = records.index(committed[-1])
        ack = records[last + 1].lsn if last + 1 < len(records) else end_lsn
        before = report.replayed + report.failed
        apply_committed(self.db, committed, report, ack)
        applied = report.replayed + report.failed - before
        report.end_lsn = ack
        # Drain-on-apply: replayed annotation writes marked their tuples
        # stale; fold the regeneration in now so replica reads serve
        # fully maintained summaries at every ack point.
        self.db.manager.drain_pending()
        with self._cond:
            self.ack_lsn = ack
            self.last_advance = time.monotonic()
            self._cond.notify_all()
        metrics = getattr(self.db, "metrics", None)
        if metrics is not None:
            metrics.inc("repl.records_applied", applied)
            metrics.set_gauge("repl.applied_lsn", ack)
        return applied

    # -- resume / re-bootstrap ----------------------------------------------

    def reset_to_ack(self) -> None:
        """Link failure: drop the open group and rewind the fetch point
        to the applied prefix. The re-fetched overlap contains only
        records that were never applied."""
        self._group = None
        self.fetch_lsn = self.ack_lsn

    def reset(self, lsn: int) -> None:
        """Re-bootstrap: both watermarks jump to a fresh snapshot's LSN."""
        self._group = None
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
