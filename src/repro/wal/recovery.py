"""Crash recovery: replay the WAL tail onto a checkpoint image.

Recovery is redo-only and logical: each record re-invokes the same engine
operation that produced it, with the identifiers the original execution
assigned (OIDs, annotation ids) forced so the replayed state is
byte-for-byte the state the crashed engine had acknowledged.

The idempotency rule is LSN-based: records below
``max(checkpoint_lsn, applied_lsn)`` were already folded into the image
(or into a previous replay of this same process) and are skipped, so
running recovery twice over the same log is a no-op. A record whose
re-application raises an engine error is counted and skipped — that
happens only for records of statements that *failed* after being framed
(the original execution raised too, so skipping reproduces it).

**Transactions.** Records with ``txn_id == 0`` are autocommit: one
statement, synced at its own boundary, replayed unconditionally (a torn
tail cuts un-acked statements). Records with a non-zero ``txn_id`` belong
to an explicit BEGIN…COMMIT group appended at commit time
(buffered redo — see ``repro.txn``); they are buffered during the scan
and applied **only when the group's ``TXN_COMMIT`` frame is durable**.
A group the tail cut before its commit frame — the classic
crash-mid-commit — is discarded wholesale: the client was never told the
transaction committed, so recovery must not resurrect any prefix of it.
Aborted transactions never log at all.

The torn tail — trailing bytes that do not form a CRC-valid,
correctly-positioned frame — is truncated from the device, never
replayed: a partially synced frame is the clean end of the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.wal.record import WALRecord, WALRecordType, scan_records


@dataclass
class RecoveryReport:
    """Outcome of one replay pass."""

    checkpoint_lsn: int
    start_lsn: int      #: records below this were skipped as already applied
    end_lsn: int        #: log offset one past the last valid frame
    scanned: int = 0
    replayed: int = 0
    skipped: int = 0
    #: records whose re-application raised (originally-failed statements).
    failed: int = 0
    #: torn-tail bytes truncated from the device.
    torn_bytes: int = 0
    #: explicit transactions whose commit frame was durable (replayed).
    committed_txns: int = 0
    #: records of explicit transactions missing their commit frame —
    #: discarded, never applied (crash-mid-commit groups).
    discarded_txn_records: int = 0
    #: txn ids of the discarded (uncommitted) groups.
    uncommitted_txns: list = field(default_factory=list)

    def __str__(self) -> str:
        return (
            f"recovery: {self.replayed} replayed, {self.skipped} skipped, "
            f"{self.failed} failed of {self.scanned} scanned; "
            f"{self.committed_txns} txns committed, "
            f"{self.discarded_txn_records} uncommitted-txn records discarded "
            f"(lsn {self.start_lsn}..{self.end_lsn}, "
            f"torn tail {self.torn_bytes}B)"
        )


def apply_record(db, record: WALRecord) -> None:
    """Re-apply one logical record against a live database.

    DDL goes back through the Database facade (the replay guard keeps it
    from re-logging); DML goes to the owning structure with the original
    identifiers forced.  This is the single redo interpreter: crash
    recovery and buffered-redo commit (``repro.txn.manager``) both apply
    their records through it, so a committed transaction's effect is by
    construction the effect its records replay to.
    """
    rtype, p = record.type, record.payload
    if rtype == WALRecordType.DDL:
        getattr(db, p["method"])(*p["args"], **p["kwargs"])
    elif rtype == WALRecordType.INSERT:
        db.catalog.table(p["table"]).insert(p["values"], oid=p["oid"])
    elif rtype == WALRecordType.DELETE:
        db.manager.on_tuple_delete(p["table"], p["oid"])
        db.catalog.table(p["table"]).delete(p["oid"])
    elif rtype == WALRecordType.UPDATE:
        db.catalog.table(p["table"]).update(p["oid"], p["values"])
    elif rtype == WALRecordType.ANN_ADD:
        db.manager.add_annotation(p["text"], p["targets"], ann_id=p["ann_id"])
    elif rtype == WALRecordType.ANN_BULK:
        db.manager.add_annotations_bulk(p["items"], first_id=p["first_id"])
    elif rtype == WALRecordType.ANN_DEL:
        db.manager.delete_annotation(p["ann_id"])
    elif rtype in (WALRecordType.TXN_BEGIN, WALRecordType.TXN_COMMIT):
        pass  # group framing, no state of their own
    else:  # pragma: no cover - scan_records only yields known types
        raise ReproError(f"unknown WAL record type {rtype}")


def _committed_plan(records: list[WALRecord], start_lsn: int,
                    report: RecoveryReport) -> list[WALRecord]:
    """Order the records to apply: autocommit records as they appear,
    explicit-txn groups at their commit frame's position — and only when
    that commit frame exists.  Handles interleaved groups (commits
    serialize today, but the log format does not promise contiguity)."""
    groups: dict[int, list[WALRecord]] = {}
    plan: list[WALRecord] = []
    for record in records:
        if record.txn_id == 0:
            plan.append(record)
            continue
        if record.type == WALRecordType.TXN_COMMIT:
            report.committed_txns += 1
            plan.extend(groups.pop(record.txn_id, []))
            plan.append(record)
        else:
            groups.setdefault(record.txn_id, []).append(record)
    for txn_id, orphaned in sorted(groups.items()):
        # No durable commit frame: the crash beat the commit sync. Count
        # only records past the replay watermark — the rest were already
        # folded into the image by an earlier checkpoint.
        live = [r for r in orphaned if r.lsn >= start_lsn]
        if live:
            report.uncommitted_txns.append(txn_id)
            report.discarded_txn_records += len(live)
    return plan


def replay(db, device) -> RecoveryReport:
    """Replay the durable tail of ``device`` onto ``db``.

    Truncates any torn tail from the device so future appends extend a
    clean log, and advances ``db._applied_lsn`` past everything replayed.
    """
    start_lsn = max(db.checkpoint_lsn, db._applied_lsn, device.base_lsn)
    scan = scan_records(device.durable(), device.base_lsn)
    report = RecoveryReport(
        checkpoint_lsn=db.checkpoint_lsn,
        start_lsn=start_lsn,
        end_lsn=scan.end_lsn,
        scanned=len(scan.records),
        torn_bytes=scan.torn_bytes,
    )
    plan = _committed_plan(scan.records, start_lsn, report)
    db._wal_replaying = True
    try:
        for record in plan:
            if record.lsn < start_lsn:
                report.skipped += 1
                continue
            try:
                apply_record(db, record)
                report.replayed += 1
            except ReproError:
                report.failed += 1
    finally:
        db._wal_replaying = False
    if scan.torn_bytes:
        device.discard_after(scan.end_lsn)
    db._applied_lsn = max(db._applied_lsn, scan.end_lsn)
    # Replay mutated state through every layer; nothing cached before
    # (or during) recovery may be served after it.
    db.manager.cache.bump_all("recover")
    db.metrics.inc("recovery.runs")
    db.metrics.inc("recovery.records_replayed", report.replayed)
    db.metrics.inc("recovery.records_skipped", report.skipped)
    db.metrics.inc("recovery.records_failed", report.failed)
    db.metrics.inc("recovery.torn_bytes", report.torn_bytes)
    db.metrics.inc("recovery.committed_txns", report.committed_txns)
    db.metrics.inc(
        "recovery.discarded_txn_records", report.discarded_txn_records
    )
    return report
