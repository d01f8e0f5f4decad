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

**Transactions.** One rule, :func:`commit_groups`, decides what is
committed, for recovery and the replica applier alike.  Autocommit
records (``txn_id`` 0) apply as they come; a torn tail cuts un-acked
ones, so a crash before a statement's sync keeps whatever prefix a
forced log flush made durable.  An explicit transaction is logged at
commit as one group (buffered redo — see ``repro.txn``), a
``TXN_BEGIN``, its records and a ``TXN_COMMIT``, appended whole under
the commit mutex, so groups never interleave.  A group applies only
when its commit frame is durable; any other record, a new ``TXN_BEGIN``
included, abandons it (the crash beat the commit sync and the client
was never told it committed), and a transaction record with no group
open is an orphan.  Txn ids restart in every process: the rule ties a
record to its group by adjacency, so an id may repeat in the log.

Replay applies the committed records through :func:`apply_records`, which
writes each touched summary row once per run of annotation records.  The
same function applies every live statement (``repro.txn.manager``'s
commit loop) and every record a replica receives, so it is the only code
that applies DML to tables, annotations and summaries.

The torn tail — trailing bytes that do not form a CRC-valid,
correctly-positioned frame — is truncated from the device, never
replayed: a partially synced frame is the clean end of the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError, WALError
from repro.wal.record import WALRecord, WALRecordType, scan_records


@dataclass
class RecoveryReport:
    """Outcome of one replay pass."""

    checkpoint_lsn: int
    start_lsn: int      #: records below this were skipped as already applied
    end_lsn: int        #: log offset one past the last valid frame
    scanned: int = 0
    replayed: int = 0
    #: scanned records below ``start_lsn`` (already in the image), counted
    #: before the commit rule runs: committed or not.
    skipped: int = 0
    #: records whose re-application raised (originally-failed statements).
    failed: int = 0
    #: torn-tail bytes truncated from the device.
    torn_bytes: int = 0
    #: explicit transactions whose commit frame was durable (replayed).
    committed_txns: int = 0
    #: records of explicit transactions never applied: groups that lost
    #: their commit frame (crash-mid-commit) and orphans.
    discarded_txn_records: int = 0
    #: txn ids of the groups that lost their commit frame, in log order
    #: (an id may repeat: ids restart in every process).
    uncommitted_txns: list = field(default_factory=list)
    #: summary storage rows the replayed records wrote (one per touched
    #: tuple per run of annotation records).
    summary_rows_written: int = 0

    def __str__(self) -> str:
        return (
            f"recovery: {self.replayed} replayed, {self.skipped} skipped, "
            f"{self.failed} failed of {self.scanned} scanned; "
            f"{self.summary_rows_written} summary rows written; "
            f"{self.committed_txns} txns committed, "
            f"{self.discarded_txn_records} uncommitted-txn records discarded "
            f"(lsn {self.start_lsn}..{self.end_lsn}, "
            f"torn tail {self.torn_bytes}B)"
        )


_RUN_TYPES = (WALRecordType.ANN_ADD, WALRecordType.ANN_BULK)
_FRAMING_TYPES = (WALRecordType.TXN_BEGIN, WALRecordType.TXN_COMMIT)


def apply_records(db, records: list[WALRecord],
                  report: RecoveryReport | None = None) -> list:
    """The single redo interpreter and the only code that applies DML:
    crash recovery, the replica applier and the commit loop every
    statement goes through (``repro.txn.manager``) all apply their records
    through it, so a statement's live effect is by construction the effect
    its records replay to.

    Consecutive ``ANN_ADD``/``ANN_BULK`` records form a *run*; commit-group
    framing carries no state and does not end one.  A run creates its raw
    annotations record by record, then writes each touched summary row
    once, in ``ann_id`` order.  Any other record flushes the run and
    applies alone.  With a ``report``, a record whose re-application
    raises a :class:`~repro.errors.ReproError` is counted failed and
    skipped (left out of its run); without one, the error propagates.
    Returns the annotations the runs created.
    """
    rows_before = db.manager.metrics.get("maint.on_objects_write")
    created: list = []
    run: list[WALRecord] = []
    for record in records:
        if record.type in _RUN_TYPES:
            run.append(record)
            continue
        if record.type not in _FRAMING_TYPES:
            created += _apply_run(db, run, report)
            run = []
        try:
            _redo(db, record)
        except ReproError:
            if report is None:
                raise
            report.failed += 1
        else:
            if report is not None:
                report.replayed += 1
    created += _apply_run(db, run, report)
    if report is not None:
        report.summary_rows_written += (
            db.manager.metrics.get("maint.on_objects_write") - rows_before
        )
    return created


def _apply_run(db, run: list[WALRecord],
               report: RecoveryReport | None) -> list:
    if not run:
        return []
    manager = db.manager
    created = []
    applied = 0
    for record in run:
        p = record.payload
        if record.type == WALRecordType.ANN_ADD:
            items = [(p["text"], p["targets"], p["ann_id"])]
        else:
            items = [(text, targets, p["first_id"] + offset)
                     for offset, (text, targets) in enumerate(p["items"])]
        try:
            created += manager.create_annotations(items)
        except ReproError:
            if report is None:
                raise
            report.failed += 1
        else:
            applied += 1
    try:
        manager.attach_annotations(created)
    except ReproError:
        if report is None:
            raise
        report.failed += applied
    else:
        if report is not None:
            report.replayed += applied
    return created


def _redo(db, record: WALRecord) -> None:
    """Re-apply one record that is not part of a run.

    DDL goes back through the Database facade (the replay guard keeps it
    from re-logging), and only for a method in the vetted
    :data:`~repro.core.database.LOGGED_DDL` table; DML goes to the owning
    structure with the original identifiers forced.
    """
    rtype, p = record.type, record.payload
    if rtype == WALRecordType.DDL:
        from repro.core.database import LOGGED_DDL

        if p["method"] not in LOGGED_DDL:
            raise WALError(
                f"DDL record names no logged method: {p['method']!r}"
            )
        getattr(db, p["method"])(*p["args"], **p["kwargs"])
    elif rtype == WALRecordType.INSERT:
        db.catalog.table(p["table"]).insert(p["values"], oid=p["oid"])
    elif rtype == WALRecordType.DELETE:
        db.manager.on_tuple_delete(p["table"], p["oid"])
        db.catalog.table(p["table"]).delete(p["oid"])
    elif rtype == WALRecordType.UPDATE:
        db._apply_update(p["table"], p["oid"], p["values"])
    elif rtype == WALRecordType.ANN_DEL:
        db.manager.delete_annotation(p["ann_id"])
    elif rtype not in _FRAMING_TYPES:  # pragma: no cover - known types
        raise ReproError(f"unknown WAL record type {rtype}")


def commit_groups(records: list[WALRecord], group: list[WALRecord] | None,
                  report: RecoveryReport
                  ) -> tuple[list[WALRecord], list[WALRecord] | None]:
    """The one rule that decides which logged records are committed (see
    the module docstring).  ``group`` is the group the previous call left
    open, or None; returns the committed records in log order and the
    group open after the last record, counting into ``report``.
    """
    committed: list[WALRecord] = []
    for record in records:
        if group is not None:
            if (record.txn_id == group[0].txn_id
                    and record.type != WALRecordType.TXN_BEGIN):
                group.append(record)
                if record.type == WALRecordType.TXN_COMMIT:
                    committed += group
                    report.committed_txns += 1
                    group = None
                continue
            discard_group(group, report)
            group = None
        if record.txn_id == 0:
            committed.append(record)
        elif record.type == WALRecordType.TXN_BEGIN:
            group = [record]
        else:
            report.discarded_txn_records += 1
    return committed, group


def discard_group(group: list[WALRecord], report: RecoveryReport) -> None:
    """Count a group that can no longer commit."""
    report.uncommitted_txns.append(group[0].txn_id)
    report.discarded_txn_records += len(group)


def apply_committed(db, records: list[WALRecord], report: RecoveryReport,
                    applied_lsn: int) -> None:
    """Apply committed records as redo, under the commit mutex and the
    replay guard (nothing re-logs), then raise ``db._applied_lsn`` to
    ``applied_lsn``."""
    with db._commit_mutex:
        db._wal_replaying = True
        try:
            apply_records(db, records, report)
        finally:
            db._wal_replaying = False
        db._applied_lsn = max(db._applied_lsn, applied_lsn)


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
    live = [record for record in scan.records if record.lsn >= start_lsn]
    report.skipped = report.scanned - len(live)
    committed, group = commit_groups(live, None, report)
    if group is not None:  # the crash beat the commit sync
        discard_group(group, report)
    apply_committed(db, committed, report, scan.end_lsn)
    if scan.torn_bytes:
        device.discard_after(scan.end_lsn)
    db.metrics.inc("recovery.runs")
    db.metrics.inc("recovery.records_replayed", report.replayed)
    db.metrics.inc("recovery.records_skipped", report.skipped)
    db.metrics.inc("recovery.records_failed", report.failed)
    db.metrics.inc("recovery.summary_rows_written", report.summary_rows_written)
    db.metrics.inc("recovery.torn_bytes", report.torn_bytes)
    db.metrics.inc("recovery.committed_txns", report.committed_txns)
    db.metrics.inc(
        "recovery.discarded_txn_records", report.discarded_txn_records
    )
    return report
