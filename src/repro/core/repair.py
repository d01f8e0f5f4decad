"""Self-healing repair of annotation indexes and derived structures.

The repair contract that makes this possible is a data-layout property the
engine has maintained all along: the **heaps are authoritative** and every
index is *derived* from them —

* a user table's rows live in its heap; the OID index is the only holder
  of OID assignments (so it is pruned/salvaged, not conjured), and every
  secondary index is a pure function of (heap, OID index);
* summary rows are self-describing (each serialized object carries its
  ``tuple_id``), so a SummaryStorage's OID index *is* fully rebuildable;
* the Summary-BTree (keys *and* backward pointers), the baseline
  normalized replica, the trigram keyword index, the normalized snippet
  replicas, and the optimizer statistics are all pure functions of the
  de-normalized summary storage + the annotation store.

:class:`RepairManager` runs the pipeline::

    audit -> salvage pages -> reindex heaps -> clean summary storage
          -> rebuild derived structures -> re-analyze -> audit again

and reports whether the second audit **converged** (came back clean).
A database whose first audit is already clean is returned untouched.

What repair *cannot* restore: records on quarantined (CRC-failing,
non-resident) pages, heap records whose OID mapping was lost, and
annotations that vanished from the store — those are removed and counted,
never guessed at. Crash-consistency is the WAL's job
(:mod:`repro.wal`); repair's job is converging to a *consistent* state
after media corruption, at the cost of the damaged data itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.integrity import IntegrityChecker, IntegrityReport
from repro.errors import ReproError
from repro.storage.page import SlottedPage, stamp_checksum, verify_checksum


@dataclass(frozen=True)
class RepairAction:
    """One repair step that was actually taken."""

    #: Which structure ("page 12", "table birds", "summary index …").
    location: str
    #: Action class ("heal-page", "quarantine-page", "reindex",
    #: "rebuild", "drop-orphan-row", "strip-dangling-elements", …).
    action: str
    #: Human-readable specifics.
    detail: str

    def __str__(self) -> str:
        return f"[{self.location}] {self.action}: {self.detail}"


@dataclass
class RepairReport:
    """Outcome of one :meth:`RepairManager.run`."""

    before: IntegrityReport
    after: IntegrityReport | None = None
    actions: list[RepairAction] = field(default_factory=list)
    healed_pages: list[int] = field(default_factory=list)
    quarantined_pages: list[int] = field(default_factory=list)
    #: OID-index entries dropped because their record is gone/undecodable.
    pruned_entries: int = 0
    #: heap records removed (unmapped, undecodable, duplicate, orphaned).
    salvaged_records: int = 0
    #: derived structures rebuilt from scratch.
    structures_rebuilt: int = 0

    @property
    def converged(self) -> bool:
        """True when the closing audit (or, for a database that needed no
        repair, the opening one) found zero violations."""
        return self.after.ok if self.after is not None else self.before.ok

    @property
    def clean_before(self) -> bool:
        return self.before.ok

    def __str__(self) -> str:
        if self.clean_before:
            return "repair: nothing to do (database is clean)"
        status = "converged" if self.converged else "NOT converged"
        lines = [
            f"repair: {status} — {len(self.before.violations)} violation(s) "
            f"before, "
            f"{len(self.after.violations) if self.after else 0} after; "
            f"{len(self.healed_pages)} page(s) healed, "
            f"{len(self.quarantined_pages)} quarantined, "
            f"{self.pruned_entries} index entries pruned, "
            f"{self.salvaged_records} records salvaged, "
            f"{self.structures_rebuilt} structures rebuilt"
        ]
        lines.extend(str(a) for a in self.actions)
        if self.after is not None and not self.after.ok:
            lines.append("-- remaining violations --")
            lines.extend(str(v) for v in self.after.violations)
        return "\n".join(lines)


class RepairManager:
    """Runs the salvage-and-rebuild pipeline against one live Database."""

    def __init__(self, db):
        self.db = db

    def run(self) -> RepairReport:
        report = RepairReport(before=IntegrityChecker(self.db).run())
        if report.before.ok:
            return report
        self._salvage_pages(report)
        self._reindex_tables(report)
        self._repair_storages(report)
        self._rebuild_derived(report)
        self._refresh_statistics(report)
        # Repair rewrites storage rows directly (and may quarantine the
        # pages under them): stale every cached summary set.
        self.db.manager.cache.bump_all("repair")
        report.after = IntegrityChecker(self.db).run()
        health = getattr(self.db, "health", None)
        if health is not None and report.converged:
            # Every derived structure was just rebuilt from the
            # authoritative heaps and the closing audit came back clean:
            # un-quarantine everything so the planner stops degrading.
            health.restore_all()
        return report

    # -- phase 1: physical salvage -------------------------------------------

    def _salvage_pages(self, report: RepairReport) -> None:
        """Heal or quarantine every checksum-failing heap page.

        A page whose on-disk image fails its CRC but which is still
        resident in the pool is *healed*: the in-memory frame is the last
        good copy, so it is written back (through the pool when dirty, so
        log-before-data still holds). A non-resident corrupt page has no
        good copy anywhere — it is *quarantined*: replaced by a fresh
        empty slotted page, and its records are gone (the reindex phase
        prunes every pointer that led into it).
        """
        pool, disk = self.db.pool, self.db.disk
        guard = getattr(pool, "guard", None)
        for page_id in sorted(pool.protected_pages):
            if guard is None:
                data = disk.read_page(page_id)
            else:
                # Retried like any pool read: a transient device error
                # during salvage must not quarantine a healthy page.
                data = guard.read_page(disk, page_id)
            if not any(data) or verify_checksum(data):
                continue
            frame = pool._frames.get(page_id)
            if frame is not None:
                if frame.dirty:
                    pool.flush_page(page_id)
                else:
                    stamp_checksum(frame.data)
                    if guard is None:
                        disk.write_page(page_id, frame.data)
                    else:
                        guard.write_page(disk, page_id, frame.data)
                report.healed_pages.append(page_id)
                report.actions.append(RepairAction(
                    f"page {page_id}", "heal-page",
                    "rewrote corrupt on-disk image from the resident frame",
                ))
            else:
                fresh = SlottedPage(page_size=disk.page_size)
                stamp_checksum(fresh.data)
                if guard is None:
                    disk.write_page(page_id, fresh.data)
                else:
                    guard.write_page(disk, page_id, fresh.data)
                report.quarantined_pages.append(page_id)
                report.actions.append(RepairAction(
                    f"page {page_id}", "quarantine-page",
                    "no clean copy exists; replaced with an empty page "
                    "(its records are lost)",
                ))

    # -- phase 2: heap + OID-index pairs ---------------------------------------

    def _reindex_tables(self, report: RepairReport) -> None:
        tables = [(f"table {name}", table)
                  for name, table in self.db.catalog._tables.items()]
        tables.append(("annotation store", self.db.manager.annotations._table))
        # Reindexing can prune or salvage annotation rows underneath the
        # store's raw-text cache.
        self.db.manager.annotations.invalidate_texts()
        for location, table in tables:
            stats = table.reindex()
            report.pruned_entries += stats["pruned"]
            report.salvaged_records += stats["salvaged"]
            report.structures_rebuilt += 1
            if stats["pruned"] or stats["salvaged"]:
                report.actions.append(RepairAction(
                    location, "reindex",
                    f"kept {stats['kept']} rows, pruned {stats['pruned']} "
                    f"index entries, salvaged {stats['salvaged']} records",
                ))

    # -- phase 3: summary storage ------------------------------------------------

    def _repair_storages(self, report: RepairReport) -> None:
        """Make every SummaryStorage internally consistent and consistent
        with its data table and the annotation store: rebuild the OID
        index from the self-describing rows, drop orphan rows (their data
        tuple is gone), and strip Elements[][] references to annotations
        that no longer exist."""
        manager = self.db.manager
        known_anns = {ann.ann_id for ann in manager.annotations.scan()}
        for table_name, storage in manager._storages.items():
            location = f"summary storage {table_name}"
            stats = storage.rebuild_oid_index()
            report.salvaged_records += stats["salvaged"]
            report.structures_rebuilt += 1
            if stats["salvaged"]:
                report.actions.append(RepairAction(
                    location, "rebuild-oid-index",
                    f"kept {stats['kept']} rows, salvaged "
                    f"{stats['salvaged']}",
                ))
            table_oids = None
            if self.db.catalog.has_table(table_name):
                table = self.db.catalog.table(table_name)
                table_oids = {oid for oid, _ in table.scan()}
            orphans = 0
            stripped = 0
            for oid, objects in list(storage.scan()):
                if table_oids is not None and oid not in table_oids:
                    storage.delete(oid)
                    for name in objects:
                        manager._clusterers.pop((table_name, oid, name), None)
                    orphans += 1
                    continue
                changed = False
                for obj in objects.values():
                    missing = obj.all_annotation_ids() - known_anns
                    if missing:
                        obj.remove_annotations(missing)
                        stripped += len(missing)
                        changed = True
                if changed:
                    storage.put(oid, objects)
            report.salvaged_records += orphans
            if orphans:
                report.actions.append(RepairAction(
                    location, "drop-orphan-rows",
                    f"removed {orphans} summary row(s) whose data tuple "
                    "is gone",
                ))
            if stripped:
                report.actions.append(RepairAction(
                    location, "strip-dangling-elements",
                    f"removed {stripped} reference(s) to missing "
                    "annotations",
                ))

    # -- phase 4: derived structures ---------------------------------------------

    def _rebuild_derived(self, report: RepairReport) -> None:
        db = self.db
        jobs = [
            (f"summary index {t}.{i}", idx, lambda idx=idx: idx.rebuild())
            for (t, i), idx in db.summary_indexes.items()
        ]
        jobs += [
            (f"baseline index {t}.{i}", idx,
             lambda idx=idx, t=t: idx.rebuild(db.manager.storage_for(t)))
            for (t, i), idx in db.baseline_indexes.items()
        ]
        jobs += [
            (f"keyword index {t}.{i}", idx,
             lambda idx=idx, t=t: idx.rebuild(db.manager.storage_for(t)))
            for (t, i), idx in db.keyword_indexes.items()
        ]
        jobs += [
            (f"replica {t}.{i}", idx,
             lambda idx=idx, t=t: idx.rebuild(db.manager.storage_for(t)))
            for (t, i), idx in db.normalized_replicas.items()
        ]
        for location, _index, rebuild in jobs:
            entries = rebuild()
            report.structures_rebuilt += 1
            report.actions.append(RepairAction(
                location, "rebuild",
                f"re-derived from summary storage ({entries} entries)",
            ))

    # -- phase 5: statistics -------------------------------------------------------

    def _refresh_statistics(self, report: RepairReport) -> None:
        for name in self.db.catalog.table_names():
            try:
                self.db.statistics.analyze(name)
            except ReproError:
                self.db.statistics.mark_stale(name)
