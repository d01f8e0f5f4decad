"""Whole-database integrity verification.

:class:`IntegrityChecker` walks every persistent structure the engine owns
and validates the invariants that hold between them:

* **Physical** — on-disk CRC32 checksums of every protected slotted page
  (read straight from the disk manager, *not* through the buffer pool, so
  resident clean frames cannot mask on-disk corruption), and slot/free-space
  accounting inside each heap page.
* **Per-structure** — B-Tree invariants for every index (key ordering,
  uniform leaf depth, sibling links, child/separator bounds) via
  :meth:`~repro.btree.tree.BTree.structure_errors`, and record decodability
  against each table's schema.
* **Cross-structure** — OID-index ↔ heap RID bijections, secondary-index
  agreement with table contents, SummaryStorage rows ↔ data tuples,
  summary Elements[][] references ↔ the raw annotation store, and every
  registered :class:`~repro.index.derived.DerivedIndex` (Summary-BTree
  entries with their §4.1 backward pointers, baseline and snippet
  replicas, keyword postings) ↔ what the de-normalized storage derives,
  through the one :meth:`~repro.index.derived.DerivedIndex.verify`.

The result is an :class:`IntegrityReport`: a list of typed
:class:`Violation` records plus counters of what was covered. A clean
database at any scale must produce an empty list; any seeded corruption
(torn write, bit flip, truncated image, dangling pointer) must produce at
least one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.catalog.keys import decode_int, encode_int, encode_key
from repro.catalog.table import Table, unpack_rid
from repro.errors import ReproError
from repro.storage.heapfile import RID, HeapFile
from repro.storage.page import SlottedPage, verify_checksum


@dataclass(frozen=True)
class Violation:
    """One detected integrity violation."""

    #: Which structure ("table birds", "summary index birds.C", …).
    location: str
    #: Violation class ("checksum-mismatch", "index-mismatch", …).
    kind: str
    #: Human-readable specifics.
    detail: str
    #: The derived access path at fault, as its ``(kind, table,
    #: instance)`` registry key; None for authoritative structures.
    path: tuple[str, str, str] | None = None

    def __str__(self) -> str:
        return f"[{self.location}] {self.kind}: {self.detail}"


@dataclass
class IntegrityReport:
    """Outcome of one :meth:`IntegrityChecker.run`."""

    violations: list[Violation] = field(default_factory=list)
    pages_checked: int = 0
    heaps_checked: int = 0
    btrees_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [
            f"integrity: {status} "
            f"({self.pages_checked} checksummed pages, "
            f"{self.heaps_checked} heaps, {self.btrees_checked} B-Trees)"
        ]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)

    def unhealthy_paths(self) -> list[tuple[str, str, str]]:
        """Derived access paths named by violations, as
        ``(kind, table, instance)`` health-registry keys.

        Violations against heaps, tables, or the annotation store are not
        access paths and are excluded — the planner cannot route around
        the authoritative data.
        """
        return sorted({v.path for v in self.violations if v.path})


class IntegrityChecker:
    """Runs every integrity check against one live Database."""

    def __init__(self, db):
        self.db = db
        self.report = IntegrityReport()

    def _flag(self, location: str, kind: str, detail: str) -> None:
        self.report.violations.append(Violation(location, kind, detail))

    def _guard(self, location: str, check, *args) -> None:
        """Run one check section; a crash inside it becomes a violation
        rather than aborting the whole audit (a checker that dies on the
        first corrupt structure would hide every other problem)."""
        try:
            check(*args)
        except ReproError as exc:
            self._flag(location, "check-aborted", f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # pragma: no cover - defensive
            self._flag(location, "check-crashed", f"{type(exc).__name__}: {exc}")

    # -- physical layer ------------------------------------------------------

    def _check_disk_checksums(self) -> None:
        """Verify the on-disk CRC of every checksum-protected page.

        Reads go straight to the disk manager: the buffer pool may hold a
        clean in-memory copy of a page whose on-disk image has rotted, and
        a pool read would serve the frame and mask the corruption. Pages
        that are still all zeroes on disk were never written back and carry
        no checksum yet.
        """
        guard = self.db.pool.guard
        for page_id in sorted(self.db.pool.protected_pages):
            # Retried like any pool read: a transient device error must
            # not masquerade as corruption during an audit.
            data = guard.read_page(self.db.disk, page_id)
            self.report.pages_checked += 1
            if not any(data):
                continue
            if not verify_checksum(data):
                self._flag(
                    f"page {page_id}", "checksum-mismatch",
                    "stored CRC32 does not match on-disk contents",
                )

    def _check_heap(self, heap: HeapFile, location: str) -> None:
        """Slot/free-space accounting of every page + record count."""
        self.report.heaps_checked += 1
        live = 0
        for page_no in range(len(heap.page_ids)):
            page = SlottedPage(
                self.db.pool.get_page(heap.page_ids[page_no]),
                page_size=self.db.pool.disk.page_size,
            )
            for problem in page.check():
                self._flag(f"{location} page {page_no}", "page-accounting", problem)
            live += page.live_count()
        if live != len(heap):
            self._flag(
                location, "count-mismatch",
                f"pages hold {live} live records, heap counter says {len(heap)}",
            )

    def _check_btree(self, tree, location: str) -> None:
        self.report.btrees_checked += 1
        for problem in tree.structure_errors(location):
            self._flag(location, "btree-structure", problem)

    # -- heap + OID-index pairs ---------------------------------------------

    def _check_heap_index_pair(
        self, heap: HeapFile, oid_index, location: str, decode=None
    ) -> dict[int, RID]:
        """Common audit for the (heap, unique OID B-Tree) pairs used by
        tables and summary storages: structures are sound, the index maps
        OIDs onto exactly the heap's live RIDs, and every record decodes.

        Returns the oid -> RID mapping for callers' cross-structure checks.
        """
        self._check_heap(heap, location)
        self._check_btree(oid_index, f"{location} oid-index")
        indexed: dict[int, RID] = {}
        for key, value in oid_index.items():
            oid = decode_int(key)
            rid = unpack_rid(value)
            if oid in indexed:
                self._flag(
                    location, "duplicate-oid",
                    f"OID {oid} appears twice in the OID index",
                )
            indexed[oid] = rid
        heap_rids = set()
        for rid, record in heap.scan():
            heap_rids.add(rid)
            if decode is not None:
                try:
                    decode(record)
                except ReproError as exc:
                    self._flag(
                        location, "record-decode",
                        f"record at {rid} does not decode: {exc}",
                    )
        index_rids = set(indexed.values())
        for rid in sorted(index_rids - heap_rids):
            self._flag(
                location, "dangling-rid",
                f"OID index points at {rid} which holds no live record",
            )
        for rid in sorted(heap_rids - index_rids):
            self._flag(
                location, "unindexed-record",
                f"live record at {rid} has no OID-index entry",
            )
        return indexed

    # -- tables --------------------------------------------------------------

    def _check_table(self, table: Table, location: str) -> None:
        def decode(record: bytes) -> None:
            values = table._codec.decode(record)
            table.schema.validate_row(values)

        indexed = self._check_heap_index_pair(
            table.heap, table.oid_index, location, decode
        )
        if indexed and max(indexed) >= table._next_oid:
            self._flag(
                location, "oid-counter",
                f"max OID {max(indexed)} >= next_oid {table._next_oid}: "
                "future inserts would collide",
            )
        # Rows keyed through the OID index itself, never the table's
        # cached slot -> OID map: the audit trusts no derived state.
        oid_at = {rid: oid for oid, rid in indexed.items()}
        rows = {
            oid_at[rid]: table._codec.decode(record)
            for rid, record in table.heap.scan()
            if rid in oid_at
        }
        for column, index in table.secondary_indexes.items():
            loc = f"{location} index({column})"
            self._check_btree(index, loc)
            ctype = table.schema.column(column).type
            pos = table.schema.index_of(column)
            expected = {
                (encode_key(values[pos], ctype), encode_int(oid))
                for oid, values in rows.items()
            }
            actual = set(index.items())
            for key, value in sorted(expected - actual):
                self._flag(
                    loc, "index-mismatch",
                    f"missing entry for OID {decode_int(value)}",
                )
            for key, value in sorted(actual - expected):
                self._flag(
                    loc, "index-mismatch",
                    f"stale entry for OID {decode_int(value)}",
                )

    # -- summaries -----------------------------------------------------------

    def _known_annotation_ids(self) -> set[int]:
        return {ann.ann_id for ann in self.db.manager.annotations.scan()}

    def _check_summary_storage(self, table_name: str, storage) -> None:
        location = f"summary storage {table_name}"
        self._check_heap_index_pair(
            storage.heap, storage.oid_index, location, storage._decode
        )
        known_anns = self._known_annotation_ids()
        table_oids = None
        if self.db.catalog.has_table(table_name):
            table = self.db.catalog.table(table_name)
            live = {rid for rid, _ in table.heap.scan()}
            table_oids = {
                decode_int(key)
                for key, value in table.oid_index.items()
                if unpack_rid(value) in live
            }
        for oid, objects in storage.scan():
            if table_oids is not None and oid not in table_oids:
                # Annotations on deleted tuples are removed through
                # SummaryManager.on_tuple_delete; a leftover row means a
                # tuple was dropped behind the manager's back.
                self._flag(
                    location, "orphan-summary-row",
                    f"summary row for OID {oid} but no such data tuple",
                )
            for obj in objects.values():
                for ann_id in sorted(obj.stray_annotation_ids(known_anns)):
                    self._flag(
                        location, "dangling-element",
                        f"object {obj.instance_name!r} on OID {oid} references "
                        f"annotation {ann_id} absent from the store or from "
                        "its targets",
                    )

    def _check_derived(self, index) -> None:
        """Every part's own structure, then the entries against what the
        summary storage derives; each violation names ``index.key``."""
        first = len(self.report.violations)
        location = index.location
        for name, part in index.parts().items():
            check = self._check_table if isinstance(part, Table) \
                else self._check_btree
            self._guard(location, check, part, f"{location} {name}")

        def verify() -> None:
            storage = self.db.manager.storage_for(index.table_name)
            for kind, detail in index.verify(storage):
                self._flag(location, kind, detail)

        self._guard(location, verify)
        violations = self.report.violations
        violations[first:] = [
            replace(v, path=index.key) for v in violations[first:]
        ]

    # -- entry point ---------------------------------------------------------

    def run(self) -> IntegrityReport:
        db = self.db
        self._guard("disk", self._check_disk_checksums)
        for name, table in db.catalog._tables.items():
            self._guard(f"table {name}", self._check_table, table, f"table {name}")
        self._guard(
            "annotation store", self._check_table,
            db.manager.annotations._table, "annotation store",
        )
        for table_name, storage in db.manager._storages.items():
            self._guard(
                f"summary storage {table_name}",
                self._check_summary_storage, table_name, storage,
            )
        for index in db.derived.values():
            self._check_derived(index)
        return self.report
