"""Sequential scans read OIDs from the table's slot -> OID map.

``Table`` turns its OID index around into a per-page slot -> OID map the
first time it is scanned after a row write, stamps it with the
``data_version`` read *before* the index walk, and reuses it until a writer
moves the version again — writers move it *after* their OID-index change.
These tests pin that contract down: a scan overlapping a write (driven
deterministically from hooks) never leaves a stale map behind; relocated
rows keep their OIDs and their Summary-BTree backward pointers; the map is
never pickled; and a live record with no OID-index entry is a typed error,
never a bare ``KeyError``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.catalog.schema import Column
from repro.catalog.table import unpack_rid
from repro.core.database import Database
from repro.errors import IndexError_, ReproError
from repro.storage.record import ValueType
from repro.workload.generator import WorkloadConfig, build_database

#: Pads rows so the table spans several heap pages.
PAD = "p" * 600


@pytest.fixture()
def db():
    database = Database(buffer_pages=32)
    database.create_table(
        "t", [Column("name", ValueType.TEXT), Column("v", ValueType.INT)]
    )
    for i in range(30):
        database.insert("t", [f"r{i}-{PAD}", i])
    return database


def _oids(table) -> list[int]:
    return [oid for oid, _ in table.scan()]


def _count_walks(monkeypatch, table) -> list[int]:
    """Count full walks of ``table``'s OID index."""
    walks = []
    real = table.oid_index.items

    def items():
        walks.append(1)
        return real()

    monkeypatch.setattr(table.oid_index, "items", items)
    return walks


def test_scans_reuse_the_map_until_a_row_write(db, monkeypatch):
    table = db.catalog.table("t")
    assert len(table.heap.page_ids) > 1
    walks = _count_walks(monkeypatch, table)
    first = _oids(table)
    assert first == list(range(1, 31))
    assert len(db.sql("Select name From t").rows) == 30
    assert sum(1 for _ in table.scan_batches(7)) == 5
    assert len(walks) == 1  # one walk served all three scans
    oid = db.insert("t", ["late", 99])
    assert _oids(table) == first + [oid]
    assert len(walks) == 2
    db.delete_tuple("t", 3)
    assert 3 not in _oids(table)
    assert len(walks) == 3


def test_map_is_process_state_not_pickled(db):
    table = db.catalog.table("t")
    expected = _oids(table)
    assert table._oid_map is not None
    assert "_oid_map" not in table.__getstate__()
    clone = pickle.loads(pickle.dumps(table))
    assert clone._oid_map is None
    assert _oids(clone) == expected


def test_scan_inside_a_write_before_its_index_insert(db, monkeypatch):
    """A scan that runs after an insert's heap write but before its
    OID-index insert builds a map without the new row; the insert must
    still leave that map stale (the version moves after the index
    change), so the next scan sees the row."""
    table = db.catalog.table("t")
    _oids(table)
    real_insert = table.oid_index.insert
    seen = []

    def insert(key, value):
        # Partial scan: the first row only, far from the new record on
        # the last page.
        seen.append(next(table.scan())[0])
        return real_insert(key, value)

    monkeypatch.setattr(table.oid_index, "insert", insert)
    oid = table.insert(["late", 99])
    monkeypatch.undo()
    assert seen == [1]
    assert _oids(table)[-1] == oid


def test_write_completing_during_the_index_walk(db, monkeypatch):
    """A whole insert lands while a scan walks the OID index. The walk
    missed the row, so the map must be stamped with the version read
    before the walk — stamping the version read after it would make the
    next scan trust a map without the new row."""
    table = db.catalog.table("t")
    real_items = table.oid_index.items
    inserted = []

    def items():
        entries = list(real_items())
        if not inserted:
            inserted.append(table.insert(["late", 99]))
        return iter(entries)

    monkeypatch.setattr(table.oid_index, "items", items)
    assert next(table.scan())[0] == 1
    assert _oids(table) == list(range(1, 31)) + inserted


def test_relocated_rows_keep_their_oids_and_backward_pointers():
    database = build_database(WorkloadConfig(
        num_birds=12, annotations_per_tuple=3, cell_fraction=0.0, seed=6,
        indexes="summary_btree",
    ))
    birds = database.catalog.table("birds")
    before = {oid: values for oid, values in birds.scan()}
    moved = {}
    for oid in sorted(before):
        rid = birds.disk_tuple_loc(oid)
        name = f"{oid}-" + "n" * 3000
        database.sql(
            f"Update birds Set common_name = '{name}' Where oid = {oid}"
        )
        if birds.disk_tuple_loc(oid) != rid:
            moved[oid] = name
    assert moved  # grown records no longer fit their pages
    result = database.sql("Select oid, common_name From birds")
    got = dict(zip(result.column("oid"), result.column("common_name")))
    assert set(got) == set(before)
    for oid, name in moved.items():
        assert got[oid] == name
    report = database.check_integrity()
    assert report.ok, str(report)


def _tamper(table):
    """Drop the OID-index entry of the table's lowest OID, leaving the
    record itself live on its heap page; returns the record's RID."""
    key, value = next(iter(table.oid_index.items()))
    table.oid_index.delete(key, value)
    return unpack_rid(value)


def test_unindexed_heap_record_is_a_typed_error(tmp_path):
    database = build_database(WorkloadConfig(
        num_birds=12, annotations_per_tuple=5, cell_fraction=0.0, seed=6,
        indexes="summary_btree",
    ))
    path = tmp_path / "db.img"
    database.save(path)
    database = Database.load(path)
    birds = database.catalog.table("birds")
    assert birds._oid_map is None  # the next scan walks the tampered index
    rid = _tamper(birds)
    with pytest.raises(IndexError_) as exc_info:
        database.sql("Select common_name From birds r")
    assert isinstance(exc_info.value, ReproError)
    assert "birds" in str(exc_info.value) and str(rid) in str(exc_info.value)
    report = database.check_integrity()
    kinds = {v.kind for v in report.violations}
    assert "unindexed-record" in kinds
    assert not kinds & {"check-crashed", "check-aborted"}, str(report)

    storage = database.manager.storage_for("birds")
    _tamper(storage)
    with pytest.raises(IndexError_, match="summary storage birds"):
        list(storage.scan())
