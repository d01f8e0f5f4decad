"""Self-healing repair tests (``Database.repair``).

Three layers, mirroring the integrity suite it closes the loop on:

1. clean databases — repair must be a no-op and say so;
2. every manufactured *logical* corruption class from the integrity
   suite — after ``repair()`` the closing audit must be clean
   (``converged``) and queries must still answer correctly;
3. *physical* page corruption — resident pages are healed with no data
   loss, non-resident pages are quarantined with the damage contained
   (pointers pruned, structures rebuilt, audit clean).

Plus the CLI surface: the ``\\repair`` REPL command and the
``python -m repro repair <image> [out]`` verb with its 0/1/2 exit codes.
"""

from __future__ import annotations

import os

import pytest

from repro.catalog.schema import Column
from repro.core.database import Database
from repro.faults import install_faults, remove_faults
from repro.faults.plan import Fault, FaultKind, FaultPlan
from repro.storage.page import verify_checksum
from repro.storage.record import ValueType
from repro.workload.generator import WorkloadConfig, build_database

#: Same seed-shifting convention as the integrity sweep: the nightly CI
#: matrix (REPRO_FAULT_SEED=0..3) covers disjoint corruption schedules.
FAULT_SEED_BASE = int(os.environ.get("REPRO_FAULT_SEED", "0")) * 100


def workload_db(num_birds=12, apt=5, indexes="summary_btree", seed=6):
    return build_database(WorkloadConfig(
        num_birds=num_birds, annotations_per_tuple=apt,
        indexes=indexes, cell_fraction=0.0, seed=seed,
    ))


def assert_repaired(db, report):
    """The repair converged and left a fully functional database."""
    assert report.converged, str(report)
    audit = db.check_integrity()
    assert audit.ok, str(audit)
    # Queries still run end to end over the repaired structures.
    rows = db.sql("SELECT scientific_name FROM birds").rows
    assert rows  # workload keeps at least one bird through every scenario


class TestCleanNoOp:
    def test_empty_database(self):
        report = Database().repair()
        assert report.clean_before and report.converged
        assert not report.actions
        assert "nothing to do" in str(report)

    def test_clean_workload(self):
        db = workload_db(indexes="both")
        report = db.repair()
        assert report.clean_before and report.converged

    def test_repair_is_idempotent(self):
        db = workload_db()
        db.catalog.table("birds").delete(1)  # bypass the manager
        first = db.repair()
        assert first.converged and not first.clean_before
        second = db.repair()
        assert second.clean_before  # nothing left to fix


class TestLogicalDamage:
    """Each manufactured violation class from the integrity suite must be
    repaired to convergence, not merely detected."""

    def test_orphan_summary_row(self):
        db = workload_db()
        table = db.catalog.table("birds")
        victim = next(oid for oid, _ in table.scan())
        table.delete(victim)  # leaves summary row + backward pointers
        report = db.repair()
        assert_repaired(db, report)
        assert any(a.action == "drop-orphan-rows" for a in report.actions)
        assert db.manager.storage_for("birds").get(victim) is None

    def test_dangling_annotation_reference(self):
        db = workload_db()
        ann = next(iter(db.manager.annotations.scan()))
        db.manager.annotations.delete(ann.ann_id)
        report = db.repair()
        assert_repaired(db, report)
        assert any(
            a.action == "strip-dangling-elements" for a in report.actions
        )

    def test_stale_summary_index_entry(self):
        db = workload_db()
        index = next(iter(db.summary_indexes.values()))
        index.tree.insert(b"bogus:0042", index._pointer_for(1))
        report = db.repair()
        assert_repaired(db, report)
        # The stale key is gone from the rebuilt tree.
        assert not list(index.tree.search(b"bogus:0042"))

    def test_secondary_index_drift(self):
        from repro.catalog.keys import encode_int, encode_key

        db = Database()
        db.create_table("t", [Column("v", ValueType.INT)])
        db.create_index("t", "v")
        oid = db.insert("t", [5])
        db.insert("t", [6])
        index = db.catalog.table("t").secondary_indexes["v"]
        index.delete(encode_key(5, ValueType.INT), encode_int(oid))
        report = db.repair()
        assert report.converged, str(report)
        # The rebuilt index serves the lookup again.
        assert list(db.catalog.table("t").index_lookup("v", 5)) == [oid]

    def test_unindexed_heap_record_is_salvaged(self):
        """A heap record whose OID mapping was lost cannot be re-keyed
        (the OID index is the only holder of assignments): repair removes
        the record and converges rather than guessing."""
        from repro.catalog.keys import encode_int
        from repro.catalog.table import pack_rid

        db = workload_db()
        table = db.catalog.table("birds")
        victim = next(oid for oid, _ in table.scan())
        rid = table.disk_tuple_loc(victim)
        table.oid_index.delete(encode_int(victim), pack_rid(rid))
        before = db.check_integrity()
        assert any(v.kind == "unindexed-record" for v in before.violations)
        report = db.repair()
        assert_repaired(db, report)
        assert report.salvaged_records >= 1
        assert victim not in {oid for oid, _ in table.scan()}

    def test_keyword_index_tamper(self):
        db = workload_db()
        db.create_keyword_index("birds", "TextSummary1")
        index = db.derived[("keyword", "birds", "TextSummary1")]
        # Damage via the consistency surface the checker audits: a stale
        # summary-index entry forces a repair pass, which must also
        # re-derive the keyword postings without error.
        sidx = next(iter(db.summary_indexes.values()))
        sidx.tree.insert(b"bogus:0042", sidx._pointer_for(1))
        postings_before = len(index.postings)
        report = db.repair()
        assert_repaired(db, report)
        assert len(index.postings) == postings_before
        assert any(
            "keyword index" in a.location and a.action == "rebuild"
            for a in report.actions
        )

    def test_baseline_and_replica_rebuilt(self):
        db = workload_db(indexes="both")
        db.create_normalized_replicas("birds")
        db.catalog.table("birds").delete(1)
        report = db.repair()
        assert_repaired(db, report)
        locations = {a.location for a in report.actions
                     if a.action == "rebuild"}
        assert any(loc.startswith("baseline index") for loc in locations)
        assert any(loc.startswith("replica") for loc in locations)
        # The rebuilt replica reconstructs an object for a surviving oid.
        replica = db.derived[("replica", "birds", "TextSummary1")]
        survivor = next(oid for oid, _ in db.catalog.table("birds").scan())
        assert replica.reconstruct(survivor) is not None


class TestManagerStateAfterRepair:
    """Repair strips an annotation the store lost from the summary rows;
    the manager's state derived from those rows must forget it too."""

    def _database(self):
        db = Database()
        db.create_table("t", [Column("name", ValueType.TEXT)])
        db.create_classifier_instance("C", ["alpha", "beta"], [
            ("apple alpha fruit orchard", "alpha"),
            ("bear beta animal forest", "beta"),
        ])
        db.create_cluster_instance("Clu")
        db.manager.link("t", "C")
        db.manager.link("t", "Clu")
        return db, db.insert("t", {"name": "a"})

    def test_regeneration_and_save_after_repair(self, tmp_path):
        """Regeneration reads the attachments repair rebuilds from the
        store, so the lost annotation does not come back."""
        db, oid = self._database()
        lost = db.add_annotation("apple alpha fruit", table="t", oid=oid)
        kept = db.add_annotation("bear beta forest", table="t", oid=oid)
        db.manager.annotations.delete(lost.ann_id)  # behind the manager
        assert db.repair().converged
        late = db.add_annotation("orchard apple alpha", table="t", oid=oid)
        db.manager.regenerate_tuple("t", oid)
        objects = db.manager.storage_for("t").get(oid)
        assert objects["C"].all_annotation_ids() == {kept.ann_id,
                                                     late.ann_id}
        assert db.check_integrity().ok
        db.save(tmp_path / "img")

    def test_lost_annotation_stays_out_of_cluster_groups(self):
        db, oid = self._database()
        disease = [
            "flu virus infection outbreak epidemic mortality sick birds",
            "infection epidemic flu mortality virus outbreak sick",
            "virus flu epidemic infection outbreak sick mortality",
        ]
        notes = [db.add_annotation(text, table="t", oid=oid)
                 for text in disease]
        lost = notes[0]
        db.manager.annotations.delete(lost.ann_id)
        assert db.repair().converged
        db.add_annotation(
            "wetland lake marsh reed shoreline coastal water habitat",
            table="t", oid=oid,
        )
        obj = db.manager.storage_for("t").get(oid)["Clu"]
        assert lost.ann_id not in set().union(*obj.elements())
        for position in range(len(obj.elements())):
            db.zoom_in("t", oid, "Clu", position)  # no lost id to read
        assert db.check_integrity().ok

    def test_annotating_a_tuple_repair_found_gone_raises(self):
        """The attachment map is rebuilt with existing tuples only, so it
        no longer vouches for a tuple deleted behind the manager."""
        from repro.errors import RecordNotFoundError

        db = workload_db()
        table = db.catalog.table("birds")
        victim = next(oid for oid, _ in table.scan())
        table.delete(victim)
        assert db.repair().converged
        with pytest.raises(RecordNotFoundError):
            db.add_annotation("flu outbreak", table="birds", oid=victim)
        assert db.check_integrity().ok

    def test_row_left_without_annotations_is_dropped(self):
        """A row that repair strips bare goes, as when maintenance deletes
        a tuple's last annotation: no summary set of empty objects."""
        db, oid = self._database()
        ann = db.add_annotation("apple alpha fruit", table="t", oid=oid)
        db.manager.annotations.delete(ann.ann_id)
        assert db.repair().converged
        assert db.manager.storage_for("t").get(oid) is None
        sql = ("SELECT t.name FROM t WHERE "
               "t.$.getSummaryObject('C').getLabelValue('alpha') >= 0")
        assert not db.sql(sql).rows

    def test_stray_group_member_is_flagged_and_stripped(self):
        db, oid = self._database()
        notes = [db.add_annotation(text, table="t", oid=oid)
                 for text in ("apple alpha fruit", "orchard apple alpha")]
        storage = db.manager.storage_for("t")
        objects = storage.get_for_update(oid)
        del objects["Clu"].ann_targets[notes[0].ann_id]
        storage.put(oid, objects)  # a group member its targets lack
        report = db.check_integrity()
        assert [v.kind for v in report.violations] == ["dangling-element"]
        repaired = db.repair()
        assert repaired.converged, str(repaired)
        assert notes[0].ann_id not in set().union(
            *storage.get(oid)["Clu"].elements())


class TestPhysicalDamage:
    def test_heal_resident_page(self):
        """On-disk corruption under a resident frame: the frame is the
        last good copy, so repair rewrites it — zero data loss."""
        db = workload_db()
        rows_before = sorted(
            str(t) for t in db.sql("SELECT scientific_name FROM birds")
        )
        db.pool.flush_all()
        victim = sorted(db.pool.protected_pages)[0]
        assert victim in db.pool._frames  # still resident
        # Poke the device through the guard: raw damage simulation must
        # not trip over environment-injected transient faults (CI soak).
        data = bytearray(db.guard.read_page(db.disk, victim))
        data[40] ^= 0xFF
        db.guard.write_page(db.disk, victim, data)
        report = db.repair()
        assert report.converged, str(report)
        assert victim in report.healed_pages
        assert not report.quarantined_pages
        assert sorted(
            str(t) for t in db.sql("SELECT scientific_name FROM birds")
        ) == rows_before
        assert verify_checksum(db.guard.read_page(db.disk, victim))

    def test_quarantine_non_resident_page(self):
        """On-disk corruption with no resident copy: the page's records
        are unrecoverable — repair replaces the page, prunes every
        pointer into it, and still converges."""
        db = workload_db()
        total = db.sql("SELECT COUNT(*) FROM birds").scalar()
        db.pool.clear()  # cold cache: no frame holds a good copy
        victim = sorted(db.pool.protected_pages)[0]
        data = bytearray(db.guard.read_page(db.disk, victim))
        data[40] ^= 0xFF
        db.guard.write_page(db.disk, victim, data)
        report = db.repair()
        assert report.converged, str(report)
        assert victim in report.quarantined_pages
        assert report.pruned_entries > 0
        remaining = db.sql("SELECT COUNT(*) FROM birds").scalar()
        assert 0 <= remaining < total  # damage contained, not spread
        assert db.check_integrity().ok

    @pytest.mark.parametrize("seed", [FAULT_SEED_BASE + i for i in range(3)])
    def test_torn_write_sweep_converges(self, seed):
        db = workload_db(seed=seed % 7 + 1)
        db.sql("INSERT INTO birds (scientific_name) VALUES ('torn victim')")
        plan = FaultPlan(seed=seed).schedule(
            Fault(FaultKind.TORN_WRITE, "write", 0, period=1, crash=False)
        )
        faulty = install_faults(db, plan)
        db.pool.flush_all()
        remove_faults(db)
        assert faulty.injected, "setup failed to tear a write"
        report = db.repair()
        assert not report.clean_before
        # Frames are still resident after flush_all, so every torn page
        # heals from memory: nothing may be quarantined or lost.
        assert report.converged, str(report)
        assert not report.quarantined_pages
        assert db.sql(
            "SELECT COUNT(*) FROM birds WHERE "
            "scientific_name = 'torn victim'"
        ).scalar() == 1

    @pytest.mark.parametrize("seed", [FAULT_SEED_BASE + i for i in range(3)])
    def test_bit_flip_sweep_converges(self, seed):
        db = workload_db(seed=seed % 7 + 1)
        plan = FaultPlan(seed=seed).schedule(
            Fault(FaultKind.BIT_FLIP, "write", 0, period=1, bits=1)
        )
        faulty = install_faults(db, plan)
        db.pool.flush_all()
        remove_faults(db)
        assert faulty.injected
        report = db.repair()
        assert report.converged, str(report)


class TestRepairThroughImages:
    """Damage survives a save/load cycle and repair still converges on
    the reloaded database (the ``repair`` CLI verb's core path)."""

    def test_logical_damage_roundtrip(self, tmp_path):
        db = workload_db()
        db.catalog.table("birds").delete(1)
        path = tmp_path / "img.db"
        db.save(path)
        reloaded = Database.load(path)
        assert not reloaded.check_integrity().ok
        report = reloaded.repair()
        assert report.converged, str(report)
        assert reloaded.check_integrity().ok


class TestCliRepair:
    def test_repl_repair_command(self):
        from repro.cli import execute_line

        db = workload_db(num_birds=4, apt=2)
        db.catalog.table("birds").delete(1)
        out = execute_line(db, "\\repair")
        assert "converged" in out
        assert execute_line(db, "\\check").startswith("integrity")

    def test_repl_repair_clean(self):
        from repro.cli import execute_line

        db = workload_db(num_birds=4, apt=2)
        assert "nothing to do" in execute_line(db, "\\repair")

    def test_repair_verb_converges_and_saves(self, tmp_path, capsys):
        from repro.cli import main

        db = workload_db(num_birds=4, apt=2)
        db.catalog.table("birds").delete(1)
        path = tmp_path / "img.db"
        db.save(path)
        assert main(["repair", str(path)]) == 0
        assert "converged" in capsys.readouterr().out
        # The repaired image was written back in place.
        assert Database.load(path).check_integrity().ok

    def test_repair_verb_out_path(self, tmp_path, capsys):
        from repro.cli import main

        db = workload_db(num_birds=4, apt=2)
        db.catalog.table("birds").delete(1)
        src = tmp_path / "damaged.db"
        dst = tmp_path / "repaired.db"
        db.save(src)
        assert main(["repair", str(src), str(dst)]) == 0
        # Source untouched (still damaged), destination clean.
        assert not Database.load(src).check_integrity().ok
        assert Database.load(dst).check_integrity().ok

    def test_repair_verb_corrupt_image(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "img.db"
        path.write_bytes(b"not an image at all")
        assert main(["repair", str(path)]) == 2
        assert "error" in capsys.readouterr().out

    def test_repair_verb_usage(self, capsys):
        from repro.cli import main

        assert main(["repair"]) == 2
        assert "usage" in capsys.readouterr().out
