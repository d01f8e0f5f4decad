"""The derived-structure protocol, one scenario table over every kind.

Each registered :class:`~repro.index.derived.DerivedIndex` is a pure
function of the summary storage.  A seeded sequence of the operations
that move storage rows — annotate, bulk annotate, delete an annotation,
delete a tuple, a relocating UPDATE, ``ALTER TABLE … DROP`` then
re-``ADD``, regenerating tuples from their raw annotations — runs against
one database holding all four kinds, and after every step each structure's
``entries()`` must equal what ``derive`` computes over the storage.

The Summary-BTree runs under both pointer styles of Figure 13: a
conventional pointer names the summary row, so a write that relocates
the row must re-point its keys.
"""

from __future__ import annotations

import random

import pytest

from repro import Column, Database, ValueType
from repro.annotations.annotation import AnnotationTarget
from repro.errors import CorruptPageError, SummaryError
from repro.index.derived import (
    DerivedIndex,
    Probe,
    match_indexable_summary_pred,
)
from repro.summaries.objects import ClassifierObject

SEED = [
    ("observed infection avian flu disease symptoms", "Disease"),
    ("parasite outbreak illness infected disease", "Disease"),
    ("wing beak feather plumage anatomy", "Anatomy"),
    ("migration nesting singing behavior", "Behavior"),
]
TEXTS = [
    "flu infection observed near the heron colony, birds looked sick",
    "long wing feathers and a sharp beak on this heron specimen",
    "nesting behavior changed after the storm, migration delayed",
    "outbreak of illness in the flock, several infected adults",
    "plumage looked dull; possible parasite load on the wing",
]
ROWS = 40

#: kind -> (registry key, how to (re)create it on a linked instance)
KINDS = {
    "summary-backward": (
        ("summary", "t", "C"),
        lambda db: db.create_summary_index("t", "C"),
    ),
    "summary-conventional": (
        ("summary", "t", "C"),
        lambda db: db.create_summary_index("t", "C", backward_pointers=False),
    ),
    "baseline": (
        ("baseline", "t", "C"),
        lambda db: db.create_baseline_index("t", "C"),
    ),
    "keyword": (
        ("keyword", "t", "S"),
        lambda db: db.create_keyword_index("t", "S"),
    ),
    "replica": (
        ("replica", "t", "S"),
        lambda db: db.create_normalized_replicas("t"),
    ),
}


class LabelEqualityPostings(DerivedIndex):
    """A kind the engine does not ship: in-memory ``count -> OIDs``
    postings of one classifier label, serving ``getLabelValue(L) = c``.
    It plans, runs, degrades and retries through the protocol alone."""

    kind = "label-eq"

    def __init__(self, table_name: str, instance_name: str, label: str):
        self.table_name = table_name
        self.instance_name = instance_name
        self.label = label
        self.postings: dict[int, set[int]] = {}
        self.rot = False

    def parts(self) -> dict:
        return {}

    def derive(self, oid, objects):
        obj = objects.get(self.instance_name)
        if not isinstance(obj, ClassifierObject):
            return []
        return [(dict(obj.rep()).get(self.label), oid)]

    def entries(self):
        return [(count, oid) for count, oids in self.postings.items()
                for oid in oids]

    def on_objects_write(self, oid, objects, previous):
        self.on_objects_delete(oid, previous)
        for count, _ in self.derive(oid, objects):
            self.postings.setdefault(count, set()).add(oid)

    def on_objects_delete(self, oid, previous):
        for oids in self.postings.values():
            oids.discard(oid)

    def __len__(self) -> int:
        return len(self.entries())

    def probe(self, conjunct, order, *, alias, manager, options):
        matched = None if conjunct is None \
            else match_indexable_summary_pred(conjunct)
        if matched is None or matched.op != "=" \
                or (matched.alias or alias) != alias \
                or (matched.instance, matched.label) != (
                    self.instance_name, self.label):
            return None
        return Probe(
            self.key, "LabelEqualityScan",
            f"{self.instance_name}.{self.label} = {matched.constant}",
            (matched.constant,), conjunct,
        )

    def hits(self, probe, table):
        self.probes += 1
        if self.rot:
            raise CorruptPageError("synthetic postings rot")
        for oid in sorted(self.postings.get(probe.args[0], ())):
            yield oid, table.read(oid), None


def test_a_new_kind_plans_without_a_planner_edit():
    db = Database(buffer_pages=512)
    db.create_table("t", [Column("id", ValueType.INT),
                          Column("note", ValueType.TEXT)])
    db.create_classifier_instance(
        "C", ["Disease", "Anatomy", "Behavior"], SEED
    )
    db.sql("Alter Table t Add C")
    for i in range(1, ROWS + 1):
        db.insert("t", {"id": i, "note": "n"})
        db.add_annotation(TEXTS[i % len(TEXTS)], table="t", oid=i)
    query = ("Select id From t r Where "
             "r.$.getSummaryObject('C').getLabelValue('Disease') = 1")

    def ids():
        return sorted(row.get("id") for row in db.sql(query).tuples)

    db.options.index_scheme = "none"
    oracle = ids()
    assert oracle
    index = db._add_derived(
        LabelEqualityPostings.kind, "t", "C",
        lambda: LabelEqualityPostings("t", "C", "Disease"),
    )
    db._new_epoch()  # a registry change invalidates plans, as DDL does
    db.options.force_access = "index"
    assert "LabelEqualityScan(t/C.Disease = 1)" in db.explain(query).physical
    assert ids() == oracle
    # Quarantined: the planner falls back to the heap and says why.
    db.health.quarantine(*index.key)
    report = db.explain(query)
    assert "SeqScan" in report.physical
    assert report.degraded == [index.key]
    assert ids() == oracle
    # Rot mid-query: one retry, and exactly this structure quarantined.
    db.health.restore_all()
    index.rot = True
    assert ids() == oracle
    assert db.metrics.get("resilience.statement_retries") == 1
    assert db.health.unhealthy() == [index.key]


def _live(db) -> list[int]:
    return [oid for oid, _ in db.catalog.table("t").scan()]


def _annotate(db, rng):
    db.add_annotation(rng.choice(TEXTS), table="t", oid=rng.choice(_live(db)))


def _bulk_annotate(db, rng):
    oids = _live(db)
    db.add_annotations_bulk([
        (rng.choice(TEXTS), [AnnotationTarget("t", rng.choice(oids))])
        for _ in range(6)
    ])


def _grow_one_summary_row(db, rng):
    """Many annotations on one tuple: its summary row outgrows its slot
    and relocates."""
    oid = rng.choice(_live(db))
    for _ in range(12):
        db.add_annotation(rng.choice(TEXTS), table="t", oid=oid)


def _delete_annotation(db, rng):
    anns = [a.ann_id for a in db.manager.annotations.scan()]
    if anns:
        db.delete_annotation(rng.choice(anns))


def _delete_tuple(db, rng):
    oids = _live(db)
    if len(oids) > ROWS // 2:
        db.delete_tuple("t", rng.choice(oids))


def _relocating_update(db, rng):
    """Grow a data tuple past its page's free space: it moves, and a
    backward pointer must follow it."""
    oid = rng.choice(_live(db))
    db.sql(f"Update t Set note = '{'x' * 3000}' Where id = {oid}")


def _unlink_relink(db, rng, kind):
    key, create = KINDS[kind]
    instance = key[2]
    db.sql(f"Alter Table t Drop {instance}")
    assert not [k for k in db.derived if k[1:] == ("t", instance)]
    db.sql(f"Alter Table t Add {instance}")
    create(db)


def _regenerate(db, rng):
    """Rebuild annotated tuples' rows from their raw annotations: one
    write replaces each whole row."""
    annotated = [oid for oid in _live(db) if db.manager.is_annotated("t", oid)]
    for oid in rng.sample(annotated, min(3, len(annotated))):
        db.manager.regenerate_tuple("t", oid)


#: the scenario table: step name -> (step, times per round)
STEPS = {
    "annotate": (_annotate, 4),
    "bulk-annotate": (_bulk_annotate, 2),
    "grow-summary-row": (_grow_one_summary_row, 1),
    "delete-annotation": (_delete_annotation, 3),
    "delete-tuple": (_delete_tuple, 1),
    "relocating-update": (_relocating_update, 2),
    "unlink-relink": (_unlink_relink, 1),
    "regenerate": (_regenerate, 1),
}


def _database(kind: str) -> Database:
    db = Database(buffer_pages=512)
    db.create_table("t", [Column("id", ValueType.INT),
                          Column("note", ValueType.TEXT)])
    db.create_classifier_instance(
        "C", ["Disease", "Anatomy", "Behavior"], SEED
    )
    db.create_snippet_instance("S", min_chars=40, max_chars=30)
    db.sql("Alter Table t Add C")
    db.sql("Alter Table t Add S")
    for i in range(1, ROWS + 1):
        assert db.insert("t", {"id": i, "note": "n"}) == i
    KINDS[kind][1](db)
    return db


def _assert_mirrors_storage(db, step: str) -> None:
    for index in db.derived.values():
        storage = db.manager.storage_for(index.table_name)
        assert index.verify(storage) == [], (step, index.key)


@pytest.mark.parametrize("kind", list(KINDS))
def test_entries_equal_derive_after_every_step(kind):
    rng = random.Random(7)
    db = _database(kind)
    for _round in range(2):
        sequence = [name for name, (_, times) in STEPS.items()
                    for _ in range(times)]
        rng.shuffle(sequence)
        for name in sequence:
            step = STEPS[name][0]
            if name == "unlink-relink":
                step(db, rng, kind)
            else:
                step(db, rng)
            _assert_mirrors_storage(db, name)
    assert db.check_integrity().ok


@pytest.mark.parametrize("backward", [True, False])
def test_summary_row_relocation_keeps_pointers(backward):
    """One tuple of forty annotated thirty times: its summary row moves
    to another page, and every key of it must follow."""
    db = Database(buffer_pages=512)
    db.create_table("t", [Column("id", ValueType.INT),
                          Column("note", ValueType.TEXT)])
    db.create_classifier_instance(
        "C", ["Disease", "Anatomy", "Behavior"], SEED
    )
    db.create_snippet_instance("S", min_chars=40, max_chars=30)
    db.sql("Alter Table t Add C")
    db.sql("Alter Table t Add S")
    for i in range(1, ROWS + 1):
        db.insert("t", {"id": i, "note": "n"})
        db.add_annotation(TEXTS[i % len(TEXTS)], table="t", oid=i)
    db.create_summary_index("t", "C", backward_pointers=backward)
    storage = db.manager.storage_for("t")
    before = storage._rid_for(1)
    for i in range(30):
        db.add_annotation(TEXTS[i % len(TEXTS)], table="t", oid=1)
    assert storage._rid_for(1) != before
    assert db.check_integrity().ok
    db.delete_tuple("t", 1)
    assert db.check_integrity().ok


def test_unlink_drops_every_structure_of_the_link():
    """ALTER TABLE … DROP on a snippet instance takes its keyword index
    and replica with it: re-linking can build both again."""
    db = _database("keyword")
    db.create_normalized_replicas("t")
    db.add_annotation(TEXTS[0], table="t", oid=1)
    db.sql("Alter Table t Drop S")
    assert set(db.derived) == set()
    assert not [o for o in db.manager._observers["t"]
                if isinstance(o, DerivedIndex)]
    db.sql("Alter Table t Add S")
    db.create_keyword_index("t", "S")
    assert [r.key for r in db.create_normalized_replicas("t")] == [
        ("replica", "t", "S")
    ]
    with pytest.raises(SummaryError, match="already exists"):
        db.create_keyword_index("t", "S")
    db.add_annotation(TEXTS[1], table="t", oid=2)
    assert db.check_integrity().ok
    index = db.derived[("keyword", "t", "S")]
    assert 1 in index.candidates(["flu"])
    assert 2 in index.candidates(["long"])


def _tamper(kind: str, db) -> None:
    """Remove what each kind holds for OID 1, behind maintenance's back."""
    index = db.derived[KINDS[kind][0]]
    if kind.startswith("summary"):
        for key, value in list(index.tree.items()):
            if int.from_bytes(value[:8], "little") == 1:
                index.tree.delete(key, value)
    elif kind == "baseline":
        for norm_oid in list(index.norm.index_lookup("data_oid", 1)):
            index.norm.delete(norm_oid)
    elif kind == "keyword":
        index._delete_rows(1)
    else:
        for table in (index.norm, index.members):
            for norm_oid in list(table.index_lookup("data_oid", 1)):
                table.delete(norm_oid)


@pytest.mark.parametrize("kind", list(KINDS))
def test_tampering_is_flagged_routed_around_and_repaired(kind):
    db = _database(kind)
    if kind != "replica":
        # Figure 12's propagation path reads the replica next to the
        # baseline index; the baseline gives the replica its planner use.
        db.create_normalized_replicas("t")
    for i in range(1, ROWS + 1):
        db.add_annotation(TEXTS[i % len(TEXTS)], table="t", oid=i)
    key = KINDS[kind][0]
    held = sorted(db.derived[key].entries())
    _tamper(kind, db)
    report = db.check_integrity()
    assert not report.ok
    assert report.unhealthy_paths() == [key]
    # The planner routes around the quarantined structure …
    assert db.planner._path(*key) is None
    repair = db.repair()
    assert repair.converged, str(repair)
    assert sorted(db.derived[key].entries()) == held
    # … until repair re-derives it.
    assert db.planner._path(*key) is db.derived[key]
