"""Multi-level (hierarchical) summarization — the §8 future-work
extension: label trees, roll-up resolution in queries, multi-level
zoom-in, and the planner's leaf-only index side condition."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Column, Database, LabelTree, ValueType
from repro.errors import SummaryError

SPEC = {
    "Health": {"Disease": {}, "Injury": {}},
    "Ecology": {"Behavior": {}, "Habitat": {}},
    "Other": {},
}

SEEDS = [
    ("flu virus infection outbreak epidemic", "Disease"),
    ("broken wing wound bleeding fracture", "Injury"),
    ("foraging nesting singing courtship", "Behavior"),
    ("wetland lake coastal reed marsh", "Habitat"),
    ("survey checklist volunteer photo", "Other"),
]

TEXTS = {
    "Disease": "flu virus infection detected in the flock",
    "Injury": "wound on the wing bleeding badly fracture",
    "Behavior": "nesting and singing courtship display",
    "Habitat": "wetland reed marsh near the lake",
    "Other": "volunteer survey checklist photo uploaded",
}


class TestLabelTree:
    def test_leaves_in_spec_order(self):
        tree = LabelTree(SPEC)
        assert tree.leaves() == [
            "Disease", "Injury", "Behavior", "Habitat", "Other",
        ]

    def test_subtree_leaves(self):
        tree = LabelTree(SPEC)
        assert tree.leaves("Health") == ["Disease", "Injury"]
        assert tree.leaves("Other") == ["Other"]

    def test_children_and_parent(self):
        tree = LabelTree(SPEC)
        assert tree.children("Ecology") == ["Behavior", "Habitat"]
        assert tree.parent("Disease") == "Health"
        assert tree.parent("Health") is None

    def test_is_leaf_and_contains(self):
        tree = LabelTree(SPEC)
        assert tree.is_leaf("Disease")
        assert not tree.is_leaf("Health")
        assert "Habitat" in tree
        assert "NoSuch" not in tree

    def test_levels_and_paths(self):
        tree = LabelTree(SPEC)
        assert tree.level_of("Health") == 0
        assert tree.level_of("Disease") == 1
        assert tree.path_to("Habitat") == ["Ecology", "Habitat"]

    def test_three_level_tree(self):
        tree = LabelTree({"A": {"B": {"C": {}, "D": {}}, "E": {}}})
        assert tree.leaves() == ["C", "D", "E"]
        assert tree.leaves("B") == ["C", "D"]
        assert tree.level_of("C") == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(SummaryError):
            LabelTree({"A": {"B": {}}, "B": {}})

    def test_empty_tree_rejected(self):
        with pytest.raises(SummaryError):
            LabelTree({})

    def test_unknown_node_errors(self):
        tree = LabelTree(SPEC)
        with pytest.raises(SummaryError):
            tree.leaves("NoSuch")
        with pytest.raises(SummaryError):
            tree.children("NoSuch")

    def test_to_spec_roundtrip(self):
        tree = LabelTree(SPEC)
        assert LabelTree(tree.to_spec()).leaves() == tree.leaves()

    @given(st.lists(
        st.text(alphabet="abcdefgh", min_size=1, max_size=4),
        min_size=1, max_size=6, unique=True,
    ))
    def test_flat_spec_leaves_are_roots(self, names):
        tree = LabelTree({n: {} for n in names})
        assert tree.leaves() == names
        assert tree.roots == names


@pytest.fixture()
def db():
    database = Database()
    database.create_table("t", [Column("name", ValueType.TEXT)])
    database.create_hierarchical_classifier_instance("H", SPEC, SEEDS)
    database.manager.link("t", "H")
    return database


def annotate(db, oid, *cats):
    for cat in cats:
        db.add_annotation(TEXTS[cat], table="t", oid=oid)


class TestRollupQueries:
    def test_inner_node_value_is_subtree_sum(self, db):
        oid = db.insert("t", {"name": "a"})
        annotate(db, oid, "Disease", "Injury", "Behavior")
        r = db.sql(
            "Select name From t r Where "
            "r.$.getSummaryObject('H').getLabelValue('Health') = 2"
        )
        assert len(r) == 1

    def test_leaf_values_still_direct(self, db):
        oid = db.insert("t", {"name": "a"})
        annotate(db, oid, "Disease", "Disease", "Injury")
        r = db.sql(
            "Select name From t r Where "
            "r.$.getSummaryObject('H').getLabelValue('Disease') = 2"
        )
        assert len(r) == 1

    def test_order_by_inner_node(self, db):
        for name, cats in [("low", ["Behavior"]),
                           ("high", ["Disease", "Injury", "Disease"])]:
            oid = db.insert("t", {"name": name})
            annotate(db, oid, *cats)
        r = db.sql(
            "Select name From t r Order By "
            "r.$.getSummaryObject('H').getLabelValue('Health') Desc"
        )
        assert r.column("name") == ["high", "low"]

    def test_unknown_node_raises(self, db):
        oid = db.insert("t", {"name": "a"})
        annotate(db, oid, "Disease")
        with pytest.raises(Exception):
            db.sql(
                "Select name From t r Where "
                "r.$.getSummaryObject('H').getLabelValue('Bogus') = 1"
            )

    def test_flat_instances_unaffected(self, db):
        db.create_classifier_instance(
            "Flat", ["A", "B"], [("alpha apple", "A"), ("beta ball", "B")]
        )
        db.manager.link("t", "Flat")
        oid = db.insert("t", {"name": "a"})
        db.add_annotation("alpha apple pie", table="t", oid=oid)
        with pytest.raises(Exception):
            db.sql(
                "Select name From t r Where "
                "r.$.getSummaryObject('Flat').getLabelValue('Bogus') = 1"
            )


class TestRollupApi:
    def test_rollup_levels(self, db):
        oid = db.insert("t", {"name": "a"})
        annotate(db, oid, "Disease", "Injury", "Behavior", "Other")
        instance = db.manager.instance("H")
        obj = db.manager.summary_set_for("t", oid).get_summary_object("H")
        level0 = dict(instance.rollup(obj, level=0))
        assert level0 == {"Health": 2, "Ecology": 1, "Other": 1}
        level1 = dict(instance.rollup(obj, level=1))
        assert level1["Disease"] == 1
        assert level1["Other"] == 1  # shallow leaf attaches at its depth

    def test_resolve_elements_unions_children(self, db):
        oid = db.insert("t", {"name": "a"})
        annotate(db, oid, "Disease", "Injury")
        instance = db.manager.instance("H")
        obj = db.manager.summary_set_for("t", oid).get_summary_object("H")
        assert len(instance.resolve_elements(obj, "Health")) == 2

    def test_labels_must_match_leaves(self):
        from repro.summaries.hierarchy import HierarchicalClassifierInstance

        with pytest.raises(SummaryError):
            HierarchicalClassifierInstance(
                name="bad", labels=["X"], tree=LabelTree(SPEC)
            )


class TestMultiLevelZoom:
    def test_zoom_inner_node_unions_subtree(self, db):
        oid = db.insert("t", {"name": "a"})
        annotate(db, oid, "Disease", "Injury", "Behavior")
        health = db.zoom_in("t", oid, "H", "Health")
        disease = db.zoom_in("t", oid, "H", "Disease")
        assert len(health) == 2
        assert len(disease) == 1
        assert set(disease) <= set(health)

    def test_zoom_level_by_level(self, db):
        # Walk the hierarchy: whole instance -> level 0 node -> leaf.
        oid = db.insert("t", {"name": "a"})
        annotate(db, oid, "Disease", "Habitat")
        everything = db.zoom_in("t", oid, "H")
        ecology = db.zoom_in("t", oid, "H", "Ecology")
        habitat = db.zoom_in("t", oid, "H", "Habitat")
        assert len(everything) == 2
        assert ecology == habitat

    def test_zoom_inner_node_after_a_delete(self, db):
        oid = db.insert("t", {"name": "a"})
        first = db.add_annotation(TEXTS["Disease"], table="t", oid=oid)
        db.add_annotation(TEXTS["Injury"], table="t", oid=oid)
        db.delete_annotation(first.ann_id)
        assert db.zoom_in("t", oid, "H", "Health") == [TEXTS["Injury"]]

    def test_zoom_unknown_selector_still_raises(self, db):
        oid = db.insert("t", {"name": "a"})
        annotate(db, oid, "Disease")
        with pytest.raises(SummaryError):
            db.zoom_in("t", oid, "H", "Bogus")


class TestIndexSideCondition:
    def test_leaf_predicate_uses_index(self, db):
        for i in range(6):
            oid = db.insert("t", {"name": f"n{i}"})
            annotate(db, oid, *(["Disease"] * i))
        db.create_summary_index("t", "H")
        db.analyze("t")
        db.options.force_access = "index"
        report = db.explain(
            "Select * From t r Where "
            "r.$.getSummaryObject('H').getLabelValue('Disease') > 3"
        )
        db.options.force_access = None
        assert "SummaryIndexScan" in report.physical

    def test_inner_node_predicate_falls_back_to_scan(self, db):
        for i in range(6):
            oid = db.insert("t", {"name": f"n{i}"})
            annotate(db, oid, *(["Disease"] * i))
        db.create_summary_index("t", "H")
        db.analyze("t")
        db.options.force_access = "index"
        report = db.explain(
            "Select * From t r Where "
            "r.$.getSummaryObject('H').getLabelValue('Health') > 3"
        )
        db.options.force_access = None
        assert "SummaryIndexScan" not in report.physical
        assert "SeqScan" in report.physical

    def test_inner_node_results_match_scan_semantics(self, db):
        for i in range(6):
            oid = db.insert("t", {"name": f"n{i}"})
            annotate(db, oid, *(["Disease"] * (i % 3)), "Injury")
        db.create_summary_index("t", "H")
        db.analyze("t")
        query = (
            "Select name From t r Where "
            "r.$.getSummaryObject('H').getLabelValue('Health') >= 2"
        )
        expected = {
            t.get("name") for t in db.sql(query).tuples
        }
        db.options.force_access = "index"
        with_force = {t.get("name") for t in db.sql(query).tuples}
        db.options.force_access = None
        assert with_force == expected


class TestMaintenance:
    def test_incremental_counts_roll_up(self, db):
        oid = db.insert("t", {"name": "a"})
        instance = db.manager.instance("H")
        annotate(db, oid, "Disease")
        obj = db.manager.summary_set_for("t", oid).get_summary_object("H")
        assert instance.resolve_value(obj, "Health") == 1
        annotate(db, oid, "Injury")
        obj = db.manager.summary_set_for("t", oid).get_summary_object("H")
        assert instance.resolve_value(obj, "Health") == 2

    def test_annotation_delete_rolls_down(self, db):
        oid = db.insert("t", {"name": "a"})
        ann = db.add_annotation(TEXTS["Disease"], table="t", oid=oid)
        annotate(db, oid, "Injury")
        db.delete_annotation(ann.ann_id)
        instance = db.manager.instance("H")
        obj = db.manager.summary_set_for("t", oid).get_summary_object("H")
        assert instance.resolve_value(obj, "Health") == 1
