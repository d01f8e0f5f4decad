"""End-to-end engine tests: SQL over an annotated database.

These tests exercise the full stack (parser -> binder -> optimizer ->
physical operators -> summary propagation) on scenarios lifted from the
paper: the SPJ propagation of Example 1/Figure 3, the case-study queries of
Figures 2 and 16, zoom-in, and the F/S/J/O operators.
"""

import pytest

from repro import Column, Database, PlannerOptions, ValueType
from repro.errors import BindError, QueryError

SEED = [
    ("infection avian flu disease symptoms virus sick", "Disease"),
    ("outbreak parasite illness disease infected epidemic", "Disease"),
    ("wing beak feather plumage anatomy skeleton shape", "Anatomy"),
    ("wingspan weight bone anatomy measurement size", "Anatomy"),
    ("migration nesting singing foraging behavior courtship", "Behavior"),
    ("feeding eating diving flying behavior flock", "Behavior"),
    ("note comment misc general provenance", "Other"),
]

DISEASE_TEXT = "observed avian flu infection disease symptoms"
ANATOMY_TEXT = "remarkable wingspan and plumage anatomy measurements"
BEHAVIOR_TEXT = "seen foraging and nesting behavior near the reeds"


def build_db(propagate=True):
    db = Database()
    db.create_table(
        "birds",
        [
            Column("name", ValueType.TEXT),
            Column("family", ValueType.TEXT),
            Column("weight", ValueType.FLOAT),
        ],
    )
    db.create_classifier_instance(
        "ClassBird1", ["Disease", "Anatomy", "Behavior", "Other"], SEED
    )
    db.create_snippet_instance("TextSummary1", min_chars=60, max_chars=50)
    db.create_cluster_instance("SimCluster")
    db.sql("Alter Table birds Add Indexable ClassBird1")
    db.sql("Alter Table birds Add TextSummary1")
    db.sql("Alter Table birds Add SimCluster")
    return db


@pytest.fixture()
def db():
    database = build_db()
    names = [
        ("Swan Goose", "Anatidae"),
        ("Swan Mute", "Anatidae"),
        ("Heron Grey", "Ardeidae"),
        ("Eagle Bald", "Accipitridae"),
        ("Crow Common", "Corvidae"),
    ]
    for i, (name, family) in enumerate(names):
        oid = database.insert(
            "birds", {"name": name, "family": family, "weight": 1.0 + i}
        )
        for _ in range(i):  # bird i gets i disease annotations
            database.add_annotation(DISEASE_TEXT, table="birds", oid=oid)
        database.add_annotation(ANATOMY_TEXT, table="birds", oid=oid)
    database.analyze("birds")
    return database


class TestBasicSql:
    def test_select_star(self, db):
        result = db.sql("Select * From birds")
        assert len(result) == 5
        assert "birds.name" in result.columns

    def test_projection(self, db):
        result = db.sql("Select name From birds Order By name")
        assert result.column("name")[0] == "Crow Common"

    def test_data_where(self, db):
        result = db.sql("Select name From birds Where family = 'Anatidae'")
        assert len(result) == 2

    def test_like_wildcard(self, db):
        # Figure 2's Q1 pattern: name like "Swan*".
        result = db.sql("Select name From birds Where name Like 'Swan%'")
        assert sorted(result.column("name")) == ["Swan Goose", "Swan Mute"]
        result2 = db.sql("Select name From birds Where name Like 'Swan*'")
        assert len(result2) == 2

    def test_order_by_data_column(self, db):
        result = db.sql("Select name, weight From birds Order By weight Desc")
        weights = result.column("weight")
        assert weights == sorted(weights, reverse=True)

    def test_limit(self, db):
        assert len(db.sql("Select * From birds Limit 2")) == 2

    def test_group_by_count(self, db):
        result = db.sql(
            "Select family, count(*) c From birds Group By family Order By family"
        )
        rows = {r["family"]: r["c"] for r in result.rows}
        assert rows["Anatidae"] == 2
        assert rows["Corvidae"] == 1

    def test_aggregates(self, db):
        result = db.sql("Select min(weight) lo, max(weight) hi From birds")
        assert result.rows[0] == {"lo": 1.0, "hi": 5.0}

    def test_create_insert_roundtrip(self, db):
        db.sql("Create Table notes (id int, body text)")
        db.sql("Insert Into notes (id, body) Values (1, 'hello'), (2, 'world')")
        assert len(db.sql("Select * From notes")) == 2

    def test_unknown_column_rejected(self, db):
        with pytest.raises(BindError):
            db.sql("Select bogus From birds")

    def test_unknown_table_rejected(self, db):
        with pytest.raises(BindError):
            db.sql("Select * From nothere")


class TestSummarySelection:
    def test_selection_on_label_value(self, db):
        result = db.sql(
            "Select name From birds r Where "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 2"
        )
        assert sorted(result.column("name")) == ["Crow Common", "Eagle Bald"]

    def test_selection_equality_zero(self, db):
        result = db.sql(
            "Select name From birds r Where "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 0"
        )
        assert result.column("name") == ["Swan Goose"]

    def test_range_sugar(self, db):
        result = db.sql(
            "Select name From birds r Where "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') in [1, 2]"
        )
        assert len(result) == 2

    def test_mixed_data_and_summary_predicates(self, db):
        # Figure 2 Q1: disease-related annotations on birds named Swan*.
        result = db.sql(
            "Select name From birds r Where name Like 'Swan%' And "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0"
        )
        assert result.column("name") == ["Swan Mute"]

    def test_keyword_search_single(self, db):
        result = db.sql(
            "Select name From birds r Where "
            "r.$.getSummaryObject('TextSummary1').containsSingle('wingspan', 'plumage')"
        )
        assert len(result) == 5  # every bird has the anatomy annotation

    def test_keyword_search_union_negative(self, db):
        result = db.sql(
            "Select name From birds r Where "
            "r.$.getSummaryObject('TextSummary1').containsUnion('zebra')"
        )
        assert len(result) == 0

    def test_get_size_predicate(self, db):
        result = db.sql("Select name From birds r Where r.$.getSize() = 3")
        assert len(result) == 5


class TestSummarySort:
    def test_order_by_label_value_desc(self, db):
        # Figure 16 Q1 / the motivating Q3: sort by disease count.
        result = db.sql(
            "Select name From birds r Order By "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') Desc"
        )
        assert result.column("name")[0] == "Crow Common"
        assert result.column("name")[-1] == "Swan Goose"

    def test_order_by_label_value_asc(self, db):
        result = db.sql(
            "Select name From birds r Order By "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')"
        )
        assert result.column("name")[0] == "Swan Goose"

    def test_sort_then_limit(self, db):
        result = db.sql(
            "Select name From birds r Order By "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') Desc "
            "Limit 1"
        )
        assert result.column("name") == ["Crow Common"]


class TestPropagation:
    def test_summaries_propagate_with_results(self, db):
        result = db.sql("Select * From birds r Where name = 'Eagle Bald'")
        display = result.summaries(0)
        assert dict(display["ClassBird1"])["Disease"] == 3
        assert dict(display["ClassBird1"])["Anatomy"] == 1
        assert "TextSummary1" in display
        assert "SimCluster" in display

    def test_propagation_off(self):
        db = build_db()
        oid = db.insert("birds", {"name": "x", "family": "f", "weight": 1.0})
        db.add_annotation(DISEASE_TEXT, table="birds", oid=oid)
        db.options.propagate = False
        result = db.sql("Select * From birds")
        assert result.summaries(0) == {}

    def test_group_by_merges_summaries(self, db):
        # Figure 2 Q2: behavior/disease counts per family group.
        result = db.sql(
            "Select family, count(*) c From birds Group By family "
            "Order By family"
        )
        anatidae = next(
            i for i, t in enumerate(result.tuples)
            if t.get("family") == "Anatidae"
        )
        merged = result.summaries(anatidae)
        # Swan Goose (0 disease) + Swan Mute (1 disease), 2 anatomy total.
        assert dict(merged["ClassBird1"])["Disease"] == 1
        assert dict(merged["ClassBird1"])["Anatomy"] == 2

    def test_post_group_summary_expression(self, db):
        result = db.sql(
            "Select family, r.$.getSummaryObject('ClassBird1')."
            "getLabelValue('Disease') d From birds r Group By family "
            "Order By family"
        )
        by_family = {t.get("family"): t.get("d") for t in result.tuples}
        assert by_family["Anatidae"] == 1
        assert by_family["Accipitridae"] == 3


class TestProjectionElimination:
    def test_cell_annotation_eliminated_when_column_dropped(self):
        db = build_db()
        oid = db.insert("birds", {"name": "b", "family": "f", "weight": 2.0})
        db.add_annotation(DISEASE_TEXT, table="birds", oid=oid,
                          columns=("weight",))
        db.add_annotation(DISEASE_TEXT, table="birds", oid=oid)  # row-level
        # Projecting name only: the weight-attached annotation's effect goes.
        result = db.sql("Select name From birds r Where name = 'b'")
        counts = dict(result.summaries(0)["ClassBird1"])
        assert counts["Disease"] == 1
        # Selecting weight keeps it.
        result2 = db.sql("Select name, weight From birds r Where name = 'b'")
        counts2 = dict(result2.summaries(0)["ClassBird1"])
        assert counts2["Disease"] == 2

    def test_star_projection_keeps_everything(self):
        db = build_db()
        oid = db.insert("birds", {"name": "b", "family": "f", "weight": 2.0})
        db.add_annotation(DISEASE_TEXT, table="birds", oid=oid,
                          columns=("weight",))
        result = db.sql("Select * From birds")
        assert dict(result.summaries(0)["ClassBird1"])["Disease"] == 1


class TestJoins:
    def make_joined_db(self):
        db = build_db()
        db.create_table(
            "synonyms",
            [Column("bird_name", ValueType.TEXT), Column("syn", ValueType.TEXT)],
        )
        db.create_index("synonyms", "bird_name")
        for i in range(3):
            oid = db.insert(
                "birds", {"name": f"b{i}", "family": "f", "weight": 1.0}
            )
            for _ in range(i + 1):
                db.add_annotation(DISEASE_TEXT, table="birds", oid=oid)
            db.insert("synonyms", {"bird_name": f"b{i}", "syn": f"alias{i}"})
        db.analyze("birds")
        db.analyze("synonyms")
        return db

    def test_data_join(self):
        db = self.make_joined_db()
        result = db.sql(
            "Select r.name, s.syn From birds r, synonyms s "
            "Where r.name = s.bird_name"
        )
        assert len(result) == 3

    def test_join_with_summary_selection(self):
        db = self.make_joined_db()
        result = db.sql(
            "Select r.name, s.syn From birds r, synonyms s "
            "Where r.name = s.bird_name And "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 1"
        )
        assert sorted(t.get("r.name") for t in result.tuples) == ["b1", "b2"]

    def test_join_propagates_merged_summaries(self):
        db = self.make_joined_db()
        result = db.sql(
            "Select r.name, s.syn From birds r, synonyms s "
            "Where r.name = s.bird_name And r.name = 'b2'"
        )
        counts = dict(result.summaries(0)["ClassBird1"])
        assert counts["Disease"] == 3

    def test_summary_join_revision_style(self):
        # Figure 16 Q2: join two versions on id, keep pairs whose
        # provenance/disease counts differ.
        db = self.make_joined_db()
        result = db.sql(
            "Select v1.name, v2.name From birds v1, birds v2 "
            "Where v1.name = v2.name And "
            "v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') <> "
            "v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')"
        )
        assert len(result) == 0  # identical versions differ nowhere

    def test_summary_join_finds_differences(self):
        db = self.make_joined_db()
        # Second "revision" table with different annotation counts.
        db.create_table(
            "birds_v2",
            [Column("name", ValueType.TEXT), Column("family", ValueType.TEXT),
             Column("weight", ValueType.FLOAT)],
        )
        db.manager.link("birds_v2", "ClassBird1")
        for i in range(3):
            oid = db.insert(
                "birds_v2", {"name": f"b{i}", "family": "f", "weight": 1.0}
            )
            db.add_annotation(DISEASE_TEXT, table="birds_v2", oid=oid)
        result = db.sql(
            "Select v1.name From birds v1, birds_v2 v2 "
            "Where v1.name = v2.name And "
            "v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') <> "
            "v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')"
        )
        # b0 has 1 == 1; b1 has 2 != 1; b2 has 3 != 1.
        assert sorted(t.get("v1.name") for t in result.tuples) == ["b1", "b2"]


class TestSummaryFilter:
    def test_structural_filter_keeps_tuples(self, db):
        result = db.sql(
            "Select name From birds "
            "FILTER SUMMARIES getSummaryType() = 'Classifier'"
        )
        assert len(result) == 5
        display = result.summaries(0)
        assert set(display) == {"ClassBird1"}

    def test_filter_by_instance_name(self, db):
        result = db.sql(
            "Select name From birds "
            "FILTER SUMMARIES getSummaryName() = 'SimCluster'"
        )
        assert set(result.summaries(0)) == {"SimCluster"}

    def test_content_filter_on_size(self, db):
        result = db.sql(
            "Select name From birds FILTER SUMMARIES getSize() >= 4"
        )
        # Only the classifier has >= 4 representatives (4 labels).
        assert set(result.summaries(0)) == {"ClassBird1"}

    @pytest.mark.parametrize("predicate", [
        "getSummaryName() <> 5",
        "getSize() = 'x' Or getSize() >= 0",
        "Not (getSummaryType() = 1)",
    ])
    def test_mismatched_types_compare_as_in_where(self, db, predicate):
        """``=`` / ``<>`` across types answer as in a Where (``name <> 5``
        keeps every row); only the comparison asked is made."""
        assert len(db.sql("Select name From birds Where name <> 5")) == 5
        result = db.sql(f"Select name From birds FILTER SUMMARIES {predicate}")
        assert len(result) == 5
        assert set(result.summaries(0)) == {
            "ClassBird1", "TextSummary1", "SimCluster"}

    def test_unorderable_types_raise_a_query_error_as_in_where(self, db):
        with pytest.raises(QueryError, match="cannot compare"):
            db.sql("Select name From birds Where name < 5")
        with pytest.raises(QueryError, match="cannot compare"):
            db.sql("Select name From birds "
                   "FILTER SUMMARIES getSummaryName() < 5")


class TestZoomIn:
    def test_zoom_by_label(self, db):
        texts = db.sql("Zoom In birds 4 ClassBird1 'Disease'")
        assert len(texts) == 3
        assert all("disease" in t for t in texts)

    def test_zoom_whole_instance(self, db):
        assert len(db.sql("Zoom In birds 4 ClassBird1")) == 4

    def test_zoom_cluster_group(self, db):
        texts = db.sql("Zoom In birds 5 SimCluster 0")
        assert texts  # largest group's raw annotations

    def test_zoom_api(self, db):
        assert db.zoom_in("birds", 2, "ClassBird1", "Anatomy") == [ANATOMY_TEXT]


class TestDistinct:
    def test_distinct_merges_summaries(self, db):
        result = db.sql("Select Distinct family From birds Where family = 'Anatidae'")
        assert len(result) == 1
        counts = dict(result.summaries(0)["ClassBird1"])
        assert counts["Anatomy"] == 2  # both swans' annotations merged


class TestExplain:
    def test_explain_shows_plans(self, db):
        report = db.explain(
            "Select name From birds r Where "
            "r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 1"
        )
        assert "SummarySelect" in report.logical or "Scan" in report.logical
        assert report.estimated_cost > 0

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(Exception):
            db.explain("Alter Table birds Drop ClassBird1")
