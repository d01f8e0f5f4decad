"""Tests for the $-variable (SummarySet) interface of §3.1."""

import pytest

from repro.errors import SummaryError
from repro.summaries.functions import SummarySet
from repro.summaries.objects import (
    ClassifierObject,
    ClusterGroup,
    ClusterObject,
    SnippetObject,
    SummaryObject,
    SummaryType,
)


def make_set():
    c1 = ClassifierObject(instance_name="ClassBird1", tuple_id=1,
                          labels=["Disease", "Anatomy"])
    c1.add_annotation(1, "Disease", ())
    c2 = ClassifierObject(instance_name="ClassBird2", tuple_id=1,
                          labels=["Provenance", "Comment"])
    snip = SnippetObject(instance_name="TextSummary1", tuple_id=1)
    snip.add_annotation(2, (), "Experiment E studies hormones")
    clus = ClusterObject(instance_name="SimCluster", tuple_id=1,
                         groups=[ClusterGroup(3, {3}, {3: "a note"})])
    clus.ann_targets[3] = ()
    return SummarySet({o.instance_name: o for o in (c1, c2, snip, clus)})


class TestInterface:
    def test_get_size(self):
        # Figure 1(c): tuple r has four summary objects -> $.getSize() = 4.
        assert make_set().get_size() == 4

    def test_get_summary_object_by_name(self):
        s = make_set()
        assert s.get_summary_object("ClassBird1").get_summary_type() == "Classifier"
        assert s.get_summary_object("TextSummary1").get_summary_type() == "Snippet"
        assert s.get_summary_object("Missing") is None

    def test_get_summary_object_by_position(self):
        s = make_set()
        names = {s.get_summary_object(i).get_summary_name() for i in range(4)}
        assert names == {"ClassBird1", "ClassBird2", "TextSummary1", "SimCluster"}
        assert s.get_summary_object(9) is None

    def test_require_raises_for_missing(self):
        with pytest.raises(SummaryError):
            make_set().require("Nope")

    def test_filter_by_type(self):
        # §3.2 F operator: getSummaryType() = 'Classifier' keeps both
        # classifier objects.
        s = make_set()
        filtered = s.filter(lambda o: o.get_summary_type() == "Classifier")
        assert filtered.instance_names() == ["ClassBird1", "ClassBird2"]

    def test_filter_by_name(self):
        s = make_set()
        filtered = s.filter(lambda o: o.get_summary_name() == "SimCluster")
        assert filtered.instance_names() == ["SimCluster"]

    def test_of_type(self):
        s = make_set()
        assert len(s.of_type(SummaryType.CLASSIFIER)) == 2
        assert len(s.of_type(SummaryType.CLUSTER)) == 1


class TestAlgebra:
    def test_copy_independent(self):
        # Sets are values, so nothing needs a copy: a merge returns a new
        # set with new merged objects and leaves its inputs unchanged...
        s = make_set()
        extra = ClassifierObject(instance_name="ClassBird1", tuple_id=2,
                                 labels=["Disease", "Anatomy"])
        extra.add_annotation(99, "Disease", ())
        merged = s.merge(SummarySet({"ClassBird1": extra}))
        assert s.get_summary_object("ClassBird1").get_label_value("Disease") == 1
        assert merged.get_summary_object("ClassBird1").get_label_value("Disease") == 2
        # ...and an object read from storage refuses in-place edits.
        stored = SummaryObject.from_dict(
            s.get_summary_object("ClassBird1").to_dict()
        )
        with pytest.raises(TypeError):
            stored.add_annotation(99, "Disease", ())
        assert stored.get_label_value("Disease") == 1

    def test_merge_unmatched_instances_propagate_unchanged(self):
        # Example 1: ClassBird1/TextSummary1 have no counterpart on s, so
        # they propagate as-is.
        s = make_set()
        other = SummarySet()
        c2 = ClassifierObject(instance_name="ClassBird2", tuple_id=2,
                              labels=["Provenance", "Comment"])
        c2.add_annotation(50, "Comment", ())
        s = s.merge(SummarySet({"ClassBird2": c2}))
        assert s.get_size() == 4
        assert s.get_summary_object("ClassBird2").get_label_value("Comment") == 1
        assert s.get_summary_object("ClassBird1").get_label_value("Disease") == 1

    def test_merge_adds_new_instances(self):
        s = make_set()
        extra = ClassifierObject(instance_name="New", tuple_id=2, labels=["X"])
        s = s.merge(SummarySet({"New": extra}))
        assert s.get_size() == 5

    def test_merge_shares_foreign_objects(self):
        # An object present on one side only propagates as the same
        # object: nothing changes it in place, so sharing is safe.
        s = SummarySet()
        other = make_set()
        merged = s.merge(other)
        assert merged.get_summary_object("ClassBird1") is \
            other.get_summary_object("ClassBird1")
        assert s.get_size() == 0

    def test_projection_without_effect_returns_same_set(self):
        s = make_set()
        assert s.project_to_columns({"anything"}) is s

    def test_project_to_columns_applies_to_all_objects(self):
        clf = ClassifierObject(instance_name="C", tuple_id=1, labels=["L"])
        clf.add_annotation(1, "L", ("dropped",))
        clf.add_annotation(2, "L", ("kept",))
        snip = SnippetObject(instance_name="S", tuple_id=1)
        snip.add_annotation(1, ("dropped",), "about to vanish")
        s = SummarySet({"C": clf, "S": snip})
        projected = s.project_to_columns({"kept"})
        assert projected.get_summary_object("C").get_label_value("L") == 1
        assert projected.get_summary_object("S").get_size() == 0
        # The source set and its objects are untouched.
        assert s.get_summary_object("C").get_label_value("L") == 2
        assert s.get_summary_object("S").get_size() == 1

    def test_to_display_shows_reps(self):
        display = make_set().to_display()
        assert display["ClassBird1"] == [("Disease", 1), ("Anatomy", 0)]
        assert display["SimCluster"] == [("a note", 1)]
