"""Unit + property tests for summary objects and their algebra.

The merge/projection semantics here are the heart of §2.2 (Example 1 /
Figure 3): counts derive from element sets, common annotations are never
double-counted, cluster groups combine when overlapping, and representatives
are re-elected when projected away.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SummaryError
from repro.summaries.objects import (
    ClassifierObject,
    ClusterGroup,
    ClusterObject,
    SnippetObject,
    SummaryObject,
    SummaryType,
)

LABELS = ["Provenance", "Comment", "Question"]


def classifier(tuple_id=1, instance="ClassBird2"):
    return ClassifierObject(instance_name=instance, tuple_id=tuple_id,
                            labels=list(LABELS))


class TestClassifierObject:
    def test_rep_in_declared_label_order(self):
        obj = classifier()
        obj.add_annotation(1, "Comment", ())
        obj.add_annotation(2, "Provenance", ())
        assert obj.rep() == [("Provenance", 1), ("Comment", 1), ("Question", 0)]

    def test_get_label_name_and_value(self):
        obj = classifier()
        obj.add_annotation(1, "Comment", ())
        obj.add_annotation(2, "Comment", ())
        assert obj.get_label_name(1) == "Comment"
        assert obj.get_label_value(1) == 2
        assert obj.get_label_value("Comment") == 2
        assert obj.get_label_value("Question") == 0

    def test_get_label_errors(self):
        obj = classifier()
        with pytest.raises(SummaryError):
            obj.get_label_name(9)
        with pytest.raises(SummaryError):
            obj.get_label_value("NoSuchLabel")

    def test_unknown_label_add_rejected(self):
        with pytest.raises(SummaryError):
            classifier().add_annotation(1, "Bogus", ())

    def test_get_size_is_number_of_labels(self):
        assert classifier().get_size() == 3

    def test_summary_type_and_name(self):
        obj = classifier()
        assert obj.get_summary_type() == "Classifier"
        assert obj.get_summary_name() == "ClassBird2"

    def test_merge_deduplicates_common_annotations(self):
        # Figure 3: 10 + 17 comments with 5 common must give 22, not 27.
        left = classifier(tuple_id=1)
        for ann in range(1, 11):  # 1..10
            left.add_annotation(ann, "Comment", ())
        right = classifier(tuple_id=2)
        for ann in range(6, 23):  # 6..22 => 5 common (6..10)
            right.add_annotation(ann, "Comment", ())
        left = left.merge(right)
        assert left.get_label_value("Comment") == 22

    def test_merge_keeps_disjoint_labels(self):
        left = classifier()
        left.add_annotation(1, "Provenance", ())
        right = classifier(tuple_id=2)
        right.add_annotation(2, "Question", ())
        left = left.merge(right)
        assert left.rep() == [("Provenance", 1), ("Comment", 0), ("Question", 1)]

    def test_merge_type_mismatch_rejected(self):
        with pytest.raises(SummaryError):
            classifier().merge(SnippetObject(instance_name="x", tuple_id=1))

    def test_remove_annotations_decrements(self):
        obj = classifier()
        obj.add_annotation(1, "Comment", ())
        obj.add_annotation(2, "Comment", ())
        obj.remove_annotations({1})
        assert obj.get_label_value("Comment") == 1
        assert 1 not in obj.all_annotation_ids()

    def test_projection_drops_only_projected_out_columns(self):
        obj = classifier()
        obj.add_annotation(1, "Comment", ("c", "d"))   # only on dropped cols
        obj.add_annotation(2, "Comment", ("a",))       # on retained col
        obj.add_annotation(3, "Comment", ())           # row-level
        obj = obj.project_to_columns({"a", "b"})
        assert obj.get_label_value("Comment") == 2
        assert obj.all_annotation_ids() == {2, 3}

    def test_copy_is_independent(self):
        obj = classifier()
        obj.add_annotation(1, "Comment", ())
        dup = obj.copy()
        dup.add_annotation(2, "Comment", ())
        assert obj.get_label_value("Comment") == 1
        assert dup.get_label_value("Comment") == 2

    def test_serialization_roundtrip(self):
        obj = classifier()
        obj.add_annotation(1, "Comment", ("a",))
        obj.add_annotation(2, "Question", ())
        back = SummaryObject.from_bytes(obj.to_bytes())
        assert isinstance(back, ClassifierObject)
        assert back.rep() == obj.rep()
        assert back.ann_targets == obj.ann_targets
        assert back.elements() == obj.elements()


class TestSnippetObject:
    def make(self):
        obj = SnippetObject(instance_name="TextSummary1", tuple_id=1)
        obj.add_annotation(1, (), "Experiment E measured wing development")
        obj.add_annotation(2, ("c",), "Wikipedia article about hormone levels")
        obj.add_annotation(3, (), None)  # short annotation: no snippet
        return obj

    def test_rep_and_size(self):
        obj = self.make()
        assert obj.get_size() == 2
        assert "Experiment" in obj.get_snippet(0)

    def test_get_snippet_out_of_range(self):
        with pytest.raises(SummaryError):
            self.make().get_snippet(5)

    def test_all_annotation_ids_includes_short_ones(self):
        assert self.make().all_annotation_ids() == {1, 2, 3}

    def test_contains_single_within_one_snippet(self):
        obj = self.make()
        assert obj.contains_single(["wikipedia", "hormone"])
        assert not obj.contains_single(["wikipedia", "wing"])  # spans two

    def test_contains_union_spans_snippets(self):
        obj = self.make()
        assert obj.contains_union(["wikipedia", "wing"])
        assert not obj.contains_union(["nonexistentword"])

    def test_contains_with_raw_texts(self):
        obj = self.make()
        raws = ["the raw note mentions migration and hormone"]
        assert obj.contains_single(["migration", "hormone"], raw_texts=raws)

    def test_projection_drops_snippet_of_projected_annotation(self):
        obj = self.make()
        obj = obj.project_to_columns({"a"})
        assert obj.get_size() == 1  # wikipedia snippet (on column c) dropped
        assert obj.all_annotation_ids() == {1, 3}

    def test_merge_union_and_dedup(self):
        a = self.make()
        b = SnippetObject(instance_name="TextSummary1", tuple_id=2)
        b.add_annotation(2, (), "Wikipedia article about hormone levels")
        b.add_annotation(9, (), "A new long article snippet")
        a = a.merge(b)
        assert a.get_size() == 3  # ann 2 deduplicated
        assert a.all_annotation_ids() == {1, 2, 3, 9}

    def test_serialization_roundtrip(self):
        obj = self.make()
        back = SummaryObject.from_bytes(obj.to_bytes())
        assert isinstance(back, SnippetObject)
        assert back.rep() == obj.rep()
        assert back.all_annotation_ids() == obj.all_annotation_ids()


def group(rep, members, prefix="ann"):
    return ClusterGroup(rep, set(members),
                        {m: f"{prefix}-{m} text" for m in members})


def cluster(groups, tuple_id=1):
    obj = ClusterObject(instance_name="SimCluster", tuple_id=tuple_id,
                        groups=groups)
    for g in groups:
        for m in g.members:
            obj.ann_targets.setdefault(m, ())
    return obj


class TestClusterObject:
    def test_rep_sorted_by_size(self):
        obj = cluster([group(1, [1, 2]), group(5, [5, 6, 7])])
        assert obj.rep() == [("ann-5 text", 3), ("ann-1 text", 2)]
        assert obj.get_size() == 2

    def test_get_group_size_and_representative(self):
        obj = cluster([group(1, [1, 2])])
        assert obj.get_group_size(0) == 2
        assert obj.get_representative(0) == "ann-1 text"
        with pytest.raises(SummaryError):
            obj.get_group_size(4)

    def test_remove_reelects_representative(self):
        # Figure 3: when A2's representative is dropped, A5 takes over.
        obj = cluster([group(2, [2, 5, 8])])
        obj.remove_annotations({2})
        assert obj.groups[0].rep_ann_id == 5
        assert obj.rep() == [("ann-5 text", 2)]

    def test_remove_drops_empty_groups(self):
        obj = cluster([group(1, [1]), group(2, [2, 3])])
        obj.remove_annotations({1})
        assert obj.get_size() == 1

    def test_merge_combines_overlapping_groups(self):
        # Figure 3: groups represented by A1 and B5 share annotations and
        # combine; A5 and B7 stay separate.
        left = cluster([group(1, [1, 10, 11]), group(5, [5])])
        right = cluster([group(20, [10, 20]), group(7, [7])], tuple_id=2)
        left = left.merge(right)
        sizes = sorted(g.size for g in left.groups)
        assert sizes == [1, 1, 4]  # {1,10,11,20} + {5} + {7}
        combined = max(left.groups, key=lambda g: g.size)
        assert combined.members == {1, 10, 11, 20}
        assert combined.rep_ann_id == 1  # larger side keeps representative

    def test_merge_chains_multiple_overlaps(self):
        # An incoming group can bridge two existing groups.
        left = cluster([group(1, [1, 2]), group(5, [5, 6])])
        right = cluster([group(2, [2, 5])], tuple_id=2)
        left = left.merge(right)
        assert len(left.groups) == 1
        assert left.groups[0].members == {1, 2, 5, 6}

    def test_merge_disjoint_propagates_separately(self):
        left = cluster([group(1, [1])])
        right = cluster([group(2, [2])], tuple_id=2)
        left = left.merge(right)
        assert len(left.groups) == 2

    def test_merge_no_double_count_members(self):
        left = cluster([group(1, [1, 2, 3])])
        right = cluster([group(1, [1, 2, 3])], tuple_id=2)
        left = left.merge(right)
        assert len(left.groups) == 1
        assert left.groups[0].size == 3

    def test_serialization_roundtrip(self):
        obj = cluster([group(1, [1, 2]), group(5, [5])])
        back = SummaryObject.from_bytes(obj.to_bytes())
        assert isinstance(back, ClusterObject)
        assert back.rep() == obj.rep()
        assert back.elements() == obj.elements()


class TestMergeProperties:
    """Algebraic properties the propagation proofs of [22] rely on."""

    @given(
        st.sets(st.integers(1, 40), max_size=15),
        st.sets(st.integers(1, 40), max_size=15),
    )
    @settings(max_examples=50)
    def test_classifier_merge_commutative_counts(self, left_ids, right_ids):
        def build(ids, tid):
            obj = classifier(tuple_id=tid)
            for a in ids:
                obj.add_annotation(a, LABELS[a % 3], ())
            return obj

        ab = build(left_ids, 1)
        ab = ab.merge(build(right_ids, 2))
        ba = build(right_ids, 2)
        ba = ba.merge(build(left_ids, 1))
        assert dict(ab.rep()) == dict(ba.rep())

    @given(
        st.sets(st.integers(1, 30), max_size=12),
        st.sets(st.integers(1, 30), max_size=12),
    )
    @settings(max_examples=50)
    def test_classifier_merge_is_union(self, left_ids, right_ids):
        def build(ids, tid):
            obj = classifier(tuple_id=tid)
            for a in ids:
                obj.add_annotation(a, "Comment", ())
            return obj

        merged = build(left_ids, 1)
        merged = merged.merge(build(right_ids, 2))
        assert merged.get_label_value("Comment") == len(left_ids | right_ids)

    @given(st.sets(st.integers(1, 30), min_size=1, max_size=12),
           st.sets(st.integers(1, 30), max_size=6))
    @settings(max_examples=50)
    def test_classifier_remove_then_ids_consistent(self, ids, doomed):
        obj = classifier()
        for a in ids:
            obj.add_annotation(a, LABELS[a % 3], ())
        obj.remove_annotations(set(doomed))
        assert obj.all_annotation_ids() == ids - doomed
        assert sum(c for _, c in obj.rep()) == len(ids - doomed)

    @given(
        st.lists(st.sets(st.integers(1, 25), min_size=1, max_size=6),
                 min_size=1, max_size=4),
        st.lists(st.sets(st.integers(1, 25), min_size=1, max_size=6),
                 min_size=1, max_size=4),
    )
    @settings(max_examples=50)
    def test_cluster_merge_members_are_union_and_disjoint(self, left, right):
        def disjointify(groupsets):
            seen: set[int] = set()
            out = []
            for s in groupsets:
                s = s - seen
                if s:
                    out.append(group(min(s), s))
                    seen |= s
            return out

        lobj = cluster(disjointify(left))
        robj = cluster(disjointify(right), tuple_id=2)
        expect = set().union(*[g.members for g in lobj.groups]) | set().union(
            *[g.members for g in robj.groups]
        )
        lobj = lobj.merge(robj)
        got_groups = [g.members for g in lobj.groups]
        # Union preserved and groups pairwise disjoint afterwards.
        assert set().union(*got_groups) == expect
        assert sum(len(g) for g in got_groups) == len(expect)
        # Representatives always members of their group.
        for g in lobj.groups:
            assert g.rep_ann_id in g.members


class TestSummaryTypeEnum:
    def test_values_match_paper_names(self):
        assert SummaryType.CLASSIFIER.value == "Classifier"
        assert SummaryType.SNIPPET.value == "Snippet"
        assert SummaryType.CLUSTER.value == "Cluster"
