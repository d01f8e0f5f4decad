"""Unit + property tests for the mining substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SummaryError
from repro.mining import (
    CluStream,
    LsaSummarizer,
    NaiveBayesClassifier,
    hashed_tf_vector,
    sentences,
    tokenize,
)


class TestText:
    def test_tokenize_lowercases_and_drops_stopwords(self):
        assert tokenize("The Swan WAS eating stonewort") == [
            "swan", "eating", "stonewort",
        ]

    def test_tokenize_keeps_stopwords_when_asked(self):
        tokens = tokenize("the swan", drop_stop_words=False)
        assert tokens == ["the", "swan"]

    def test_tokenize_ignores_numbers_and_punct(self):
        assert tokenize("weighs 3.2kg!!") == ["weighs", "kg"]

    def test_sentences_split(self):
        got = sentences("First one. Second one! Third one? Trailing")
        assert got == ["First one.", "Second one!", "Third one?", "Trailing"]

    def test_sentences_empty(self):
        assert sentences("") == []

    def test_hashed_tf_deterministic_and_normalized(self):
        v1 = hashed_tf_vector(["disease", "wing", "disease"])
        v2 = hashed_tf_vector(["disease", "wing", "disease"])
        assert np.allclose(v1, v2)
        assert np.isclose(np.linalg.norm(v1), 1.0)

    def test_hashed_tf_zero_for_empty(self):
        assert np.linalg.norm(hashed_tf_vector([])) == 0.0

    @given(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6), max_size=30))
    @settings(max_examples=30)
    def test_property_hashed_tf_norm_bounded(self, tokens):
        v = hashed_tf_vector(tokens)
        assert np.linalg.norm(v) <= 1.0 + 1e-9


def trained_classifier():
    clf = NaiveBayesClassifier(["Disease", "Anatomy", "Behavior", "Other"])
    clf.train(
        [
            ("observed infection and avian flu symptoms sick", "Disease"),
            ("virus disease outbreak parasite illness", "Disease"),
            ("wing beak feather plumage body shape tail", "Anatomy"),
            ("anatomy skeleton bone wingspan weight size", "Anatomy"),
            ("migration nesting singing foraging courtship", "Behavior"),
            ("feeding eating diving flying behavior flock", "Behavior"),
            ("miscellaneous general note comment", "Other"),
        ]
    )
    return clf


class TestNaiveBayes:
    def test_classifies_obvious_documents(self):
        clf = trained_classifier()
        assert clf.classify("the bird showed flu infection symptoms") == "Disease"
        assert clf.classify("a very long wingspan and striking plumage") == "Anatomy"
        assert clf.classify("seen foraging and nesting near the lake") == "Behavior"

    def test_fallback_for_unknown_tokens(self):
        clf = trained_classifier()
        assert clf.classify("zzzz qqqq xxxx") == "Other"

    def test_fallback_is_configurable(self):
        clf = NaiveBayesClassifier(["A", "B"], fallback_label="A")
        clf.train([("alpha words here", "A"), ("beta tokens there", "B")])
        assert clf.classify("zzzz") == "A"

    def test_untrained_raises(self):
        clf = NaiveBayesClassifier(["A"])
        with pytest.raises(SummaryError):
            clf.log_scores("anything")

    def test_unknown_label_rejected(self):
        clf = NaiveBayesClassifier(["A"])
        with pytest.raises(SummaryError):
            clf.train([("text", "NotALabel")])

    def test_empty_labels_rejected(self):
        with pytest.raises(SummaryError):
            NaiveBayesClassifier([])

    def test_incremental_training_shifts_decision(self):
        clf = NaiveBayesClassifier(["A", "B"], fallback_label="B")
        clf.train([("ambiguous token", "A")])
        assert clf.classify("ambiguous token") == "A"
        clf.train([("ambiguous token", "B")] * 5)
        assert clf.classify("ambiguous token") == "B"

    def test_scores_cover_all_labels(self):
        clf = trained_classifier()
        scores = clf.log_scores("wing infection")
        assert set(scores) == {"Disease", "Anatomy", "Behavior", "Other"}


class TestCluStream:
    def test_similar_texts_share_cluster(self):
        cs = CluStream()
        a = cs.insert(1, "large bird eating stonewort in the lake")
        b = cs.insert(2, "bird eating stonewort near lake shallows")
        assert a is b
        assert len(cs) == 1

    def test_dissimilar_texts_split_clusters(self):
        cs = CluStream()
        cs.insert(1, "observed severe avian influenza infection symptoms")
        cs.insert(2, "wingspan measurement skeletal anatomy study specimen")
        assert len(cs) == 2

    def test_remove_subtracts_and_drops_empty(self):
        cs = CluStream()
        cs.insert(1, "disease infection")
        cs.remove(1)
        assert len(cs) == 0
        assert cs.member_count == 0

    def test_remove_empties_a_later_cluster(self):
        # Regression: dropping the emptied cluster compared micro-clusters
        # with ==, which raises on their CF vectors whenever an earlier
        # cluster had to be compared first.
        cs = CluStream()
        cs.insert(1, "observed severe avian influenza infection symptoms")
        cs.insert(2, "wingspan measurement skeletal anatomy study specimen")
        cs.remove(2)
        assert len(cs) == 1
        assert cs.cluster_of(1) is not None

    def test_remove_unknown_raises(self):
        cs = CluStream()
        with pytest.raises(SummaryError):
            cs.remove(42)

    def test_duplicate_member_rejected(self):
        cs = CluStream()
        cs.insert(1, "text")
        with pytest.raises(SummaryError):
            cs.insert(1, "text")

    def test_representative_is_a_member(self):
        cs = CluStream()
        for i, text in enumerate(
            ["eating stonewort lake", "eating weeds lake", "eating algae lake"]
        ):
            cs.insert(i, text)
        for (rep_id, excerpt), size, members in cs.groups():
            assert rep_id in members
            assert isinstance(excerpt, str)
            assert size == len(members)

    def test_max_clusters_enforced(self):
        cs = CluStream(max_clusters=3)
        texts = [
            "alpha unique topic one",
            "bravo separate subject two",
            "charlie different theme three",
            "delta unrelated matter four",
            "echo distinct issue five",
        ]
        for i, t in enumerate(texts):
            cs.insert(i, t)
        assert len(cs) <= 3
        assert cs.member_count == 5

    def test_representative_reelection_after_removal(self):
        cs = CluStream(max_clusters=1)
        for i in range(4):
            cs.insert(i, f"eating stonewort lake variant {'x' * i}")
        (rep_id, _), _, _ = cs.groups()[0]
        cs.remove(rep_id)
        (new_rep, _), size, members = cs.groups()[0]
        assert new_rep != rep_id
        assert new_rep in members
        assert size == 3

    def test_groups_sorted_by_size(self):
        cs = CluStream()
        for i in range(5):
            cs.insert(i, "eating stonewort lake water plants")
        cs.insert(99, "completely different skeletal anatomy discussion")
        groups = cs.groups()
        sizes = [g[1] for g in groups]
        assert sizes == sorted(sizes, reverse=True)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_property_member_count_invariant(self, topic_ids):
        topics = [
            "avian disease infection influenza",
            "wing beak anatomy skeleton",
            "migration nesting behavior song",
            "lake habitat wetland reeds",
        ]
        cs = CluStream()
        for i, t in enumerate(topic_ids):
            cs.insert(i, topics[t])
        assert cs.member_count == len(topic_ids)
        assert sum(c.size for c in cs.clusters) == len(topic_ids)
        # Every inserted member resolves to the cluster that contains it.
        for i in range(len(topic_ids)):
            cluster = cs.cluster_of(i)
            assert cluster is not None and i in cluster.members


class TestLsa:
    LONG = (
        "The swan goose is a large goose with a natural breeding range in "
        "inland Mongolia. It was observed eating stonewort in the shallow "
        "lake. Several individuals showed signs of avian influenza during "
        "the autumn survey. The wingspan of adult males reaches one hundred "
        "eighty five centimeters in the largest specimens. Local volunteers "
        "recorded nesting behavior along the reed beds every morning. "
        "Conservation programs have been expanded across the flyway since "
        "the last census was completed."
    )

    def test_short_text_passthrough(self):
        lsa = LsaSummarizer(max_chars=400)
        assert lsa.summarize("short note") == "short note"

    def test_snippet_respects_max_chars(self):
        lsa = LsaSummarizer(max_chars=200)
        snippet = lsa.summarize(self.LONG)
        assert 0 < len(snippet) <= 200

    def test_snippet_sentences_come_from_source(self):
        lsa = LsaSummarizer(max_chars=250)
        snippet = lsa.summarize(self.LONG)
        for sentence in sentences(snippet):
            assert sentence in self.LONG

    def test_single_long_sentence_truncated(self):
        lsa = LsaSummarizer(max_chars=50)
        text = "word " * 100
        snippet = lsa.summarize(text)
        assert len(snippet) <= 50

    def test_deterministic(self):
        lsa = LsaSummarizer(max_chars=200)
        assert lsa.summarize(self.LONG) == lsa.summarize(self.LONG)

    @given(st.integers(min_value=40, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_property_never_exceeds_budget(self, budget):
        lsa = LsaSummarizer(max_chars=budget)
        assert len(lsa.summarize(self.LONG)) <= max(budget, len(self.LONG) and budget)
